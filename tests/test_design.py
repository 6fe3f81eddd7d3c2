"""Ratchets on the package's size of interface."""
import ast
import pathlib

import dstlab

# Defaulted function parameters in src/dstlab: each function's positional
# defaults plus its keyword-only defaults other than None.  A change that
# needs a new option raises this number in its own diff.
MAX_DEFAULTED_PARAMETERS = 40


def _defaulted_parameters():
    count = 0
    for path in pathlib.Path(dstlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    return count


def test_defaulted_parameters_do_not_grow():
    assert _defaulted_parameters() <= MAX_DEFAULTED_PARAMETERS


def test_one_random_stream_in_the_package():
    # every seeded draw goes through dstlab._rng; numpy's generator is only
    # the tests' reference
    for path in pathlib.Path(dstlab.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "np.random" not in text and "default_rng" not in text, path.name


def _numpy_imports():
    found = []
    for path in pathlib.Path(dstlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "numpy"]
    return found


def test_no_numpy_in_the_package():
    # numpy is the tests' reference only: every command runs without it
    assert _numpy_imports() == []
