"""The package's seeded stream against numpy's generator, its reference."""
import inspect
import random
import re
import zlib

import numpy as np
import pytest

from dstlab import verify
from dstlab._rng import PCG64

# Every tag verify._sub_rng is called with.
VERIFY_TAGS = [f"{kind}-{label}" for kind in ("flow", "lax")
               for label in ("periodic", "quasiperiodic", "open")] + [
    "brackets", "sklyanin", "dets", "hcoeffs", "traj", "cism1", "cism2", "fdorder",
    "rescale", "bt", "xipairs", "baxter"]


def test_verify_tags_are_all_listed():
    source = inspect.getsource(verify)
    literal = set(re.findall(r'_sub_rng\(seed, "([^"]+)"\)', source))
    prefixes = re.findall(r'_sub_rng\(seed, "([^"]+)" \+ label\)', source)
    labels = [label for label, _ in verify._regimes()]
    assert literal | {p + label for p in prefixes for label in labels} == set(VERIFY_TAGS)


def _seeds():
    rnd = random.Random(2024)
    derived = [(seed << 16) ^ zlib.crc32(tag.encode())
               for tag in VERIFY_TAGS for seed in range(20)]
    wide = [rnd.getrandbits(bits) for bits in (32, 64, 128, 200) for _ in range(20)]
    return derived + list(range(100)) + wide


def test_draws_match_numpy_bit_for_bit():
    """uniform and integers interleaved, sizes 0 to 30, every float compared
    by its hex form, on the seeds verify derives and on plain and wide ones."""
    rnd = random.Random(7)
    seeds = _seeds()
    assert len(seeds) >= 500
    for seed in seeds:
        ref, ours = np.random.default_rng(seed), PCG64(seed)
        for _ in range(8):
            size = rnd.randint(0, 30)
            if rnd.random() < 0.6:
                low = rnd.uniform(-3.0, 3.0)
                high = low + rnd.choice([0.0, 1e-9, 1.0, rnd.uniform(0.0, 5.0)])
                want = [float(v).hex() for v in ref.uniform(low, high, size)]
                got = [v.hex() for v in ours.uniform(low, high, size)]
            else:
                low = rnd.randint(-20, 20)
                high = low + rnd.choice([1, 2, 3, 8, 18, 1000, 2**31 + 5, 2**32 - 1])
                want = ref.integers(low, high, size).tolist()
                got = ours.integers(low, high, size)
            assert got == want, (seed, size, low, high)


@pytest.mark.parametrize("low, high", [(0.0, float("inf")), (float("nan"), 1.0),
                                       (-1e308, 1e308), (1.0, 0.5)])
def test_uniform_refuses_what_numpy_draws_otherwise(low, high):
    with pytest.raises(ValueError):
        PCG64(1).uniform(low, high, 3)


@pytest.mark.parametrize("low, high", [(0, 2**32), (-2**40, 2**40), (0, 0), (5, 3)])
def test_integers_refuses_what_numpy_draws_otherwise(low, high):
    with pytest.raises(ValueError):
        PCG64(1).integers(low, high, 3)


def test_negative_seed_is_refused():
    with pytest.raises(ValueError):
        PCG64(-1)
