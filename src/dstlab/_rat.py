"""Exact rational scalars.

gmpy2.mpq is used when available (C-backed, much faster for the operator
algebra); fractions.Fraction otherwise.  Both interoperate with ints and
print as "p/q", so everything downstream is agnostic.
"""
try:
    from gmpy2 import mpq as RAT
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as RAT


def rat(p, q=1):
    """Exact rational p/q."""
    return RAT(p, q)
