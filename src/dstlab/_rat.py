"""Exact rational scalars: fractions.Fraction, which interoperates with ints
and prints as "p/q"."""
from fractions import Fraction as RAT


def rat(p, q=1):
    """Exact rational p/q."""
    return RAT(p, q)
