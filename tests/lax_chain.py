"""Independent oracle for monodromy: the explicit chain L_N @ ... @ L_1.

Each factor is the site Lax matrix as a Mat2 of Poly entries, and each
product is the generic Mat2[Poly] one, so every coefficient, down to the
sign of a zero and int against float, is what Poly arithmetic gives.  This
shares nothing with the recurrence in dstlab.monodromy except lax_L.
"""
from dstlab.monodromy import lax_L


def lax_chain(state):
    t = lax_L(state, state.n_sites)
    for n in range(state.n_sites - 1, 0, -1):
        t = t @ lax_L(state, n)
    return t
