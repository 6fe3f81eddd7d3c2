"""Independent oracle for the Bäcklund map's branch: its fixed point tracked
from sigma = 0.

At sigma = 0 the map is y_i = -1/X_i.  `tracked_y1` follows y_1 over
`points` uniform sigma steps to the target, taking at each step the root of
xi c y^2 + (xi d - a) y - b = 0 nearest the last one, with
T(s) = [[a, b], [c, d]] multiplied out from the site matrices
[[s + x_i X_i, x_i], [X_i, 1]].  It shares nothing with dstlab.backlund.
"""
import numpy as np


def monodromy_at(state, s):
    t = np.eye(2, dtype=complex)
    for x_i, X_i in zip(state.q, state.r):
        t = np.array([[s + x_i * X_i, x_i], [X_i, 1]]) @ t
    return t


def tracked_y1(state, sigma, xi, points=1000):
    y = -1.0 / state.r[0]
    for k in range(1, points + 1):
        (a, b), (c, d) = monodromy_at(state, sigma * k / points)
        roots = np.roots([xi * c, xi * d - a, -b])
        y = roots[np.argmin(np.abs(roots - y))]
    return y
