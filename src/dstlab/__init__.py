"""Integrable discrete self-trapping lattice laboratory.

Library plus CLI for the chain  dq_n/dt = q_{n+1} - q_n^2 r_n,
dr_n/dt = -r_{n-1} + q_n r_n^2  under periodic, quasiperiodic and open
boundaries: exact Lax/monodromy conservation machinery, classical r-matrix
and reflection algebras, the explicit Bäcklund transformation, an exact
normal-ordered Weyl engine for the quantized chain, and the scalar Baxter
three-term functional identity with Bethe-root cross-checks.
"""

__version__ = "0.1.0"

from .lattice import (LatticeState, Open, Periodic, Quasiperiodic,
                      eom, hamiltonian, poisson_bracket, step_rk4)

__all__ = [
    "LatticeState", "Open", "Periodic", "Quasiperiodic",
    "eom", "hamiltonian", "poisson_bracket", "step_rk4", "__version__",
]
