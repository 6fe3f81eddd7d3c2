"""Exception types shared across the package."""


class DstlabError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteState(DstlabError):
    """A state entry became NaN/Inf (typically finite-time blow-up)."""


class NonFiniteDerivative(DstlabError):
    """A finite-difference quotient evaluated to NaN/Inf."""


class ZeroXi(DstlabError, ValueError):
    """Quasiperiodic twist xi must be nonzero."""


class WrongRegime(DstlabError, ValueError):
    """Operation called with an incompatible boundary condition."""


class CoincidingSpectralParams(DstlabError, ValueError):
    """Spectral parameters coincide where a denominator lambda-mu (or lambda+mu) vanishes."""


class ZeroSpectralParam(DstlabError, ValueError):
    """A spectral parameter sits on a pole of the normalization."""


class NewtonDiverged(DstlabError):
    """Newton iteration failed to reach tolerance."""


class PoleEncountered(DstlabError):
    """Iterates drifted into the pole set of the transformation."""


class ZeroSeed(DstlabError, ValueError):
    """The sigma=0 seed y_i = -1/X_i needs every X_i nonzero."""


class LogBranch(DstlabError, ValueError):
    """Logarithm of a nonpositive real argument in real mode."""


class SingularG(DstlabError, ValueError):
    """Gauge matrix g is singular on the evaluation grid (lambda hits sigma)."""


class SingularPrefactor(DstlabError, ValueError):
    """Dressing-matrix prefactor pole hit."""


class CostGuard(DstlabError):
    """Refusing an exponentially expensive size without an explicit override."""


class NoConvergence(DstlabError):
    """Root search exhausted its retry budget."""


class RootCollision(DstlabError):
    """Bethe roots closer than the collision guard."""


class EvaluationAtRoot(DstlabError, ValueError):
    """Eigenvalue function evaluated at one of its poles."""


class GammaPole(DstlabError, ValueError):
    """log-gamma pole: sigma/eta is a nonpositive integer <= -1."""


class PoleInput(DstlabError, ValueError):
    """Kernel arguments sit on an excluded pole (y_i = 0 or y_{i+1} = q_i)."""


class DegreeNotPreserved(DstlabError):
    """Operator does not preserve total polynomial degree on the chosen subspace."""


class SiteCountMismatch(DstlabError, ValueError):
    """Operators act on chains of different length."""


class HamiltonianRejected(DstlabError):
    """hq_extract rejected tau; `witness` is the first mismatching coefficient."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class TauShapeMismatch(HamiltonianRejected, AssertionError):
    """tau's leading coefficient is not +-identity, or it has a subleading term."""


class NoOrderingMatches(HamiltonianRejected):
    """No candidate operator ordering reproduces the extracted Hamiltonian."""
