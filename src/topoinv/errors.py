"""Exception types raised across the library.

Every error that reflects a numerical precondition carries the measured
residual so callers can log it instead of re-deriving it.
"""

import math


class TopoinvError(Exception):
    """Base class for all library errors."""


class GapClosure(TopoinvError):
    """Spectral gap at the Fermi level closed (or nearly closed) at some k."""

    def __init__(self, k, gap, threshold):
        self.k = k
        self.gap = float(gap)
        self.threshold = float(threshold)
        super().__init__(f"gap {gap:.3e} at k={k} below threshold {threshold:.1e}")


class DimensionMismatch(TopoinvError):
    """Shapes do not fit: matrix dimensions, grids or field axes disagree."""


class NotInvariant(TopoinvError):
    """Projector is not invariant under the time-reversal adjoint action."""

    def __init__(self, residual, tol):
        self.residual = float(residual)
        super().__init__(f"time-reversal invariance residual {residual:.3e} > {tol:.1e}")


class NotTRS(TopoinvError):
    """Family of projectors is not time-reversal symmetric."""

    def __init__(self, violation, tol):
        self.violation = float(violation)
        super().__init__(f"time-reversal symmetry violated: {violation:.3e} > {tol:.1e}")


class OddRank(TopoinvError):
    pass


class StepFailure(TopoinvError):
    """A transport step is under-resolved: its local error estimate `drift`
    exceeds the bound, or its Magnus exponent norm `step_norm` reaches pi,
    outside the series' convergence radius. `k` is the step's start."""

    def __init__(self, k, drift, bound, step_norm):
        self.k = float(k)
        self.drift = float(drift)
        self.step_norm = float(step_norm)
        cause = (f"step norm {step_norm:.3f} reaches pi" if step_norm >= math.pi
                 else f"local error estimate {drift:.3e} exceeds {bound:.1e}")
        super().__init__(f"{cause} at k={k:.4f}; increase the number of steps")


class PairingFailure(TopoinvError):
    """A Kramers basis whose measured pairing residual max_j ||e_2j - tau e_2j-1||
    exceeds the bound: the antiunitary is not norm-preserving with tau^2 = -1."""

    def __init__(self, residual, bound):
        self.residual = float(residual)
        self.bound = float(bound)
        super().__init__(f"Kramers pairing residual {residual:.3e} > {bound:.1e}")


class BranchAmbiguity(TopoinvError):
    """An eigenvalue of the loop holonomy sits on the logarithm branch cut."""

    def __init__(self, phase):
        self.phase = float(phase)
        super().__init__(f"holonomy eigenphase {phase:.3e} just below the branch cut; "
                         "perturb the family or shift the branch")


class NotTRSFrame(TopoinvError):
    pass


class NotAnExtension(TopoinvError):
    pass


class UnknownModel(TopoinvError):
    pass


class UnknownParameter(TopoinvError):
    """A parameter name the model does not have; lists the valid ones."""

    def __init__(self, model, name, valid):
        self.name = name
        self.valid = list(valid)
        super().__init__(f"{model} has no parameter {name!r}; valid: {self.valid}")


class ParseError(TopoinvError):
    """Model file is not valid JSON; carries line/column from the decoder."""

    def __init__(self, path, line, col, msg):
        self.path = str(path)
        self.line = line
        self.col = col
        super().__init__(f"{path}:{line}:{col}: {msg}")


class SchemaError(TopoinvError):
    """Model file is valid JSON but violates the schema; names the key."""

    def __init__(self, key, msg):
        self.key = key
        super().__init__(f"{key}: {msg}")


class UnsnappedError(TopoinvError):
    """A computed invariant did not land close enough to the discrete set."""

    def __init__(self, result):
        self.result = result
        super().__init__(f"{result.kind} raw={result.raw} residual={result.residual:.3e} "
                         f"not within {result.snap_tol:.1e} of a snapped value")
