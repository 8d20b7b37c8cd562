"""Invariant results with explicit snapping: raw value, snapped value, and
the residual between them. Unsnapped results are first-class values (snapped
is None) so parameter sweeps can record them; require_snapped() raises.
"""

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .config import DEFAULT_TOL
from .errors import UnsnappedError

Value = Union[int, float, complex]


@dataclass(frozen=True)
class InvariantResult:
    kind: str                     # Chern | Delta | Kappa | BerryPhase | ...
    raw: Value
    snapped: Optional[Value]
    residual: float
    snap_tol: float
    meta: dict = field(default_factory=dict)

    def require_snapped(self):
        if self.snapped is None:
            raise UnsnappedError(self)
        return self.snapped


def snap_integer(kind, raw, snap_tol=DEFAULT_TOL.snap, meta=None, modulus=None):
    """Snap a (possibly complex) raw value to the nearest integer.

    With `modulus` given, the snapped integer is reduced mod it. The raw
    value is kept untouched; a NaN or infinite one never snaps.
    """
    raw_c = complex(raw)
    nearest = float(np.rint(raw_c.real))
    residual = abs(raw_c - nearest)
    snapped = None
    if residual < snap_tol:
        snapped = int(nearest) % modulus if modulus else int(nearest)
    return InvariantResult(kind=kind, raw=raw_c.real if raw_c.imag == 0 else raw_c,
                           snapped=snapped, residual=float(residual),
                           snap_tol=snap_tol, meta=meta or {})


def snap_sign(kind, raw, meta=None):
    """Snap a complex value to the nearer of +1/-1, within DEFAULT_TOL.snap."""
    raw_c = complex(raw)
    sign = 1 if raw_c.real >= 0 else -1
    residual = abs(raw_c - sign)
    snapped = sign if residual < DEFAULT_TOL.snap else None
    return InvariantResult(kind=kind, raw=raw_c, snapped=snapped,
                           residual=float(residual), snap_tol=DEFAULT_TOL.snap,
                           meta=meta or {})


def snap_unit(kind, raw, meta=None):
    """Normalize a phase-like value to unit modulus; residual = | |raw| - 1 |,
    snapped within DEFAULT_TOL.snap."""
    raw_c = complex(raw)
    mod = abs(raw_c)
    residual = abs(mod - 1.0)
    snapped = raw_c / mod if (mod > 0 and residual < DEFAULT_TOL.snap) else None
    return InvariantResult(kind=kind, raw=raw_c, snapped=snapped,
                           residual=float(residual), snap_tol=DEFAULT_TOL.snap,
                           meta=meta or {})
