"""Central numerical configuration.

Every tolerance used by the package lives in one record so that tests,
the self-test suite, and library code agree on what "equal" and
"degenerate" mean.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across modules.

    equivalence: max-abs tolerance for route-equivalence checks
        (incremental update vs. fresh computation).
    singularity: diagonal / denominator entries at or below this times
        the largest inverse diagonal are treated as numerically degenerate.
    tie_relative: relative tolerance for treating two risk (or score)
        values as tied during query selection.
    prediction_tie: harmonic values within this of 0 (binary; read as +1)
        or of the row maximum (one-vs-rest; lowest class wins) are ties.
        Exact ties carry ~1e-15 of rounding noise; ``h`` lies in [-1, 1]
        whatever beta or the weight unit, so this is scale-free.
    saturation: decision values with |f| above this saturate the
        sigmoid to exactly 0 or 1.
    """

    equivalence: float = 1e-9
    singularity: float = 1e-12
    tie_relative: float = 1e-12
    prediction_tie: float = 1e-12
    saturation: float = 36.0


DEFAULT_TOLERANCES = Tolerances()

#: Strength parameter folded into the Laplacian unless overridden.
DEFAULT_BETA = 1.0

#: Largest unlabeled set the exact enumeration will accept (2**cap states).
DEFAULT_ENUM_CAP = 20
