"""fglab: exact arithmetic for p-typical formal group laws at desk scale.

Builds a height-(n+1) p-typical formal group law over Z_(p)[u_1..u_n],
verifies its structural congruences, factors the reduced p-series by
Weierstrass preparation, computes in the resulting discrete valuation ring
F_p[[u_n]][a]/g(a), realizes the reduced power operation through the quotient
p-series identity, and runs the weight-descent loop down to a unit.
"""

from .descent import ReducedPowerOperator, descent_run, descent_step
from .dvr import (
    DistinguishedPoly,
    DvrElement,
    DvrRing,
    WeierstrassFactorization,
    WeightValue,
    eisenstein_check,
)
from .errors import FglabError
from .fgl import (
    ChromaticConfig,
    FormalGroupLaw,
    build_fgl,
    c_poly,
    gamma,
    i_series,
    verify_fgl_congruences,
)
from .isogeny import FracElement, QuotientPSeries
from .scalars import USeries, reduce_mod_p
from .series import MultiSeries
from .verify import build_pipeline, run_verify

__version__ = "0.1.0"

__all__ = [
    "ChromaticConfig",
    "DistinguishedPoly",
    "DvrElement",
    "DvrRing",
    "FglabError",
    "FormalGroupLaw",
    "FracElement",
    "MultiSeries",
    "QuotientPSeries",
    "ReducedPowerOperator",
    "USeries",
    "WeierstrassFactorization",
    "WeightValue",
    "build_fgl",
    "build_pipeline",
    "c_poly",
    "descent_run",
    "descent_step",
    "eisenstein_check",
    "gamma",
    "i_series",
    "reduce_mod_p",
    "run_verify",
    "verify_fgl_congruences",
    "__version__",
]
