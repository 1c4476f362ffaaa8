"""pgpairs: exact invariants and consistency checks for linear sections of
Gr(2,n) and their Pfaffian duals."""

from . import errors
from .chern import (
    HodgeSummary,
    chi_y_ci,
    euler_characteristic_ci,
    middle_hodge,
    tangent_chern,
)
from .dsl import eval_dsl
from .pairs import (
    PGPair,
    build_pair_report,
    cayley_hypersurface_class,
    cayley_hypersurface_class_dual,
    check_l_equivalence,
    derive_poincare_y,
    fiber_classes,
    hypersurface_poincare_oracle,
    make_pair,
    nl_status,
    poincare_x,
)
from .ring import LPoly, TPoly, projective_class
from .schubert import (
    ChowClass,
    ChowRing,
    betti,
    grassmannian_class,
    hyperplane_section_class,
    lefschetz_shift,
    lr_count,
    sum_even_powers,
)

__version__ = "0.1.0"

__all__ = [
    "ChowClass",
    "ChowRing",
    "HodgeSummary",
    "LPoly",
    "PGPair",
    "TPoly",
    "betti",
    "build_pair_report",
    "cayley_hypersurface_class",
    "cayley_hypersurface_class_dual",
    "check_l_equivalence",
    "chi_y_ci",
    "derive_poincare_y",
    "errors",
    "eval_dsl",
    "euler_characteristic_ci",
    "fiber_classes",
    "grassmannian_class",
    "hyperplane_section_class",
    "hypersurface_poincare_oracle",
    "lefschetz_shift",
    "lr_count",
    "make_pair",
    "middle_hodge",
    "nl_status",
    "poincare_x",
    "projective_class",
    "sum_even_powers",
    "tangent_chern",
]
