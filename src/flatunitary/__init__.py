"""Exact computation of the flat unitary subbundle of the Hodge bundle
for one-parameter families of smooth plane curves.

The library works entirely in exact arithmetic: rational numbers,
rational functions in the family parameter t, and truncated power
series (jets) at a chosen basepoint. The central objects are the graded
Jacobian ring of a fibre, the Higgs field given by cup product with the
Kodaira-Spencer class, and the descending chain of kernels of its
iterated Gauss-Manin derivatives, whose stable rank is the rank of the
flat unitary subbundle.
"""

__version__ = "0.1.0"


def fixture_path(name: str) -> str:
    """Absolute path of a bundled example family file."""
    from importlib.resources import files

    return str(files("flatunitary") / "fixtures" / name)


from .exactcore import (
    DomainMismatchError,
    ExactCoreError,
    Jet,
    JetSystemSolver,
    LinearSolver,
    Matrix,
    PrecisionExhaustedError,
    RatFun,
    kernel_basis,
    rref,
)
from .family import (
    FamilyParseError,
    FamilySpec,
    NoSmoothFibreError,
    candidate_basepoints,
    generic_fibre,
    iter_basepoints,
    jet_expand,
    parse_family,
    pick_basepoint,
    print_family,
    specialize,
    t_derivative,
)
from .gaussmanin import (
    NotKernelSectionError,
    Witness,
    gm_derivative,
    membership_witness,
    reduce_pole,
    theta_eval,
)
from .jacobian import (
    JacobianFiber,
    RingElement,
    SingularFibreError,
    genus_of_degree,
    make_fiber,
    standard_degrees,
)
from .polyring import HomPoly, graded_basis, monomial_count, poly_mul, poly_partial
from .unitary import (
    Eta2Result,
    FiltrationResult,
    MuReport,
    UnitaryRank,
    eta2_on_K,
    filtration_ranks,
    mu_principal,
    mu_report,
    pointwise_kernel,
    unitary_rank,
)

__all__ = [
    "__version__",
    "fixture_path",
    "DomainMismatchError",
    "Eta2Result",
    "ExactCoreError",
    "FamilyParseError",
    "FamilySpec",
    "FiltrationResult",
    "HomPoly",
    "JacobianFiber",
    "Jet",
    "JetSystemSolver",
    "LinearSolver",
    "Matrix",
    "MuReport",
    "NoSmoothFibreError",
    "NotKernelSectionError",
    "PrecisionExhaustedError",
    "RatFun",
    "RingElement",
    "SingularFibreError",
    "UnitaryRank",
    "Witness",
    "candidate_basepoints",
    "eta2_on_K",
    "filtration_ranks",
    "generic_fibre",
    "genus_of_degree",
    "gm_derivative",
    "graded_basis",
    "iter_basepoints",
    "jet_expand",
    "kernel_basis",
    "make_fiber",
    "membership_witness",
    "monomial_count",
    "mu_principal",
    "mu_report",
    "parse_family",
    "pick_basepoint",
    "pointwise_kernel",
    "poly_mul",
    "poly_partial",
    "print_family",
    "reduce_pole",
    "rref",
    "specialize",
    "standard_degrees",
    "t_derivative",
    "theta_eval",
    "unitary_rank",
]
