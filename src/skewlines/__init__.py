"""Exact-arithmetic groups from configurations of pairwise skew lines in P^3.

A finite set of pairwise skew lines, normalized so that two of them are the
coordinate axes `{(v, 0)}` and `{(0, v)}`, is a list of 2x2 matrices over an
exact field: line i is the graph `{(v, M_i v)}`.  Projecting one line onto
another through a third induces Moebius maps whose compositions form a
subgroup of PGL2; this package builds those groups, classifies them, and
enumerates their orbits on the configuration — all exactly, with no floats.
"""

from .analyze import AnalysisReport, OracleMismatch, SCHEMA_VERSION, analyze
from .configs import (
    AbelianReport,
    InvalidConfiguration,
    InvalidIndex,
    LineConfig,
    TransversalReport,
    ValidationReport,
    predict_abelian,
    transversal_compute,
)
from .families import (
    FAMILY_BUILDERS,
    BuiltFamily,
    InvalidParameters,
    a4_example,
    a5_example,
    affine,
    build_family,
    c3_scaled,
    cyclic_4line,
    elementary_abelian,
    root_of_unity,
    s4_example,
    standard_construction,
)
from .fields import (
    DivisionByZero,
    Field,
    FieldElement,
    FieldError,
    MixedFields,
    NonPrimeModulus,
    ReducibleMinpoly,
    UnsupportedField,
    cyclotomic_field,
    extension_field,
    prime_field,
    rational_field,
)
from .groupoid import (
    DEFAULT_BUDGET,
    Classification,
    GeneratorSet,
    GroupClosure,
    IncompleteClosure,
    IndexCollision,
    RatioReport,
    classify,
    eigratio_check,
    generator,
    generator_set,
    group_closure,
    ratio_order,
)
from .matrices import (
    Mat2,
    ProjElem,
    ProjPoint,
    commutator,
    eigenvectors,
    fixes_point,
    moebius_apply,
    proj_identity,
    proj_normalize,
    proj_order,
)
from .orbits import (
    OrbitReport,
    SeedNotOnConfiguration,
    find_carrier,
    line_parameter,
    orbit_full,
    orbit_geometric,
    p3_from_string,
    point_on_line,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
