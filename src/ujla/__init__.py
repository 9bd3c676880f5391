"""Exact-arithmetic toolkit for finite-dimensional structure-constant
algebras: axiom suites (associative / Lie / Jordan / UJLA), derived
products, Yang-Baxter operators, derivation constructions, and an
exhaustive classification of small UJLA structures over prime fields.

All arithmetic is exact over Q or F_p; there is no floating point
anywhere in the library.
"""

from .algebra import (
    Algebra,
    algebra_from_matrix_basis,
    algebra_from_products,
    vec_add,
    vec_scale,
    vec_sub,
)
from .axioms import (
    SUITES,
    check_associative,
    check_jordan,
    check_lie,
    check_ujla,
    ujla_failure,
)
from .classify import (
    ClassificationResult,
    SearchSpec,
    are_isomorphic,
    enumerate_ujla,
)
from .derivations import (
    check_derivation,
    derivation_six_term,
    derivation_two_term,
)
from .fields import QQ, FieldSpec, PrimeField, Rationals, parse_field
from .fileformat import (
    dumps_algebra,
    dumps_classification,
    dumps_operator,
    load_algebra_file,
    load_operator_file,
    loads_algebra,
    loads_operator,
)
from .identities import (
    AxiomReport,
    IdentitySpec,
    Verdict,
    check_identity,
    holds,
    revalidate_verdict,
    verify_identity,
)
from .linalg import Matrix, NotInvertibleError, mat_inverse, mat_kernel, mat_mul, mat_rank
from .transforms import check_compatibility, commutator, deform, symmetrize
from .yang_baxter import (
    BraidReport,
    QybeReport,
    TensorSquareOperator,
    build_assoc_yb,
    build_lie_yb,
    center,
    check_braid,
    check_qybe,
    classify_params,
    compose,
    identity_operator,
    lift,
    twist,
)

__version__ = "0.1.0"
