"""Workbench for 2-dimensional cobordism words and exact TQFT evaluation.

Parse diagrams as words over the six generator symbols, decide their
diffeomorphism-class equivalence, evaluate them to exact matrices under
any commutative Frobenius algebra, and cross-check closed-surface
invariants against a finite-group counting oracle.
"""

from .dsl import ParseError, ParseErrorKind, SourceSpan, format_word, parse
from .evaluator import (
    EvalConfig,
    EvalTooLarge,
    ExactMatrix,
    InvalidAlgebra,
    check_relations,
    evaluate,
    extract_algebra,
    genus_invariant,
    genus_invariants,
    kron,
    matmul,
    matrix_to_csv,
    matrix_to_json,
    relation_table,
)
from .fields import RATIONAL, Field, FieldSpec, make_field
from .frobenius import (
    BadCharacteristic,
    CheckFailure,
    DegeneratePairing,
    DerivedStructureInvalid,
    FrobeniusAlgebraData,
    NonAbelianGroup,
    Report,
    ValidationReport,
    algebra_from_json,
    algebra_to_json,
    check_all,
    check_commutative,
    check_comonoid,
    check_frobenius,
    check_monoid,
    check_nondegenerate,
    copairing,
    derive_comultiplication,
    group_algebra,
    group_center,
    load_algebra,
    pairing,
    registry_algebras,
    truncated_poly,
)
from .groups import (
    EnumerationTooLarge,
    FiniteGroup,
    GroupTableError,
    UnknownGroupName,
    builtin,
    commutator_count,
    conjugacy_classes,
    cyclic,
    dw_partition,
    dw_series,
    group_from_json,
    group_to_json,
    product,
)
from .words import (
    BoundaryMismatch,
    CobordismWord,
    Component,
    ComponentProfile,
    Generator,
    InternalInvariantViolation,
    Layer,
    compose,
    decompose_components,
    identity,
    is_equivalent,
    normal_form,
    random_word,
    tensor,
    word,
)

__all__ = [name for name in dir() if not name.startswith("_")]
