"""The TQFT functor: cobordism words to exact matrices.

A valid algebra's functor depends only on the word's component profile
(Kock 2003), so :func:`evaluate` never runs the layers: each closed
component is a genus scalar, each open component with m inputs, n
outputs and genus g is the block delta^(n-1) . H^g . mu^(m-1) with
H = mu . delta, and the word's d^target x d^source matrix has, at
(r, c), the product of the scalars and of each block's entry at that
component's digits of r and c.  Wire 0 is the leftmost tensor factor,
so basis index i*d + j means e_i (x) e_j.  All arithmetic is exact.

Words, the genus invariant and ``check_relations`` all run on the
fraction-free integer kernel of :mod:`tqft2d.axioms`;
``check_relations`` runs its words layer by layer, because it must
work on algebras that fail the axioms.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator

from . import dsl
from .axioms import WORD_PAIRS, genus_scalar, genus_series, profile_entries, word_failures
from .fields import FieldSpec, Scalar, make_field
from .frobenius import (
    FrobeniusAlgebraData,
    ValidationReport,
    cached_check_all,
    _freeze3,
)
from .groups import MAX_GENUS, EnumerationTooLarge
from .words import CobordismWord


class InvalidAlgebra(ValueError):
    """The algebra fails check_all; evaluation refused."""

    def __init__(self, report: ValidationReport) -> None:
        lines = [str(f) for f in report.failures[:5]]
        more = len(report.failures) - len(lines)
        msg = "; ".join(lines) + (f"; and {more} more" if more > 0 else "")
        super().__init__(f"algebra fails validation: {msg}")
        self.report = report


class EvalTooLarge(ValueError):
    """A layer map or the output matrix would exceed the tensor-entry cap.

    ``layer_index`` is None when the d^target x d^source output is too big.
    """

    def __init__(self, layer_index: int | None, entries: int, cap: int) -> None:
        what = "the output matrix" if layer_index is None else f"layer {layer_index}"
        super().__init__(f"{what} needs {entries} tensor entries (cap {cap})")
        self.layer_index = layer_index


@dataclass(frozen=True)
class EvalConfig:
    max_tensor_entries: int = 2**20

    def __post_init__(self) -> None:
        if self.max_tensor_entries < 1:
            raise ValueError("max_tensor_entries must be >= 1")


DEFAULT_CONFIG = EvalConfig()


@dataclass(frozen=True)
class ExactMatrix:
    """Dense row-major matrix of exact scalars over one field."""

    rows: int
    cols: int
    field: FieldSpec
    entries: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )

    def entry(self, r: int, c: int) -> Scalar:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple[Scalar, ...]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    @staticmethod
    def identity(n: int, field: FieldSpec) -> "ExactMatrix":
        f = make_field(field)
        entries = tuple(f.one if i == j else f.zero for i in range(n) for j in range(n))
        return ExactMatrix(n, n, field, entries)


def matrix_to_json(m: ExactMatrix) -> dict:
    f = make_field(m.field)
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[f.to_str(x) for x in m.row(r)] for r in range(m.rows)],
    }


def matrix_to_csv(m: ExactMatrix) -> str:
    f = make_field(m.field)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for r in range(m.rows):
        writer.writerow([f.to_str(x) for x in m.row(r)])
    return buf.getvalue()


def kron(m1: ExactMatrix, m2: ExactMatrix) -> ExactMatrix:
    """Kronecker product with m1 as the most significant factor."""
    if m1.field != m2.field:
        raise ValueError(f"field mismatch: {m1.field} vs {m2.field}")
    f = make_field(m1.field)
    rows, cols = m1.rows * m2.rows, m1.cols * m2.cols
    entries = []
    for r1 in range(m1.rows):
        for r2 in range(m2.rows):
            for c1 in range(m1.cols):
                a = m1.entry(r1, c1)
                entries.extend(
                    f.normalize(a * m2.entry(r2, c2)) if a else f.zero
                    for c2 in range(m2.cols)
                )
    return ExactMatrix(rows, cols, m1.field, tuple(entries))


def matmul(m1: ExactMatrix, m2: ExactMatrix) -> ExactMatrix:
    """Plain exact matrix product m1 * m2."""
    if m1.field != m2.field:
        raise ValueError(f"field mismatch: {m1.field} vs {m2.field}")
    if m1.cols != m2.rows:
        raise ValueError(f"shape mismatch: {m1.rows}x{m1.cols} times {m2.rows}x{m2.cols}")
    f = make_field(m1.field)
    entries = []
    for r in range(m1.rows):
        row = m1.row(r)
        for c in range(m2.cols):
            entries.append(
                f.normalize(sum(row[k] * m2.entry(k, c) for k in range(m1.cols) if row[k]))
            )
    return ExactMatrix(m1.rows, m2.cols, m1.field, tuple(entries))


# ---------------------------------------------------------------------------
# evaluation


def _check_size(w: CobordismWord, d: int, cfg: EvalConfig) -> None:
    cap = cfg.max_tensor_entries
    for idx, layer in enumerate(w.layers):
        if d**layer.inputs * d**layer.outputs > cap:
            raise EvalTooLarge(idx, d**layer.inputs * d**layer.outputs, cap)
    if d**w.target * d**w.source > cap:
        raise EvalTooLarge(None, d**w.target * d**w.source, cap)


def _require_valid(a: FrobeniusAlgebraData) -> None:
    report = cached_check_all(a)
    if not report.ok:
        raise InvalidAlgebra(report)


def evaluate(
    w: CobordismWord, a: FrobeniusAlgebraData, cfg: EvalConfig = DEFAULT_CONFIG
) -> ExactMatrix:
    """Image of the word under the functor defined by a valid algebra.

    Size caps are checked first, so a word that is too large is refused
    before any validation work.
    """
    d = a.dim
    _check_size(w, d, cfg)
    _require_valid(a)
    return ExactMatrix(d**w.target, d**w.source, a.field, tuple(profile_entries(w, a)))


def genus_invariant(genus: int, a: FrobeniusAlgebraData) -> Scalar:
    """Closed genus-g invariant counit(H^g(unit)) with H = mu . delta.

    Equals evaluating the closed normal-form word of that genus, but
    runs through the d x d handle operator, built once per algebra,
    instead of tensor assembly.
    """
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    if genus > MAX_GENUS:
        raise EnumerationTooLarge(f"genus {genus} exceeds the cap of {MAX_GENUS}")
    _require_valid(a)
    return genus_scalar(genus, a)


def genus_invariants(a: FrobeniusAlgebraData) -> Iterator[Scalar]:
    """``genus_invariant(g, a)`` for g = 0, 1, ..., MAX_GENUS, each one
    handle step from the last.  The algebra is validated on first use."""
    _require_valid(a)
    yield from islice(genus_series(a), MAX_GENUS + 1)


# ---------------------------------------------------------------------------
# generator relations


_RELATIONS = tuple(p for p in WORD_PAIRS if p.relation is not None)


def relation_table() -> list[tuple[str, CobordismWord, CobordismWord]]:
    """The 13 built-in generator relations as word pairs."""
    return [(p.relation, p.lhs, p.rhs) for p in _RELATIONS]


@dataclass(frozen=True)
class RelationFailure:
    name: str
    lhs: str
    rhs: str


@dataclass(frozen=True)
class RelationReport:
    failures: tuple[RelationFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_relations(
    a: FrobeniusAlgebraData, cfg: EvalConfig = DEFAULT_CONFIG
) -> RelationReport:
    """Evaluate both sides of every built-in relation and compare exactly.

    Runs on unvalidated data on purpose: feeding in broken algebras and
    seeing which relations fail is the point of the diagnostic.
    """
    failures = []
    for pair in _RELATIONS:
        _check_size(pair.lhs, a.dim, cfg)
        _check_size(pair.rhs, a.dim, cfg)
        if next(word_failures(a, pair), None) is not None:
            lhs, rhs = dsl.format_word(pair.lhs), dsl.format_word(pair.rhs)
            failures.append(RelationFailure(pair.relation, lhs, rhs))
    return RelationReport(tuple(failures))


def extract_algebra(evaluator: Callable[[CobordismWord], ExactMatrix]) -> FrobeniusAlgebraData:
    """Read the algebra back out of an evaluator closed over it.

    Evaluates the four single-generator words and reassembles the
    structure tensors; for any valid input algebra this round-trips
    entrywise.
    """
    ident = evaluator(dsl.parse("id"))
    d = ident.rows
    spec = ident.field
    m_mu = evaluator(dsl.parse("mu"))
    m_delta = evaluator(dsl.parse("delta"))
    m_cap = evaluator(dsl.parse("cap"))
    m_cup = evaluator(dsl.parse("cup"))
    mu = _freeze3(
        [
            [[m_mu.entry(k, i * d + j) for k in range(d)] for j in range(d)]
            for i in range(d)
        ]
    )
    delta = _freeze3(
        [
            [[m_delta.entry(i * d + j, k) for j in range(d)] for i in range(d)]
            for k in range(d)
        ]
    )
    unit = tuple(m_cap.entry(k, 0) for k in range(d))
    counit = tuple(m_cup.entry(0, i) for i in range(d))
    return FrobeniusAlgebraData(spec, d, mu, unit, delta, counit)
