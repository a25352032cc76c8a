"""The TQFT functor: cobordism words to exact matrices.

Each layer compiles to the Kronecker product of its generators'
matrices (cap -> unit column, cup -> counit row, id -> identity,
mu -> d x d^2, delta -> d^2 x d, swap -> the basis-swap permutation);
the word evaluates to the composite, a d^target x d^source matrix.
Wire 0 is the leftmost tensor factor, so basis index i*d + j means
e_i (x) e_j.  All arithmetic is exact.

Layers run on Python ints, never on field scalars.  Once per algebra,
each generator's sparse columns are made integral: over Q every entry
is multiplied by the generator's scale, the LCM of the denominators of
its entries; over GF(p) the canonical residues are used with scale 1.
A word's total scale is the product of the scales of every generator
in every layer, and each nonzero output entry is divided by it once,
at the end.  Over GF(p), ``% p`` is applied once per accumulated state
entry and once per cached layer-column entry, never per multiply-add.
The genus invariant (through the handle operator) and
``check_relations`` run through the same kernel.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from . import dsl
from .fields import Field, FieldSpec, Scalar, make_field
from .frobenius import (
    FrobeniusAlgebraData,
    ValidationReport,
    cached_check_all,
    _freeze3,
)
from .words import CobordismWord, Generator


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


_SparseCols = list[dict[int, Scalar]]
_IntCol = dict[int, int]


def _generator_columns(a: FrobeniusAlgebraData, f: Field) -> dict[Generator, _SparseCols]:
    d = a.dim
    table: dict[Generator, _SparseCols] = {}
    table[Generator.CAP] = [{k: a.unit[k] for k in range(d) if a.unit[k]}]
    table[Generator.CUP] = [({0: a.counit[i]} if a.counit[i] else {}) for i in range(d)]
    table[Generator.ID] = [{i: f.one} for i in range(d)]
    table[Generator.MERGE] = [
        {k: a.mu[i][j][k] for k in range(d) if a.mu[i][j][k]}
        for i in range(d)
        for j in range(d)
    ]
    table[Generator.SPLIT] = [
        {i * d + j: a.delta[k][i][j] for i in range(d) for j in range(d) if a.delta[k][i][j]}
        for k in range(d)
    ]
    table[Generator.SWAP] = [
        {j * d + i: f.one} for i in range(d) for j in range(d)
    ]
    return table


def _scaled(cols: _SparseCols, prime: int | None) -> tuple[int, list[_IntCol]]:
    """Integer columns and their common scale: true entry = int / scale."""
    if prime is not None:
        return 1, cols
    scale = math.lcm(*(x.denominator for col in cols for x in col.values()))
    return scale, [
        {r: x.numerator * (scale // x.denominator) for r, x in col.items()} for col in cols
    ]


def _apply(state: list[_IntCol], columns: Sequence[_IntCol], prime: int | None) -> list[_IntCol]:
    """Each state column pushed through a map given by its sparse columns.

    Products are summed as plain ints; over GF(p) each accumulated entry
    is reduced once.  Zero entries are dropped.
    """
    out = []
    for src in state:
        acc: _IntCol = {}
        get = acc.get
        for mid, v in src.items():
            for r, x in columns[mid].items():
                acc[r] = get(r, 0) + v * x
        if prime is None:
            out.append({r: x for r, x in acc.items() if x})
        else:
            out.append({r: y for r, x in acc.items() if (y := x % prime)})
    return out


@dataclass(frozen=True)
class _IntTables:
    """Integer form of one algebra, built once by :func:`_int_tables`."""

    prime: int | None
    columns: dict[Generator, list[_IntCol]]
    scales: dict[Generator, int]
    handle: list[_IntCol]  # H = mu . delta, column k is H(e_k)


@lru_cache(maxsize=256)
def _int_tables(a: FrobeniusAlgebraData) -> _IntTables:
    prime = a.field.prime
    columns, scales = {}, {}
    for gen, cols in _generator_columns(a, make_field(a.field)).items():
        scales[gen], columns[gen] = _scaled(cols, prime)
    handle = _apply(columns[Generator.SPLIT], columns[Generator.MERGE], prime)
    return _IntTables(prime, columns, scales, handle)


class _LayerColumns(dict):
    """Sparse integer columns of a Kronecker product of generators, keyed
    by input index and built on first use.

    The generators are split in two halves, each with its own column
    cache, so every partial product is built once and the nesting is
    only log2(len(gens)) deep.  Only the columns actually hit by the
    running state are assembled, so wide identity-heavy layers stay
    cheap.  Over GF(p) each built entry is reduced once.
    """

    def __init__(self, gens: Sequence[Generator], t: _IntTables, d: int) -> None:
        super().__init__()
        half = len(gens) // 2
        self.left = _columns_of(gens[:half], t, d)
        self.right = _columns_of(gens[half:], t, d)
        self.radix = d ** sum(g.n_in for g in gens[half:])
        self.out_size = d ** sum(g.n_out for g in gens[half:])
        self.prime = t.prime

    def __missing__(self, mid: int) -> _IntCol:
        high, low = divmod(mid, self.radix)
        right, n = self.right[low], self.out_size
        left = self.left[high]
        col = {li * n + ri: lv * rv for li, lv in left.items() for ri, rv in right.items()}
        if self.prime is not None:
            col = {r: x % self.prime for r, x in col.items()}
        self[mid] = col
        return col


def _columns_of(gens: Sequence[Generator], t: _IntTables, d: int) -> Sequence[_IntCol]:
    return t.columns[gens[0]] if len(gens) == 1 else _LayerColumns(gens, t, d)


def _evaluate_unchecked(
    w: CobordismWord, a: FrobeniusAlgebraData, cfg: EvalConfig
) -> ExactMatrix:
    d = a.dim
    cap = cfg.max_tensor_entries
    for idx, layer in enumerate(w.layers):
        if d**layer.inputs * d**layer.outputs > cap:
            raise EvalTooLarge(idx, d**layer.inputs * d**layer.outputs, cap)
    n_rows, n_cols = d**w.target, d**w.source
    if n_rows * n_cols > cap:
        raise EvalTooLarge(None, n_rows * n_cols, cap)
    t = _int_tables(a)
    scale = 1
    state: list[_IntCol] = [{i: 1} for i in range(n_cols)]
    for layer in w.layers:
        for g in layer.generators:
            scale *= t.scales[g]
        state = _apply(state, _columns_of(layer.generators, t, d), t.prime)
    f = make_field(a.field)
    entries: list[Scalar] = [f.zero] * (n_rows * n_cols)
    scalars: dict[int, Scalar] = {}  # one division per distinct value
    for c, column in enumerate(state):
        for r, v in column.items():
            x = scalars.get(v)
            if x is None:
                x = scalars[v] = Fraction(v, scale) if t.prime is None else v
            entries[r * n_cols + c] = x
    return ExactMatrix(n_rows, n_cols, a.field, tuple(entries))


def _require_valid(a: FrobeniusAlgebraData) -> None:
    report = cached_check_all(a)
    if not report.ok:
        raise InvalidAlgebra(report)


def evaluate(
    w: CobordismWord, a: FrobeniusAlgebraData, cfg: EvalConfig = DEFAULT_CONFIG
) -> ExactMatrix:
    """Image of the word under the functor defined by a valid algebra."""
    _require_valid(a)
    return _evaluate_unchecked(w, a, cfg)


def genus_invariant(
    genus: int, a: FrobeniusAlgebraData, cfg: EvalConfig = DEFAULT_CONFIG
) -> Scalar:
    """Closed genus-g invariant counit(H^g(unit)) with H = mu . delta.

    Equals evaluating the closed normal-form word of that genus, but
    runs through the d x d handle operator, built once per algebra,
    instead of tensor assembly.
    """
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    _require_valid(a)
    t = _int_tables(a)
    vec = t.columns[Generator.CAP][0]
    for _ in range(genus):
        vec = _apply([vec], t.handle, t.prime)[0]
    value = _apply([vec], t.columns[Generator.CUP], t.prime)[0].get(0, 0)
    if t.prime is not None:
        return value
    s = t.scales
    handle_scale = s[Generator.MERGE] * s[Generator.SPLIT]
    return Fraction(value, s[Generator.CAP] * handle_scale**genus * s[Generator.CUP])


# ---------------------------------------------------------------------------
# generator relations


_RELATION_WORDS: tuple[tuple[str, str, str], ...] = (
    ("identity-cap", "cap ; id", "cap"),
    ("identity-cup", "id ; cup", "cup"),
    ("identity-merge", "id^2 ; mu", "mu ; id"),
    ("unit-left", "cap | id ; mu", "id"),
    ("unit-right", "id | cap ; mu", "id"),
    ("counit-left", "delta ; cup | id", "id"),
    ("counit-right", "delta ; id | cup", "id"),
    ("associativity", "mu | id ; mu", "id | mu ; mu"),
    ("coassociativity", "delta ; delta | id", "delta ; id | delta"),
    ("commutativity", "swap ; mu", "mu"),
    ("cocommutativity", "delta ; swap", "delta"),
    ("frobenius-left", "delta | id ; id | mu", "mu ; delta"),
    ("frobenius-right", "id | delta ; mu | id", "mu ; delta"),
)


def relation_table() -> list[tuple[str, CobordismWord, CobordismWord]]:
    """The 13 built-in generator relations as word pairs."""
    return [(name, dsl.parse(lhs), dsl.parse(rhs)) for name, lhs, rhs in _RELATION_WORDS]


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
    for name, lhs, rhs in relation_table():
        ml = _evaluate_unchecked(lhs, a, cfg)
        mr = _evaluate_unchecked(rhs, a, cfg)
        if ml != mr:
            failures.append(RelationFailure(name, dsl.format_word(lhs), dsl.format_word(rhs)))
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
