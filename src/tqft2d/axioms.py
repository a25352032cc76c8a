"""The generator relations of 2Cob as word pairs, run on an integer kernel.

Commutative Frobenius algebras are exactly 2D TQFTs (Abrams 1996; Kock
2003), so the algebra axioms are relations between generator words.
This module holds the one table of those word pairs and the one checker,
:func:`word_failures`, which runs both words of a pair and reports every
entry where they differ.  Other modules get field scalars from the
kernel through :func:`word_entries` and :func:`genus_scalar`, so its
scale convention stays here.

The kernel works on Python ints, never on field scalars.  Once per
algebra, each generator's sparse columns are made integral: over Q every
entry is multiplied by the generator's scale, the LCM of the denominators
of its entries; over GF(p) the canonical residues are used with scale 1.
A word's scale is the product of the scales of every generator in every
layer, and an entry v of its integer columns stands for v / scale.  Over
GF(p), ``% p`` is applied once per accumulated state entry and once per
cached layer-column entry, never per multiply-add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

from . import dsl
from .fields import Field, Scalar, make_field
from .words import CobordismWord, Generator

if TYPE_CHECKING:  # annotations only: frobenius imports this module
    from .frobenius import FrobeniusAlgebraData


@dataclass(frozen=True)
class CheckFailure:
    identity: str
    coordinate: tuple[int, ...]
    lhs: str
    rhs: str

    def __str__(self) -> str:
        at = ",".join(map(str, self.coordinate))
        return f"{self.identity} at ({at}): {self.lhs} != {self.rhs}"


# ---------------------------------------------------------------------------
# integer kernel


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


def _int_tables(a: FrobeniusAlgebraData) -> _IntTables:
    """The algebra's tables, memoised on the instance: keying a cache by
    the algebra's value would compare d^3 Fractions on every lookup.  Two
    threads may both build them; the tables are equal, so either may win."""
    t = a._int_tables
    if t is None:
        prime = a.field.prime
        columns, scales = {}, {}
        for gen, cols in _generator_columns(a, make_field(a.field)).items():
            scales[gen], columns[gen] = _scaled(cols, prime)
        handle = _apply(columns[Generator.SPLIT], columns[Generator.MERGE], prime)
        t = _IntTables(prime, columns, scales, handle)
        object.__setattr__(a, "_int_tables", t)
    return t  # type: ignore[return-value]


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


def _run_word(w: CobordismWord, t: _IntTables, d: int) -> tuple[int, list[_IntCol]]:
    """The word's scale and its integer columns, one per input basis index."""
    scale = 1
    state: list[_IntCol] = [{i: 1} for i in range(d**w.source)]
    for layer in w.layers:
        for g in layer.generators:
            scale *= t.scales[g]
        state = _apply(state, _columns_of(layer.generators, t, d), t.prime)
    return scale, state


def _scalar(v: int, scale: int, prime: int | None) -> Scalar:
    """The field scalar an integer entry of a word with this scale stands for."""
    return Fraction(v, scale) if prime is None else v


def word_entries(w: CobordismWord, a: FrobeniusAlgebraData) -> list[Scalar]:
    """The word's d^target x d^source matrix under a, row-major, as field
    scalars.  The algebra is not validated."""
    t, d = _int_tables(a), a.dim
    scale, state = _run_word(w, t, d)
    n_cols = d**w.source
    entries: list[Scalar] = [make_field(a.field).zero] * (d**w.target * n_cols)
    scalars: dict[int, Scalar] = {}  # one division per distinct value
    for c, column in enumerate(state):
        for r, v in column.items():
            x = scalars.get(v)
            if x is None:
                x = scalars[v] = _scalar(v, scale, t.prime)
            entries[r * n_cols + c] = x
    return entries


def genus_scalar(genus: int, a: FrobeniusAlgebraData) -> Scalar:
    """counit(H^genus(unit)) with H = mu . delta, the closed genus-g surface."""
    t = _int_tables(a)
    vec = t.columns[Generator.CAP][0]
    for _ in range(genus):
        vec = _apply([vec], t.handle, t.prime)[0]
    value = _apply([vec], t.columns[Generator.CUP], t.prime)[0].get(0, 0)
    s = t.scales
    handle_scale = s[Generator.MERGE] * s[Generator.SPLIT]
    return _scalar(value, s[Generator.CAP] * handle_scale**genus * s[Generator.CUP], t.prime)


# ---------------------------------------------------------------------------
# the word table and its checker


@dataclass(frozen=True)
class WordPair:
    """Two words that agree under every commutative Frobenius algebra.

    ``relation`` names the pair in ``evaluator.relation_table``, and
    ``identity`` and ``section`` in the axiom reports of ``frobenius``;
    either name may be None.  ``mirrored`` marks the commutativity pairs:
    their words differ by a swap of the two-wire side, so a mismatch at
    digits (i, j) there is the one at (j, i).  Only i < j is reported,
    with the entry of the word without the swap as lhs.
    """

    lhs: CobordismWord
    rhs: CobordismWord
    relation: str | None
    identity: str | None
    section: str | None
    mirrored: bool


WORD_PAIRS: tuple[WordPair, ...] = tuple(
    WordPair(dsl.parse(lhs), dsl.parse(rhs), relation, identity, section, mirrored)
    for relation, identity, section, lhs, rhs, mirrored in (
        ("identity-cap", None, None, "cap ; id", "cap", False),
        ("identity-cup", None, None, "id ; cup", "cup", False),
        ("identity-merge", None, None, "id^2 ; mu", "mu ; id", False),
        ("unit-left", "unit-left", "monoid", "cap | id ; mu", "id", False),
        ("unit-right", "unit-right", "monoid", "id | cap ; mu", "id", False),
        ("counit-left", "counit-left", "comonoid", "delta ; cup | id", "id", False),
        ("counit-right", "counit-right", "comonoid", "delta ; id | cup", "id", False),
        ("associativity", "associativity", "monoid", "mu | id ; mu", "id | mu ; mu", False),
        ("coassociativity", "coassociativity", "comonoid",
         "delta ; delta | id", "delta ; id | delta", False),
        ("commutativity", "commutative-mul", "commutative", "swap ; mu", "mu", True),
        ("cocommutativity", "commutative-comul", "commutative", "delta ; swap", "delta", True),
        ("frobenius-left", "frobenius-left", "frobenius",
         "delta | id ; id | mu", "mu ; delta", False),
        ("frobenius-right", "frobenius-right", "frobenius",
         "id | delta ; mu | id", "mu ; delta", False),
    )
)


def _digits(index: int, n: int, d: int) -> tuple[int, ...]:
    """The n base-d digits of index, wire 0 (most significant) first."""
    return tuple(index // d ** (n - 1 - w) % d for w in range(n))


def word_failures(a: FrobeniusAlgebraData, pair: WordPair) -> Iterator[CheckFailure]:
    """Every entry where the pair's two words evaluate differently under a.

    The entry in row r, column c has the coordinate made of the base-d
    digits of c (the input wires) followed by those of r (the output
    wires); lhs and rhs are the two entries as field strings.  Entries
    come in coordinate order.  The algebra is not validated first.
    """
    t, d, f = _int_tables(a), a.dim, make_field(a.field)
    name = pair.identity or pair.relation
    l_scale, left = _run_word(pair.lhs, t, d)
    r_scale, right = _run_word(pair.rhs, t, d)
    n_in, n_out = pair.lhs.source, pair.lhs.target
    for c, (l_col, r_col) in enumerate(zip(left, right)):
        for r in sorted(l_col.keys() | r_col.keys()):
            lv, rv = l_col.get(r, 0), r_col.get(r, 0)
            if lv * r_scale == rv * l_scale:
                continue
            coord = _digits(c, n_in, d) + _digits(r, n_out, d)
            lx, rx = _scalar(lv, l_scale, t.prime), _scalar(rv, r_scale, t.prime)
            if pair.mirrored:
                i, j = coord[:2] if n_in == 2 else coord[-2:]
                if i > j:
                    continue
                lx, rx = rx, lx
            yield CheckFailure(name, coord, f.to_str(lx), f.to_str(rx))
