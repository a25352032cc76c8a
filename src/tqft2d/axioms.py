"""The integer kernel, and the generator relations of 2Cob run on it.

Commutative Frobenius algebras are exactly 2D TQFTs (Abrams 1996; Kock
2003), so the algebra axioms are relations between generator words.
This module holds the one table of those word pairs and the one checker,
:func:`word_failures`, which runs both words of a pair layer by layer
and reports every entry where they differ.  Other modules get field
scalars from the kernel through :func:`profile_entries`,
:func:`word_entries`, :func:`genus_scalar` and :func:`genus_series`, so
its scale convention stays here.

:func:`profile_entries` evaluates a word without running its layers.
By the normal-form theorem for 2Cob (Kock 2003), the functor of a valid
algebra depends only on the word's component profile: a closed
component of genus g is the scalar counit . H^g . unit with H = mu .
delta, and an open one with m inputs and n outputs is the block
delta^(n-1) . H^g . mu^(m-1).  The layer kernel (:func:`word_entries`)
stays for the checker, because that factorisation fails on the invalid
algebras the checker must run on.

The kernel works on Python ints, never on field scalars.  Once per
algebra, each generator's sparse columns are made integral: over Q every
entry is multiplied by the generator's scale, the LCM of the denominators
of its entries; over GF(p) the canonical residues are used with scale 1.
The scale of a word, or of a block, is the product of the scales of the
generators it is made of, and an entry v of its integer columns stands
for v / scale.  Over GF(p), ``% p`` is applied once per accumulated state
entry and once per cached layer-column entry, never per multiply-add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import dsl
from .fields import Field, Scalar, make_field
from .words import CobordismWord, Generator, decompose_components

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


def _decoded(
    a: FrobeniusAlgebraData, size: int, scale: int, cells: Iterable[tuple[int, int]]
) -> list[Scalar]:
    """A dense entry list of field scalars from (index, integer entry)
    cells; each distinct integer is divided by the scale once."""
    prime = a.field.prime
    entries: list[Scalar] = [make_field(a.field).zero] * size
    scalars: dict[int, Scalar] = {}
    for i, v in cells:
        x = scalars.get(v)
        if x is None:
            x = scalars[v] = _scalar(v, scale, prime)
        entries[i] = x
    return entries


def word_entries(w: CobordismWord, a: FrobeniusAlgebraData) -> list[Scalar]:
    """The word's d^target x d^source matrix under a, row-major, as field
    scalars, computed layer by layer.  The algebra is not validated."""
    d = a.dim
    scale, state = _run_word(w, _int_tables(a), d)
    n_cols = d**w.source
    cells = ((r * n_cols + c, v) for c, column in enumerate(state) for r, v in column.items())
    return _decoded(a, d**w.target * n_cols, scale, cells)


def _split_last(col: _IntCol, split: Sequence[_IntCol], d: int, prime: int | None) -> _IntCol:
    """A column over j wires with delta applied to its last wire."""
    acc: _IntCol = {}
    get = acc.get
    for mid, v in col.items():
        head, k = divmod(mid, d)
        base = head * d * d
        for r, x in split[k].items():
            acc[base + r] = get(base + r, 0) + v * x
    if prime is None:
        return {r: x for r, x in acc.items() if x}
    return {r: y for r, x in acc.items() if (y := x % prime)}


def _block(t: _IntTables, d: int, m: int, n: int, genus: int) -> tuple[int, list[_IntCol]]:
    """Scale and integer columns of the connected surface with m inputs, n
    outputs and this genus: delta^(n-1) . H^genus . mu^(m-1), where
    mu^(-1) is the unit and delta^(-1) the counit.

    mu is folded over each column's input digits, one wire at a time,
    and every prefix is multiplied out once.  Handles and splits are
    applied once per distinct folded vector.  No intermediate is larger
    than the block.
    """
    cols, s, p = t.columns, t.scales, t.prime
    merge = cols[Generator.MERGE]
    folds: Iterable[_IntCol] = cols[Generator.CAP] if m == 0 else cols[Generator.ID]
    for _ in range(m - 1):
        # the products v . e_k for k = 0 .. d-1, as mu applied to v (x) e_k
        folds = (
            u
            for v in folds
            for u in _apply([{i * d + k: x for i, x in v.items()} for k in range(d)], merge, p)
        )
    images: dict[frozenset, _IntCol] = {}
    block = []
    for v in folds:
        key = frozenset(v.items())
        col = images.get(key)
        if col is None:
            col = v
            for _ in range(genus):
                col = _apply([col], t.handle, p)[0]
            if n == 0:
                col = _apply([col], cols[Generator.CUP], p)[0]
            for _ in range(n - 1):
                col = _split_last(col, cols[Generator.SPLIT], d, p)
            images[key] = col
        block.append(col)
    scale = (
        (s[Generator.CAP] if m == 0 else s[Generator.MERGE] ** (m - 1))
        * (s[Generator.MERGE] * s[Generator.SPLIT]) ** genus
        * (s[Generator.CUP] if n == 0 else s[Generator.SPLIT] ** (n - 1))
    )
    return scale, block


def _wire_indices(order: Sequence[int], n: int, d: int) -> list[int]:
    """For each index over the wires in ``order`` (its first wire most
    significant), the index over wires 0 .. n-1 with the same digits."""
    indices = [0]
    for wire in order:
        step = d ** (n - 1 - wire)
        indices = [base + k * step for base in indices for k in range(d)]
    return indices


def profile_entries(w: CobordismWord, a: FrobeniusAlgebraData) -> list[Scalar]:
    """The word's d^target x d^source matrix under a valid algebra,
    row-major, built from its component profile.

    Entry (r, c) is the product of every closed component's scalar and
    of each open component's block entry at that component's digits of
    r and c.  Blocks are built once per (inputs, outputs, genus) in one
    call, so the cost depends on the output size and the number of
    components, not on the depth.  Equals :func:`word_entries` only when
    a satisfies the axioms; the algebra is not validated.
    """
    t, d, p = _int_tables(a), a.dim, a.field.prime
    blocks: dict[tuple[int, int, int], tuple[int, list[_IntCol]]] = {}
    # The Kronecker product of the blocks, its row digits in out_order and
    # its column digits in in_order.  Closed components come first, so
    # each of them scales a 1 x 1 matrix.
    scale, kron = 1, [{0: 1}]
    in_order: list[int] = []
    out_order: list[int] = []
    components = decompose_components(w).components
    for comp in sorted(components, key=lambda c: bool(c.inputs or c.outputs)):
        key = (len(comp.inputs), len(comp.outputs), comp.genus)
        if key not in blocks:
            blocks[key] = _block(t, d, *key)
        b_scale, block = blocks[key]
        scale *= b_scale
        rows = d ** key[1]
        kron = [
            {r * rows + br: v * x for r, v in col.items() for br, x in b_col.items()}
            for col in kron
            for b_col in block
        ]
        if p is not None:
            kron = [{r: x % p for r, x in col.items()} for col in kron]
        in_order += sorted(comp.inputs)
        out_order += sorted(comp.outputs)
    row_of = _wire_indices(out_order, w.target, d)
    col_of = _wire_indices(in_order, w.source, d)
    n_cols = d**w.source
    cells = (
        (row_of[r] * n_cols + col_of[c], v) for c, col in enumerate(kron) for r, v in col.items()
    )
    return _decoded(a, d**w.target * n_cols, scale, cells)


def genus_series(a: FrobeniusAlgebraData) -> Iterator[Scalar]:
    """counit(H^g(unit)), the closed genus-g surface, for g = 0, 1, 2, ...,
    with H = mu . delta; H^g(unit) is kept from one genus to the next."""
    t = _int_tables(a)
    s = t.scales
    vec, scale = t.columns[Generator.CAP][0], s[Generator.CAP] * s[Generator.CUP]
    while True:
        value = _apply([vec], t.columns[Generator.CUP], t.prime)[0].get(0, 0)
        yield _scalar(value, scale, t.prime)
        vec = _apply([vec], t.handle, t.prime)[0]
        scale *= s[Generator.MERGE] * s[Generator.SPLIT]


def genus_scalar(genus: int, a: FrobeniusAlgebraData) -> Scalar:
    """counit(H^genus(unit)) with H = mu . delta, the closed genus-g surface."""
    t = _int_tables(a)
    scale, (col,) = _block(t, a.dim, 0, 0, genus)
    return _scalar(col.get(0, 0), scale, t.prime)


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
