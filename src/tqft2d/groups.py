"""Finite groups as multiplication tables, plus the surface oracle.

The oracle counts tuples ``(a_1, b_1, ..., a_g, b_g)`` whose commutator
product is the identity; divided by ``|G|`` this is the genus-``g``
partition function that the tensor evaluator must reproduce on the
center-of-group-algebra construction.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice, product as iproduct
from typing import Iterator, Sequence

MAX_GENUS = 1000


class GroupTableError(ValueError):
    """The supplied table is not a group."""


class UnknownGroupName(ValueError):
    pass


class EnumerationTooLarge(ValueError):
    """The requested genus exceeds ``MAX_GENUS``."""


@dataclass(frozen=True)
class FiniteGroup:
    """A group given by its full multiplication table over indices 0..n-1.

    Group axioms (closure, identity, inverses, associativity) are
    verified at construction; the associativity sweep is O(n^3).
    """

    table: tuple[tuple[int, ...], ...]
    identity: int
    names: tuple[str, ...] | None = None
    _inverse: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.table)
        if n == 0:
            raise GroupTableError("empty multiplication table")
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise GroupTableError(f"row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not (0 <= x < n):
                    raise GroupTableError(f"table entry {x} out of range [0, {n})")
        e = self.identity
        if not (0 <= e < n):
            raise GroupTableError(f"identity index {e} out of range")
        for a in range(n):
            if self.table[e][a] != a or self.table[a][e] != a:
                raise GroupTableError(f"index {e} is not a two-sided identity at {a}")
        inverse = [-1] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == e and self.table[b][a] == e:
                    inverse[a] = b
                    break
            else:
                raise GroupTableError(f"element {a} has no two-sided inverse")
        t = self.table
        for a in range(n):
            ta = t[a]
            for b in range(n):
                tab = ta[b]
                tb = t[b]
                for c in range(n):
                    if t[tab][c] != ta[tb[c]]:
                        raise GroupTableError(f"associativity fails at ({a}, {b}, {c})")
        object.__setattr__(self, "_inverse", tuple(inverse))
        if self.names is not None and len(self.names) != n:
            raise GroupTableError("names length does not match group order")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))

    def name_of(self, a: int) -> str:
        return self.names[a] if self.names is not None else str(a)


def from_mul(order: int, mul, identity: int, names: Sequence[str] | None = None) -> FiniteGroup:
    table = tuple(tuple(mul(a, b) for b in range(order)) for a in range(order))
    return FiniteGroup(table, identity, tuple(names) if names is not None else None)


def cyclic(n: int) -> FiniteGroup:
    """C_n, elements 0..n-1 under addition mod n."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    return from_mul(n, lambda a, b: (a + b) % n, 0, [f"g{k}" for k in range(n)])


def product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product; element (a, b) is packed as a*|H| + b."""
    m = h.order

    def mul(x: int, y: int) -> int:
        a1, b1 = divmod(x, m)
        a2, b2 = divmod(y, m)
        return g.mul(a1, a2) * m + h.mul(b1, b2)

    names = [f"({g.name_of(a)},{h.name_of(b)})" for a in range(g.order) for b in range(m)]
    return from_mul(g.order * m, mul, g.identity * m + h.identity, names)


def _symmetric3() -> FiniteGroup:
    perms = sorted(iproduct(range(3), repeat=3))
    perms = [p for p in perms if len(set(p)) == 3]

    def mul(i: int, j: int) -> int:
        p, q = perms[i], perms[j]
        return perms.index(tuple(p[q[k]] for k in range(3)))

    names = ["".join(str(x) for x in p) for p in perms]
    return from_mul(6, mul, perms.index((0, 1, 2)), names)


def _dihedral4() -> FiniteGroup:
    # element a + 4f stands for r^a s^f with s r = r^-1 s
    def mul(x: int, y: int) -> int:
        a, f = x % 4, x // 4
        b, g = y % 4, y // 4
        rot = (a + b) % 4 if f == 0 else (a - b) % 4
        return rot + 4 * ((f + g) % 2)

    names = ["e", "r", "r2", "r3", "s", "sr", "sr2", "sr3"]
    return from_mul(8, mul, 0, names)


def _quaternion8() -> FiniteGroup:
    # element u + 4s stands for (-1)^s * basis[u] with basis 1, i, j, k
    sign = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def mul(x: int, y: int) -> int:
        u, s = x % 4, x // 4
        v, t = y % 4, y // 4
        sg, w = sign[(u, v)]
        total = (s + t + (1 if sg < 0 else 0)) % 2
        return w + 4 * total

    names = ["1", "i", "j", "k", "-1", "-i", "-j", "-k"]
    return from_mul(8, mul, 0, names)


_BUILTINS = {"S3": _symmetric3, "D4": _dihedral4, "Q8": _quaternion8}


def builtin(name: str) -> FiniteGroup:
    key = name.strip().upper()
    if key not in _BUILTINS:
        raise UnknownGroupName(f"unknown group {name!r}; known: {sorted(_BUILTINS)}")
    return _BUILTINS[key]()


def conjugacy_classes(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugation orbits: identity's class first, then by smallest member."""
    n = g.order
    seen = [False] * n
    classes: list[tuple[int, ...]] = []
    for a in range(n):
        if seen[a]:
            continue
        orbit = {g.mul(g.mul(x, a), g.inv(x)) for x in range(n)}
        for b in orbit:
            seen[b] = True
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (g.identity not in c, min(c)))
    return tuple(classes)


def _check_genus(genus: int) -> None:
    if genus > MAX_GENUS:
        raise EnumerationTooLarge(f"genus {genus} exceeds the cap of {MAX_GENUS}")


def _commutator_counts(g: FiniteGroup) -> Iterator[int]:
    """commutator_count(g, genus) for genus = 0, 1, ..., MAX_GENUS; asking
    for the next one raises :class:`EnumerationTooLarge`.

    One convolution per handle: ``ways`` maps each partial product
    [a_1, b_1]...[a_k, b_k] to the number of 2k-tuples that reach it,
    and each handle convolves it with the histogram of commutators
    [a, b], so genus g costs O(g * n^2) rather than n^(2*g).
    """
    n = g.order
    t = g.table
    inv = g._inverse
    comms = Counter(t[t[t[a][b]][inv[a]]][inv[b]] for a in range(n) for b in range(n))
    ways = Counter({g.identity: 1})
    for genus in count():
        _check_genus(genus)
        yield ways[g.identity]
        step: Counter[int] = Counter()
        for x, k in ways.items():
            row = t[x]
            for c, m in comms.items():
                step[row[c]] += k * m
        ways = step


def commutator_count(g: FiniteGroup, genus: int) -> int:
    """Number of 2*genus-tuples whose commutator product is the identity."""
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    _check_genus(genus)
    return next(islice(_commutator_counts(g), genus, None))


def dw_partition(g: FiniteGroup, genus: int) -> Fraction:
    """Exact genus-g partition function: commutator_count / |G|."""
    return Fraction(commutator_count(g, genus), g.order)


def dw_series(g: FiniteGroup) -> Iterator[Fraction]:
    """dw_partition(g, genus) for genus = 0, 1, ..., MAX_GENUS, one handle
    apart; asking for the next one raises :class:`EnumerationTooLarge`."""
    return (Fraction(c, g.order) for c in _commutator_counts(g))


def group_to_json(g: FiniteGroup) -> dict:
    doc: dict = {
        "order": g.order,
        "table": [list(row) for row in g.table],
        "identity": g.identity,
    }
    if g.names is not None:
        doc["names"] = list(g.names)
    return doc


def group_from_json(doc: object) -> FiniteGroup:
    if not isinstance(doc, dict):
        raise GroupTableError("group JSON must be an object")
    try:
        order = doc["order"]
        table = doc["table"]
        identity = doc["identity"]
    except KeyError as exc:
        raise GroupTableError(f"group JSON missing key {exc}") from exc
    if not isinstance(order, int) or not isinstance(table, list):
        raise GroupTableError("bad group JSON field types")
    if len(table) != order:
        raise GroupTableError(f"declared order {order} but table has {len(table)} rows")
    names = doc.get("names")
    return FiniteGroup(
        tuple(tuple(int(x) for x in row) for row in table),
        int(identity),
        tuple(str(s) for s in names) if names is not None else None,
    )


def load_group(path: str) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_json(json.load(fh))
