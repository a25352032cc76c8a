"""Cobordism words: layered sequences of the six generator symbols.

A word is a morphism of the skeleton of the 2-dimensional cobordism
category: objects are circle counts, layers are read left to right
(the first layer consumes the word's input circles), and wires within
a layer are numbered top to bottom.  Equivalence of words is decided
by the complete topological invariant (per connected component: the
set of input circles, the set of output circles, and the genus), not
by diagram rewriting.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class Generator(enum.Enum):
    """The six elementary cobordisms with their fixed arities."""

    CAP = ("cap", 0, 1)
    CUP = ("cup", 1, 0)
    ID = ("id", 1, 1)
    MERGE = ("mu", 2, 1)
    SPLIT = ("delta", 1, 2)
    SWAP = ("swap", 2, 2)

    def __init__(self, keyword: str, n_in: int, n_out: int) -> None:
        self.keyword = keyword
        self.n_in = n_in
        self.n_out = n_out


class BoundaryMismatch(ValueError):
    """Adjacent boundaries disagree (composition or layer chaining)."""

    def __init__(
        self, expected: int, got: int, where: str = "compose", layer: int | None = None
    ) -> None:
        super().__init__(f"{where}: expected {expected} circles, got {got}")
        self.expected = expected
        self.got = got
        self.layer = layer  # index of the offending layer when chaining


class InternalInvariantViolation(AssertionError):
    """A well-formed word produced an impossible Euler characteristic."""


@dataclass(frozen=True)
class Layer:
    """One parallel slice of generators, top to bottom."""

    generators: tuple[Generator, ...]
    # Summed once here: every word built from the layer reads them.
    inputs: int = field(init=False, repr=False, compare=False)
    outputs: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("a layer must contain at least one generator")
        object.__setattr__(self, "inputs", sum(g.n_in for g in self.generators))
        object.__setattr__(self, "outputs", sum(g.n_out for g in self.generators))


@dataclass(frozen=True)
class CobordismWord:
    """A composable sequence of layers with an explicit source count.

    An empty layer sequence is the identity cobordism on ``source``
    circles.  Layer arities are chained and checked at construction.
    """

    layers: tuple[Layer, ...]
    source: int
    # The ComponentProfile, built on first use by decompose_components.
    _profile: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.source < 0:
            raise ValueError(f"source must be >= 0, got {self.source}")
        width = self.source
        for i, layer in enumerate(self.layers):
            if layer.inputs != width:
                raise BoundaryMismatch(width, layer.inputs, f"layer {i}", layer=i)
            width = layer.outputs

    @property
    def target(self) -> int:
        if not self.layers:
            return self.source
        return self.layers[-1].outputs


def word(layers: Iterable[Sequence[Generator]], source: int | None = None) -> CobordismWord:
    """Build a word from generator sequences; source inferred when possible."""
    packed = tuple(Layer(tuple(l)) for l in layers)
    if source is None:
        if not packed:
            raise ValueError("source count required for a word with no layers")
        source = packed[0].inputs
    return CobordismWord(packed, source)


def identity(n: int) -> CobordismWord:
    """The identity cobordism on n circles (no layers)."""
    return CobordismWord((), n)


def compose(w1: CobordismWord, w2: CobordismWord) -> CobordismWord:
    """w1 followed by w2; boundaries must agree."""
    if w1.target != w2.source:
        raise BoundaryMismatch(w1.target, w2.source)
    return CobordismWord(w1.layers + w2.layers, w1.source)


def tensor(*ws: CobordismWord) -> CobordismWord:
    """Parallel placement, each word's wires above those of the next.

    Shorter operands are padded with identity layers on their targets
    so all have equal layer counts before being laid side by side.
    The tensor of no words is ``identity(0)``.
    """
    depth = max((len(w.layers) for w in ws), default=0)
    padded = [(w.layers, (Generator.ID,) * w.target) for w in ws]
    combined: list[Layer] = []
    for i in range(depth):
        gens: list[Generator] = []
        for layers, pad in padded:
            gens.extend(layers[i].generators if i < len(layers) else pad)
        combined.append(Layer(tuple(gens)))
    return CobordismWord(tuple(combined), sum(w.source for w in ws))


@dataclass(frozen=True)
class Component:
    """One connected piece: boundary circle sets and genus."""

    inputs: frozenset[int]
    outputs: frozenset[int]
    genus: int


_NO_CIRCLE = 1 << 60


def _component_key(c: Component) -> tuple:
    return (
        min(c.inputs) if c.inputs else _NO_CIRCLE,
        min(c.outputs) if c.outputs else _NO_CIRCLE,
        c.genus,
        tuple(sorted(c.inputs)),
        tuple(sorted(c.outputs)),
    )


@dataclass(frozen=True)
class ComponentProfile:
    """Complete invariant: the multiset of components in canonical order.

    Closed components (empty boundary sets) may repeat, so the profile
    keeps multiplicity rather than collapsing to a set.
    """

    components: tuple[Component, ...]

    @staticmethod
    def of(components: Iterable[Component]) -> "ComponentProfile":
        return ComponentProfile(tuple(sorted(components, key=_component_key)))


class _UnionFind:
    def __init__(self) -> None:
        self.parent: list[int] = []
        self.chi: list[int] = []

    def make(self, chi: int) -> int:
        self.parent.append(len(self.parent))
        self.chi.append(chi)
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.chi[ra] += self.chi[rb]


def decompose_components(w: CobordismWord) -> ComponentProfile:
    """Connected components with genus via the Euler characteristic.

    Cap/Cup/Merge/Split occurrences are surface nodes contributing
    +1/+1/-1/-1 to chi; Id and Swap are plain wires (a swap crosses
    two disjoint cylinders and never merges components).  For each
    component with b boundary circles, genus = (2 - chi - b) / 2.
    The profile is memoised on the word instance.
    """
    if w._profile is None:
        object.__setattr__(w, "_profile", _decompose(w))
    return w._profile  # type: ignore[return-value]


def _decompose(w: CobordismWord) -> ComponentProfile:
    uf = _UnionFind()
    in_elem = [uf.make(0) for _ in range(w.source)]
    cur = list(in_elem)
    for layer in w.layers:
        nxt: list[int] = []
        pos = 0
        for gen in layer.generators:
            if gen is Generator.ID:
                nxt.append(cur[pos])
                pos += 1
            elif gen is Generator.SWAP:
                nxt.append(cur[pos + 1])
                nxt.append(cur[pos])
                pos += 2
            elif gen is Generator.CAP:
                nxt.append(uf.make(1))
            elif gen is Generator.CUP:
                e = uf.make(1)
                uf.union(cur[pos], e)
                pos += 1
            elif gen is Generator.MERGE:
                e = uf.make(-1)
                uf.union(cur[pos], e)
                uf.union(cur[pos + 1], e)
                nxt.append(e)
                pos += 2
            elif gen is Generator.SPLIT:
                e = uf.make(-1)
                uf.union(cur[pos], e)
                nxt.append(e)
                nxt.append(e)
                pos += 1
            else:  # pragma: no cover
                raise AssertionError(gen)
        cur = nxt

    roots: dict[int, tuple[set[int], set[int]]] = {}
    for elem in range(len(uf.parent)):
        roots.setdefault(uf.find(elem), (set(), set()))
    for i, elem in enumerate(in_elem):
        roots[uf.find(elem)][0].add(i)
    for j, elem in enumerate(cur):
        roots[uf.find(elem)][1].add(j)

    components = []
    for root, (ins, outs) in roots.items():
        chi = uf.chi[root]
        b = len(ins) + len(outs)
        rem = 2 - chi - b
        if rem < 0 or rem % 2 != 0:
            raise InternalInvariantViolation(
                f"impossible component: chi={chi}, boundary={b}"
            )
        components.append(Component(frozenset(ins), frozenset(outs), rem // 2))
    return ComponentProfile.of(components)


def is_equivalent(w1: CobordismWord, w2: CobordismWord) -> bool:
    """Diffeomorphism-class equality of the underlying surfaces."""
    if (w1.source, w1.target) != (w2.source, w2.target):
        return False
    return decompose_components(w1) == decompose_components(w2)


def _connected_block(m: int, n: int, genus: int) -> CobordismWord:
    """Canonical connected word with m inputs, n outputs, given genus."""
    layers: list[list[Generator]] = []
    if m == 0:
        layers.append([Generator.CAP])
    else:
        for k in range(m - 1):
            layers.append([Generator.MERGE] + [Generator.ID] * (m - 2 - k))
    for _ in range(genus):
        layers.append([Generator.SPLIT])
        layers.append([Generator.MERGE])
    if n == 0:
        layers.append([Generator.CUP])
    else:
        for k in range(n - 1):
            layers.append([Generator.ID] * k + [Generator.SPLIT])
    if not layers:
        return identity(m)
    return word(layers, source=m)


def _permutation_layers(current: list[int], target: list[int]) -> list[Layer]:
    """Swap layers rearranging wire labels from `current` to `target` order.

    Odd-even transposition sort: deterministic, one layer per pass of
    disjoint adjacent swaps.
    """
    assert sorted(current) == sorted(target)
    n = len(current)
    pos = {label: i for i, label in enumerate(target)}
    cur = list(current)
    layers: list[Layer] = []
    for sweep in range(n):
        swapped_at: list[int] = []
        i = sweep % 2
        while i + 1 < n:
            if pos[cur[i]] > pos[cur[i + 1]]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                swapped_at.append(i)
            i += 2
        if swapped_at:
            gens: list[Generator] = []
            j = 0
            while j < n:
                if j in swapped_at:
                    gens.append(Generator.SWAP)
                    j += 2
                else:
                    gens.append(Generator.ID)
                    j += 1
            layers.append(Layer(tuple(gens)))
        if cur == target:
            break
    assert cur == target
    return layers


def normal_form(w: CobordismWord) -> CobordismWord:
    """Deterministic canonical word equivalent to w.

    Components are laid out in parallel in canonical profile order,
    each rendered as merges, then genus handles (split;merge), then
    splits; swap layers realize the boundary permutations on both
    sides.  Idempotent, and always equivalent to the input.
    """
    profile = decompose_components(w)
    comps = profile.components
    blocks = [_connected_block(len(c.inputs), len(c.outputs), c.genus) for c in comps]
    core = tensor(*blocks)

    in_order = [i for c in comps for i in sorted(c.inputs)]
    out_order = [j for c in comps for j in sorted(c.outputs)]
    pre = _permutation_layers(list(range(w.source)), in_order)
    post = _permutation_layers(out_order, list(range(w.target)))

    result = compose(CobordismWord(tuple(pre), w.source), core)
    return compose(result, CobordismWord(tuple(post), w.target))


def random_word(seed: int, max_width: int, max_layers: int) -> CobordismWord:
    """Seed-deterministic well-formed word with widths <= max_width."""
    if max_width < 1:
        raise ValueError(f"max_width must be >= 1, got {max_width}")
    rng = random.Random(seed)
    n_layers = rng.randint(1, max(1, max_layers))
    width = rng.randint(0, max_width)
    source = width
    layers: list[list[Generator]] = []
    for _ in range(n_layers):
        gens: list[Generator] = []
        produced = 0
        pos = 0
        if width == 0:
            for _ in range(rng.randint(1, max_width)):
                gens.append(Generator.CAP)
                produced += 1
        while pos < width:
            choices = []
            remaining = width - pos
            if produced + 1 <= max_width:
                choices += [Generator.ID] * 3 + [Generator.CAP]
            if produced + 2 <= max_width:
                choices.append(Generator.SPLIT)
            choices.append(Generator.CUP)
            if remaining >= 2:
                if produced + 1 <= max_width:
                    choices.append(Generator.MERGE)
                if produced + 2 <= max_width:
                    choices.append(Generator.SWAP)
            gen = rng.choice(choices)
            gens.append(gen)
            produced += gen.n_out
            if gen is not Generator.CAP:
                pos += gen.n_in
        layers.append(gens)
        width = produced
    return word(layers, source=source)
