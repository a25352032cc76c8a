import dataclasses
import functools
import random

import pytest

from tqft2d import (
    CobordismWord,
    ExactMatrix,
    FrobeniusAlgebraData,
    Generator,
    Layer,
    kron,
    make_field,
    matmul,
    registry_algebras,
)


@pytest.fixture(scope="session")
def registry() -> dict[str, FrobeniusAlgebraData]:
    return registry_algebras()


def mutate_entry(a: FrobeniusAlgebraData, rng: random.Random) -> FrobeniusAlgebraData:
    """Bump one random structure-tensor entry by one (always a real change)."""
    f = make_field(a.field)
    d = a.dim
    which = rng.choice(["mu", "delta", "unit", "counit"])
    if which in ("mu", "delta"):
        t = [[list(row) for row in plane] for plane in getattr(a, which)]
        i, j, k = rng.randrange(d), rng.randrange(d), rng.randrange(d)
        t[i][j][k] = f.normalize(t[i][j][k] + f.one)
        frozen = tuple(tuple(tuple(row) for row in plane) for plane in t)
        return dataclasses.replace(a, **{which: frozen})
    v = list(getattr(a, which))
    i = rng.randrange(d)
    v[i] = f.normalize(v[i] + f.one)
    return dataclasses.replace(a, **{which: tuple(v)})


def _generator_matrix(gen: Generator, a: FrobeniusAlgebraData) -> ExactMatrix:
    """The generator's d^out x d^in matrix read straight off the structure tensors."""
    d, f = a.dim, make_field(a.field)
    entry = {
        Generator.CAP: lambda r, c: a.unit[r],
        Generator.CUP: lambda r, c: a.counit[c],
        Generator.ID: lambda r, c: f.one if r == c else f.zero,
        Generator.MERGE: lambda r, c: a.mu[c // d][c % d][r],
        Generator.SPLIT: lambda r, c: a.delta[c][r // d][r % d],
        Generator.SWAP: lambda r, c: f.one if r == (c % d) * d + c // d else f.zero,
    }[gen]
    rows, cols = d**gen.n_out, d**gen.n_in
    entries = tuple(entry(r, c) for r in range(rows) for c in range(cols))
    return ExactMatrix(rows, cols, a.field, entries)


def reference_evaluate(w: CobordismWord, a: FrobeniusAlgebraData) -> ExactMatrix:
    """Dense evaluation: kron each layer's generators, matmul the layers in order.

    Independent of the library's sparse integer kernel; it shares only
    ``kron`` and ``matmul``.  Runs on unvalidated algebras too.
    """
    m = ExactMatrix.identity(a.dim**w.source, a.field)
    for k, layer in enumerate(w.layers):
        layer_matrix = functools.reduce(kron, (_generator_matrix(g, a) for g in layer.generators))
        m = layer_matrix if k == 0 else matmul(layer_matrix, m)
    return m


def _insert_identity_layer(w: CobordismWord, rng: random.Random) -> CobordismWord:
    widths = [w.source] + [layer.outputs for layer in w.layers]
    spots = [i for i, width in enumerate(widths) if width > 0]
    if not spots:
        return w
    k = rng.choice(spots)
    filler = Layer((Generator.ID,) * widths[k])
    return CobordismWord(w.layers[:k] + (filler,) + w.layers[k:], w.source)


def _split_layer(w: CobordismWord, rng: random.Random) -> CobordismWord:
    candidates = [i for i, layer in enumerate(w.layers) if len(layer.generators) >= 2]
    if not candidates:
        return w
    k = rng.choice(candidates)
    gens = w.layers[k].generators
    s = rng.randrange(1, len(gens))
    head, tail = gens[:s], gens[s:]
    first = Layer(head + (Generator.ID,) * sum(g.n_in for g in tail))
    second = Layer((Generator.ID,) * sum(g.n_out for g in head) + tail)
    return CobordismWord(w.layers[:k] + (first, second) + w.layers[k + 1 :], w.source)


def _insert_double_swap(w: CobordismWord, rng: random.Random) -> CobordismWord:
    widths = [w.source] + [layer.outputs for layer in w.layers]
    spots = [i for i, width in enumerate(widths) if width >= 2]
    if not spots:
        return w
    k = rng.choice(spots)
    width = widths[k]
    j = rng.randrange(width - 1)
    gens = (Generator.ID,) * j + (Generator.SWAP,) + (Generator.ID,) * (width - j - 2)
    twist = Layer(gens)
    return CobordismWord(w.layers[:k] + (twist, twist) + w.layers[k:], w.source)


_MOVES = (_insert_identity_layer, _split_layer, _insert_double_swap)


def equivalent_variant(w: CobordismWord, rng: random.Random) -> CobordismWord:
    """A different word of the same diffeomorphism class, by surface-preserving edits."""
    out = w
    for _ in range(rng.randint(1, 4)):
        out = rng.choice(_MOVES)(out, rng)
    return out
