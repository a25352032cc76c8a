"""The four seeded workloads of the tqft2d benchmark.

A workload is a fixed list of slots. One round sends every slot once, in
an order the seed shuffles, so any whole number of rounds carries the
same op mix for every seed. The seed draws only the concrete input of a
slot: word contents, variant edits, the mutated entry. Slot sizes
(depth, width, dimension, genus, group, algebra) are fixed, because the
per-op cost has to depend on the slot and not on the seed for the
metrics to agree across seeds. Each slot has ``copies`` inputs; the run
cycles through them, so every input recurs in a run and a slot's cost is
averaged over several drawn inputs.

Every workload has 5 mod 10 slots (15 or 25). Since every slot sends the
same number of ops, the median then falls in the middle of one slot's ops
(the 8th cheapest of 15) and so does p90 (the 14th), instead of on the
step between two slots, where it would swing with small cost changes.

Everything the program sees is generated here. Calls into tqft2d go
through module attributes (``dsl.parse``, ``cli.main``), so the traced
run, which rebinds those attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from tqft2d import cli, dsl, evaluator, fields, frobenius, groups, words
from tqft2d.words import CobordismWord, Generator, Layer

# The validation cache itself, kept so that clearing it bypasses any
# wrapper the traced run installs.
VALIDATION_CACHE = frobenius.cached_check_all

F7 = fields.FieldSpec(prime=7)


class CheckFailed(Exception):
    """An op's output disagrees with what is known independently."""


@dataclass(frozen=True)
class Op:
    key: str  # one distinct input; repeats of a key must give equal outputs
    slot: int
    payload: tuple
    expect: object  # exit code or equivalence known by construction


def _text(w: CobordismWord) -> str:
    """Plain DSL text of a word, one keyword per generator."""
    return " ; ".join(" | ".join(g.keyword for g in layer.generators) for layer in w.layers)


def _cli(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return [rc, out.getvalue(), err.getvalue()]


def _digits(index: int, d: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        index, r = divmod(index, d)
        out.append(r)
    return out


def _closed_scalar_check(w: CobordismWord, a, matrix: dict) -> None:
    """counit^t . M . unit^s must equal the closed surface cap^s ; w ; cup^t.

    The right side is a product of genus invariants (the handle operator,
    not the layer evaluator) over the closed word's components.
    """
    f = fields.make_field(a.field)
    d, s, t = a.dim, w.source, w.target
    if (matrix["rows"], matrix["cols"]) != (d**t, d**s):
        raise CheckFailed(f"shape {matrix['rows']}x{matrix['cols']} for {t}<-{s} wires")

    def tensor_power(vec, n):
        out = []
        for i in range(d**n):
            x = f.one
            for digit in _digits(i, d, n):
                x = x * vec[digit]
            out.append(x)
        return out

    eta, eps = tensor_power(a.unit, s), tensor_power(a.counit, t)
    lhs = f.zero
    for r, row in enumerate(matrix["entries"]):
        if eps[r]:
            lhs += eps[r] * sum(f.parse(x) * eta[c] for c, x in enumerate(row) if eta[c])
    layers = w.layers
    if s:
        layers = (Layer((Generator.CAP,) * s),) + layers
    if t:
        layers = layers + (Layer((Generator.CUP,) * t),)
    closed = CobordismWord(layers, 0)
    rhs = f.one
    invariants: dict[int, object] = {}
    for comp in words.decompose_components(closed).components:
        if comp.genus not in invariants:
            invariants[comp.genus] = evaluator.genus_invariant(comp.genus, a)
        rhs = rhs * invariants[comp.genus]
    if f.normalize(lhs) != f.normalize(rhs):
        raise CheckFailed(f"closed scalar {f.normalize(lhs)} != product of invariants {rhs}")


def matrix_facts(matrix: dict) -> dict:
    """Counts over one output matrix, for the computed per-layer metrics."""
    entries = nonzeros = nonint = bits = 0
    for row in matrix["entries"]:
        for x in row:
            entries += 1
            if x != "0":
                nonzeros += 1
            num, _, den = x.partition("/")
            if den:
                nonint += 1
            bits = max(bits, abs(int(num)).bit_length(), int(den or 1).bit_length())
    return {"entries": entries, "nonzeros": nonzeros, "nonint": nonint, "max_bits": bits}


class Workload:
    name = ""
    copies = 4  # distinct inputs per slot
    clears_cache = False  # cache policy: clear cached_check_all before each op
    slots: tuple = ()

    def rounds(self, seed: int) -> list[list[Op]]:
        """Every op input, grouped in rounds of one op per slot."""
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for copy in range(self.copies):
            ops = [self.make_op(rng, f"r{copy}s{i}", i, slot) for i, slot in enumerate(self.slots)]
            rng.shuffle(ops)
            out.append(ops)
        return out

    def make_op(self, rng: random.Random, key: str, index: int, slot) -> Op:
        raise NotImplementedError

    def setup(self, rounds: list[list[Op]], work_dir: str) -> dict:
        """Build and validate algebras and groups, write input files."""
        raise NotImplementedError

    def run(self, op: Op, ctx: dict):
        raise NotImplementedError

    def check(self, op: Op, output, ctx: dict) -> None:
        """Independent check of one output; raises CheckFailed."""
        raise NotImplementedError

    def facts(self, op: Op, output, ctx: dict) -> dict:
        """Counts derived from inputs and outputs for the per-layer metrics."""
        return {}


# ---------------------------------------------------------------------------
# eval_dense


def _algebra(spec: str, field: fields.FieldSpec = fields.RATIONAL):
    """An algebra from a registry spec, built the way the CLI builds it."""
    return cli._read_algebra(spec, field)


def _validated(algebras: dict) -> dict:
    """Validate through the cache, so that library ops find it warm."""
    for a in algebras.values():
        if not frobenius.cached_check_all(a).ok:
            raise RuntimeError("benchmark algebra fails validation")
    return algebras


def _dense_layer(rng: random.Random, a: int, n_mu: int, n_delta: int) -> str:
    rest = a - 2 * n_mu - n_delta
    n_swap = rng.randint(0, rest // 2)
    items = ["mu"] * n_mu + ["delta"] * n_delta + ["swap"] * n_swap + ["id"] * (rest - 2 * n_swap)
    rng.shuffle(items)
    return " | ".join(items)


def _connected_dense_word(rng: random.Random, profile, tries: int) -> str | None:
    for _ in range(tries):
        text = " ; ".join(_dense_layer(rng, *layer) for layer in profile)
        if len(words.decompose_components(dsl.parse(text)).components) == 1:
            return text
    return None


@functools.lru_cache(maxsize=None)
def _dense_profile(slot: tuple) -> list[tuple[int, int, int]]:
    """Per-layer (inputs, merges, splits) of one slot, the same for every seed.

    A profile is kept only if random fillings of it are often connected.
    """
    _, s, t, wmax, depth = slot
    rng = random.Random(f"eval_dense-profile:{slot}")
    while True:
        widths = [s] + [rng.randint(2, wmax) for _ in range(depth - 1)] + [t]
        if max(widths) != wmax:
            continue
        if any(not ((a + 1) // 2 <= b <= 2 * a) for a, b in zip(widths, widths[1:])):
            continue
        layers = []
        for a, b in zip(widths, widths[1:]):
            n_mu = rng.randint(max(0, a - b), (2 * a - b) // 3)
            layers.append((a, n_mu, n_mu + b - a))
        probe = random.Random(f"eval_dense-probe:{slot}")
        if sum(_connected_dense_word(probe, layers, 1) is not None for _ in range(20)) >= 4:
            return layers


class EvalDense(Workload):
    """Library session: parse -> evaluate -> matrix_to_json on connected dense words."""

    name = "eval_dense"
    copies = 12
    algebras = {
        "c3": "group_algebra(cyclic(3))",
        "zS3": "group_center(S3)",
        "tp3": "truncated_poly(3)",
        "c2": "group_algebra(cyclic(2))",
        "c4": "group_algebra(cyclic(4))",
    }
    # (algebra, source, target, max width, depth)
    slots = (
        ("c3", 3, 3, 4, 8),
        ("c3", 4, 4, 4, 4),
        ("c3", 3, 3, 5, 12),
        ("c3", 3, 2, 5, 16),
        ("zS3", 3, 3, 4, 8),
        ("zS3", 4, 3, 4, 6),
        ("zS3", 2, 3, 5, 14),
        ("zS3", 2, 2, 5, 16),
        ("tp3", 4, 4, 5, 16),
        ("tp3", 4, 4, 4, 8),
        ("c2", 4, 4, 5, 16),
        ("c2", 5, 5, 5, 12),
        ("c2", 3, 3, 5, 10),
        ("c4", 2, 2, 4, 8),
        ("c4", 3, 3, 3, 10),
    )

    def make_op(self, rng, key, index, slot):
        text = _connected_dense_word(rng, _dense_profile(slot), 1000)
        if text is None:
            raise RuntimeError(f"eval_dense slot {index} yields no connected word")
        return Op(key, index, (slot[0], text), None)

    def setup(self, rounds, work_dir):
        return _validated({name: _algebra(spec) for name, spec in self.algebras.items()})

    def run(self, op, ctx):
        alg, text = op.payload
        return evaluator.matrix_to_json(evaluator.evaluate(dsl.parse(text), ctx[alg]))

    def check(self, op, output, ctx):
        alg, text = op.payload
        _closed_scalar_check(dsl.parse(text), ctx[alg], output)

    def facts(self, op, output, ctx):
        return matrix_facts(output)


# ---------------------------------------------------------------------------
# word_deep


def _insert_identity_layer(w: CobordismWord, rng: random.Random) -> CobordismWord:
    widths = [w.source] + [layer.outputs for layer in w.layers]
    spots = [i for i, width in enumerate(widths) if width > 0]
    k = rng.choice(spots)
    filler = Layer((Generator.ID,) * widths[k])
    return CobordismWord(w.layers[:k] + (filler,) + w.layers[k:], w.source)


def _split_layer(w: CobordismWord, rng: random.Random) -> CobordismWord:
    candidates = [i for i, layer in enumerate(w.layers) if len(layer.generators) >= 2]
    if not candidates:
        return _insert_identity_layer(w, rng)
    k = rng.choice(candidates)
    gens = w.layers[k].generators
    cut = rng.randrange(1, len(gens))
    head, tail = gens[:cut], gens[cut:]
    first = Layer(head + (Generator.ID,) * sum(g.n_in for g in tail))
    second = Layer((Generator.ID,) * sum(g.n_out for g in head) + tail)
    return CobordismWord(w.layers[:k] + (first, second) + w.layers[k + 1 :], w.source)


def _insert_double_swap(w: CobordismWord, rng: random.Random) -> CobordismWord:
    widths = [w.source] + [layer.outputs for layer in w.layers]
    spots = [i for i, width in enumerate(widths) if width >= 2]
    if not spots:
        return _insert_identity_layer(w, rng)
    k = rng.choice(spots)
    j = rng.randrange(widths[k] - 1)
    gens = (Generator.ID,) * j + (Generator.SWAP,) + (Generator.ID,) * (widths[k] - j - 2)
    twist = Layer(gens)
    return CobordismWord(w.layers[:k] + (twist, twist) + w.layers[k:], w.source)


def _add_handle(w: CobordismWord, rng: random.Random) -> CobordismWord:
    """Split one circle and merge it back: its component gains a handle."""
    widths = [w.source] + [layer.outputs for layer in w.layers]
    k = rng.choice([i for i, width in enumerate(widths) if width > 0])
    j = rng.randrange(widths[k])
    left, right = (Generator.ID,) * j, (Generator.ID,) * (widths[k] - j - 1)
    handle = (Layer(left + (Generator.SPLIT,) + right), Layer(left + (Generator.MERGE,) + right))
    return CobordismWord(w.layers[:k] + handle + w.layers[k:], w.source)


_SAME_SURFACE_EDITS = (_insert_identity_layer, _split_layer, _insert_double_swap)


class WordDeep(Workload):
    """parse, is_equivalent against a variant, normal_form, evaluate on deep narrow words."""

    name = "word_deep"
    copies = 6
    algebras = {"c3": fields.RATIONAL, "c3_f7": F7}  # group_algebra(cyclic(3)) over each
    # (layers, source wires, algebra, variant is equivalent); random_word(seed, 4, layers).
    # Roughly in cost order; the 7th to 10th cost about the same, so the
    # median does not hang on the words drawn for one slot. The last slot
    # is longer than the rest, so that its words, whose cost varies most,
    # stay clear of p90 (the 14th slot).
    slots = (
        (200, 3, "c3_f7", False),
        (200, 2, "c3", True),
        (300, 2, "c3", False),
        (400, 3, "c3_f7", True),
        (400, 2, "c3", False),
        (550, 3, "c3_f7", True),
        (700, 1, "c3", True),
        (850, 3, "c3_f7", False),
        (1200, 1, "c3_f7", True),
        (850, 1, "c3", False),
        (1000, 1, "c3", False),
        (1400, 1, "c3_f7", False),
        (2000, 2, "c3_f7", True),
        (2000, 1, "c3", False),
        (3000, 2, "c3", True),
    )

    def make_op(self, rng, key, index, slot):
        layers, source, alg, equivalent = slot
        w = self._random_word(rng, layers, source)
        if equivalent:
            variant = w
            for _ in range(rng.randint(1, 4)):
                variant = rng.choice(_SAME_SURFACE_EDITS)(variant, rng)
        else:
            variant = _add_handle(w, rng)
        return Op(key, index, (alg, _text(w), _text(variant)), equivalent)

    @staticmethod
    def _random_word(rng, layers, source):
        """random_word(s, 4, layers) for a seed s whose word has nearly `layers`
        layers and exactly `source` inputs, so the slot's size is fixed.

        random_word draws its layer count and then its source width first;
        replaying those two draws skips most seeds without building words.
        """
        for _ in range(200000):
            seed = rng.getrandbits(32)
            probe = random.Random(seed)
            if probe.randint(1, layers) < 0.9 * layers or probe.randint(0, 4) != source:
                continue
            w = words.random_word(seed, 4, layers)
            if len(w.layers) >= 0.9 * layers and w.source == source:
                return w
        raise RuntimeError(f"no random_word with {layers} layers and {source} inputs")

    def setup(self, rounds, work_dir):
        return _validated(
            {name: _algebra("group_algebra(cyclic(3))", field) for name, field in self.algebras.items()}
        )

    def run(self, op, ctx):
        alg, text, variant_text = op.payload
        w = dsl.parse(text)
        equivalent = words.is_equivalent(w, dsl.parse(variant_text))
        nf = dsl.format_word(words.normal_form(w))
        matrix = evaluator.matrix_to_json(evaluator.evaluate(w, ctx[alg]))
        return [equivalent, nf, matrix]

    def check(self, op, output, ctx):
        equivalent, nf_text, matrix = output
        if equivalent is not op.expect:
            raise CheckFailed(f"is_equivalent gave {equivalent}, built as {op.expect}")
        alg, text, _ = op.payload
        w, nf = dsl.parse(text), dsl.parse(nf_text)
        if not words.is_equivalent(nf, w):
            raise CheckFailed("normal form is not equivalent to its word")
        if words.normal_form(nf) != nf:
            raise CheckFailed("normal form is not idempotent")
        _closed_scalar_check(w, ctx[alg], matrix)

    def facts(self, op, output, ctx):
        nf = dsl.parse(output[1])
        nf_width = max([nf.source] + [layer.outputs for layer in nf.layers])
        return {"nf_width": nf_width, **matrix_facts(output[2])}


# ---------------------------------------------------------------------------
# algebra_check

_ALGEBRA_SPECS = {
    # name: (registry spec, dimension)
    "tp4": ("truncated_poly(4)", 4),
    "tp6": ("truncated_poly(6)", 6),
    "tp8": ("truncated_poly(8)", 8),
    "tp10": ("truncated_poly(10)", 10),
    "tp12": ("truncated_poly(12)", 12),
    "c4": ("group_algebra(cyclic(4))", 4),
    "c2xc2": ("group_algebra(product(cyclic(2),cyclic(2)))", 4),
    "c6": ("group_algebra(cyclic(6))", 6),
    "c8": ("group_algebra(cyclic(8))", 8),
    "c2xc4": ("group_algebra(product(cyclic(2),cyclic(4)))", 8),
    "zD4": ("group_center(D4)", 5),
    "zQ8": ("group_center(Q8)", 5),
}


def _mutation(rng: random.Random, d: int) -> tuple:
    """One +1 bump that an axiom check must catch whatever the algebra.

    unit and counit bumps break a unit or counit law; mu[i][j][k] and
    delta[x][i][j] bumps with i != j break (co)commutativity.
    """
    which = rng.choice(["mu", "delta", "unit", "counit"])
    if which in ("unit", "counit"):
        return (which, rng.randrange(d))
    i, j = rng.sample(range(d), 2)
    k = rng.randrange(d)
    return ("mu", i, j, k) if which == "mu" else ("delta", k, i, j)


def _bump(doc: dict, mutation: tuple) -> dict:
    doc = json.loads(json.dumps(doc))
    which, *index = mutation
    holder = doc[which]
    for i in index[:-1]:
        holder = holder[i]
    value = Fraction(holder[index[-1]]) + 1
    holder[index[-1]] = int(value) if value.denominator == 1 else str(value)
    return doc


class AlgebraCheck(Workload):
    """cli validate / relations, d = 4..12, registry specs and JSON files; caches cleared per op."""

    name = "algebra_check"
    copies = 2
    clears_cache = True
    # (command, source, algebra); "derived" JSON omits delta, "mutant"
    # JSON carries one bumped entry and must exit 1.
    slots = (
        ("validate", "spec", "tp4"),
        ("validate", "spec", "zD4"),
        ("relations", "spec", "zQ8"),
        ("relations", "derived", "c2xc2"),
        ("validate", "mutant", "c4"),
        ("relations", "mutant", "tp6"),
        ("validate", "derived", "c6"),
        ("validate", "mutant", "c6"),
        ("validate", "spec", "tp8"),
        ("relations", "spec", "c8"),
        ("validate", "json", "c2xc4"),
        ("relations", "mutant", "tp8"),
        ("relations", "json", "tp10"),
        ("relations", "spec", "tp12"),
        ("validate", "spec", "tp12"),
    )

    def make_op(self, rng, key, index, slot):
        command, source, alg = slot
        mutation = _mutation(rng, _ALGEBRA_SPECS[alg][1]) if source == "mutant" else None
        return Op(key, index, (command, source, alg, mutation), 1 if mutation else 0)

    def setup(self, rounds, work_dir):
        ops = [op for ops in rounds for op in ops]
        docs = {}
        for alg in sorted({op.payload[2] for op in ops if op.payload[1] != "spec"}):
            a = _algebra(_ALGEBRA_SPECS[alg][0])
            if not frobenius.check_all(a).ok:
                raise RuntimeError(f"benchmark algebra {alg} fails validation")
            docs[alg] = frobenius.algebra_to_json(a)
        paths = {}
        for op in ops:
            command, source, alg, mutation = op.payload
            if source == "spec":
                paths[op.key] = _ALGEBRA_SPECS[alg][0]
                continue
            doc = docs[alg]
            if source == "derived":
                doc = {k: v for k, v in doc.items() if k != "delta"}
            elif source == "mutant":
                doc = _bump(doc, mutation)
            name = f"{alg}-{source}" + (f"-{op.key}" if mutation else "") + ".json"
            path = os.path.join(work_dir, name)
            if path not in paths.values():
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            paths[op.key] = path
        return {"paths": paths}

    def run(self, op, ctx):
        return _cli([op.payload[0], ctx["paths"][op.key]])

    def check(self, op, output, ctx):
        if output[0] != op.expect:
            raise CheckFailed(f"exit code {output[0]}, expected {op.expect}")

    def facts(self, op, output, ctx):
        if op.payload[1] != "mutant":
            return {}
        return {"mutants": 1, "mutants_detected": int(output[0] == 1)}


# ---------------------------------------------------------------------------
# surface_dw

# Hand-entered irreducible character degrees (abelian groups: all ones).
_CHARACTER_DEGREES = {"S3": (1, 1, 2), "D4": (1, 1, 1, 1, 2), "Q8": (1, 1, 1, 1, 2)}


def _partition_function(group_spec: str, order: int, genus: int) -> Fraction:
    """|Hom(pi_1 Sigma_g, G)| / |G| by the Mednykh formula."""
    degrees = _CHARACTER_DEGREES.get(group_spec, (1,) * order)
    return sum((Fraction(order, chi) ** (2 * genus - 2) for chi in degrees), Fraction(0))


class SurfaceDW(Workload):
    """cli dw (oracle vs evaluator) and invariant; caches cleared per op."""

    name = "surface_dw"
    copies = 1
    clears_cache = True
    # (command, group, genus, how the group is passed)
    slots = (
        ("dw", "S3", 3, "file"),
        ("dw", "S3", 4, "spec"),
        ("dw", "D4", 1, "file"),
        ("dw", "Q8", 2, "spec"),
        ("dw", "D4", 3, "spec"),
        ("dw", "D4", 4, "spec"),
        ("dw", "Q8", 4, "spec"),
        ("dw", "cyclic(2)", 4, "spec"),
        ("dw", "cyclic(3)", 4, "file"),
        ("dw", "cyclic(4)", 3, "spec"),
        ("dw", "product(cyclic(2),cyclic(2))", 4, "file"),
        ("dw", "cyclic(5)", 2, "file"),
        ("dw", "cyclic(5)", 3, "spec"),
        ("dw", "product(cyclic(2),cyclic(3))", 3, "file"),
        ("dw", "cyclic(8)", 2, "spec"),
        ("dw", "product(cyclic(2),cyclic(4))", 3, "file"),
        ("invariant", "S3", 5, "center"),
        ("invariant", "Q8", 1, "center"),
        ("invariant", "D4", 3, "center"),
        ("invariant", "Q8", 6, "center"),
        ("invariant", "cyclic(2)", 7, "algebra"),
        ("invariant", "cyclic(3)", 5, "algebra"),
        ("invariant", "cyclic(4)", 4, "algebra"),
        ("invariant", "cyclic(5)", 2, "algebra"),
        ("invariant", "cyclic(6)", 3, "algebra"),
    )

    def make_op(self, rng, key, index, slot):
        return Op(key, index, slot, 0)

    def setup(self, rounds, work_dir):
        specs = sorted({op.payload[1] for ops in rounds for op in ops})
        built = {spec: cli._parse_group_spec(spec) for spec in specs}
        paths = {}
        for spec, g in built.items():
            path = os.path.join(work_dir, "group-" + "".join(c for c in spec if c.isalnum()) + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(groups.group_to_json(g), fh)
            paths[spec] = path
        return {"orders": {spec: g.order for spec, g in built.items()}, "paths": paths}

    def run(self, op, ctx):
        command, spec, genus, how = op.payload
        if command == "invariant":
            ctor = "group_center" if how == "center" else "group_algebra"
            return _cli(["invariant", "--genus", str(genus), f"{ctor}({spec})"])
        where = ["--group-file", ctx["paths"][spec]] if how == "file" else ["--group", spec]
        return _cli(["dw", *where, "--max-genus", str(genus)])

    def check(self, op, output, ctx):
        rc, out, _ = output
        if rc != op.expect:
            raise CheckFailed(f"exit code {rc}, expected {op.expect}")
        command, spec, genus, _ = op.payload
        order = ctx["orders"][spec]
        if command == "invariant":
            want = _partition_function(spec, order, genus)
            if Fraction(out.strip()) != want:
                raise CheckFailed(f"invariant {out.strip()} != {want}")
            return
        rows = out.splitlines()[1:]
        if len(rows) != genus + 1:
            raise CheckFailed(f"{len(rows)} rows for genus 0..{genus}")
        for g, row in enumerate(rows):
            cells = row.split()
            want = _partition_function(spec, order, g)
            if cells != [str(g), str(want), str(want), "match"]:
                raise CheckFailed(f"row {row!r}, expected partition function {want}")

    def facts(self, op, output, ctx):
        command, spec, genus, _ = op.payload
        if command != "dw":
            return {}
        order = ctx["orders"][spec]
        return {"oracle_tuples": sum(order ** (2 * g) for g in range(1, genus + 1))}


WORKLOADS = {w.name: w for w in (EvalDense(), WordDeep(), AlgebraCheck(), SurfaceDW())}
