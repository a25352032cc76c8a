"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
pass/fail line per criterion with its runtime.
"""

import random
import time
from fractions import Fraction

from tqft2d.dsl import format_word, parse
from tqft2d.evaluator import (
    EvalConfig,
    check_relations,
    evaluate,
    extract_algebra,
    genus_invariant,
    kron,
    matmul,
)
from tqft2d.fields import make_field
from tqft2d.frobenius import check_all, first_failure, group_algebra, group_center
from tqft2d.groups import builtin, commutator_count, cyclic, product
from tqft2d.words import (
    CobordismWord,
    compose,
    is_equivalent,
    normal_form,
    random_word,
    tensor,
)

from conftest import equivalent_variant, mutate_entry

BIG = EvalConfig(max_tensor_entries=2**26)


def _report(criterion: str, t0: float, budget: float | None) -> None:
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{criterion} exceeded {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_relation_suite(registry):
    t0 = time.time()
    for name, algebra in registry.items():
        report = check_relations(algebra)
        assert report.ok, (name, report.failures)
    _report("1 relation suite (13 pairs x 14 algebras, exact)", t0, 5.0)


def test_criterion_2_axiom_suite(registry):
    t0 = time.time()
    for name, algebra in registry.items():
        assert check_all(algebra).ok, name
    for name, algebra in registry.items():
        rng = random.Random(f"axioms:{name}")
        for _ in range(100):
            mutated = mutate_entry(algebra, rng)
            assert first_failure(mutated) is not None, name
    _report("2 axiom suite (check_all + 100 mutations x 14 algebras)", t0, 10.0)


def test_criterion_3_sphere_anchor():
    t0 = time.time()
    for n in (2, 3, 4, 5):
        value = genus_invariant(0, group_algebra(cyclic(n)))
        assert value == Fraction(1, n), n
    _report("3 sphere anchor Z(S^2) = 1/|G|", t0, None)


def test_criterion_4_torus_dimension_anchor(registry):
    t0 = time.time()
    torus = parse("cap ; delta ; mu ; cup")
    for name, algebra in registry.items():
        f = make_field(algebra.field)
        expected = f.from_int(algebra.dim)
        assert genus_invariant(1, algebra) == expected, name
        assert evaluate(torus, algebra).entry(0, 0) == expected, name
    _report("4 torus anchor Z(T^2) = dim(A)", t0, None)


def test_criterion_5_dijkgraaf_witten_cross_check():
    t0 = time.time()
    groups = {
        "C2": cyclic(2),
        "C3": cyclic(3),
        "C4": cyclic(4),
        "C2xC2": product(cyclic(2), cyclic(2)),
        "S3": builtin("S3"),
        "D4": builtin("D4"),
        "Q8": builtin("Q8"),
    }
    for name, group in groups.items():
        center = group_center(group)
        algebra = group_algebra(group) if group.is_abelian() else None
        for genus in range(11):
            oracle = Fraction(commutator_count(group, genus), group.order)
            assert genus_invariant(genus, center) == oracle, (name, genus)
            if algebra is not None:
                assert genus_invariant(genus, algebra) == oracle, (name, genus)
                assert oracle == Fraction(group.order) ** (2 * genus - 1), (name, genus)
    _report("5 Dijkgraaf-Witten oracle agreement (7 groups, g <= 10)", t0, 60.0)


def test_criterion_6_equivalence_theorem_semantic(registry):
    t0 = time.time()
    algebras = [
        registry["truncated_poly_2"],
        registry["group_algebra_c3"],
        registry["truncated_poly_3_f7"],
    ]
    rng = random.Random("equivalent-pairs")
    for seed in range(500):
        w1 = random_word(seed, 4, 4)
        w2 = equivalent_variant(w1, rng)
        assert is_equivalent(w1, w2), seed
        for algebra in algebras:
            assert evaluate(w1, algebra, BIG) == evaluate(w2, algebra, BIG), seed
    for seed in range(500):
        w = random_word(seed, 4, 4)
        nf = normal_form(w)
        for algebra in algebras:
            assert evaluate(w, algebra, BIG) == evaluate(nf, algebra, BIG), seed
    _report("6 equivalence theorem, semantic form (2 x 500 words x 3 algebras)", t0, 60.0)


def test_criterion_7_functor_laws(registry):
    t0 = time.time()
    pairs = [
        (registry["truncated_poly_2"], 4),
        (registry["group_algebra_c3"], 3),
    ]
    rng = random.Random("functor-laws")
    for seed in range(200):
        algebra, width = pairs[seed % 2]
        w = random_word(seed, width, 5)
        k = rng.randint(0, len(w.layers))
        w1 = CobordismWord(w.layers[:k], w.source)
        w2 = CobordismWord(w.layers[k:], w1.target)
        assert compose(w1, w2) == w
        assert evaluate(w, algebra, BIG) == matmul(
            evaluate(w2, algebra, BIG), evaluate(w1, algebra, BIG)
        ), seed
    for seed in range(200):
        algebra, width = pairs[seed % 2]
        w1 = random_word(seed, width - 1, 4)
        w2 = random_word(seed + 20_000, 2, 4)
        assert evaluate(tensor(w1, w2), algebra, BIG) == kron(
            evaluate(w1, algebra, BIG), evaluate(w2, algebra, BIG)
        ), seed
    _report("7 functor laws (200 compositions + 200 tensors)", t0, 30.0)


def test_criterion_8_round_trips(registry):
    t0 = time.time()
    for seed in range(1000):
        w = random_word(seed, 4, 6)
        assert parse(format_word(w)) == w, seed
    for name, algebra in registry.items():
        extracted = extract_algebra(lambda w, a=algebra: evaluate(w, a))
        assert extracted.mu == algebra.mu, name
        assert extracted.unit == algebra.unit, name
        assert extracted.delta == algebra.delta, name
        assert extracted.counit == algebra.counit, name
    _report("8 round trips (parse.format x1000, extract.evaluate x14)", t0, 10.0)
