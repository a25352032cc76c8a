import dataclasses
import random
from functools import reduce

import pytest

from tqft2d.dsl import format_word, parse
from tqft2d.words import (
    BoundaryMismatch,
    CobordismWord,
    Component,
    Generator,
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

from conftest import equivalent_variant


def test_generator_arities():
    arities = {g: (g.n_in, g.n_out) for g in Generator}
    assert arities == {
        Generator.CAP: (0, 1),
        Generator.CUP: (1, 0),
        Generator.ID: (1, 1),
        Generator.MERGE: (2, 1),
        Generator.SPLIT: (1, 2),
        Generator.SWAP: (2, 2),
    }


def test_layer_chaining_checked_at_construction():
    with pytest.raises(BoundaryMismatch):
        word([[Generator.MERGE], [Generator.MERGE]])
    with pytest.raises(ValueError):
        Layer(())


def test_boundary_mismatch_names_the_layer():
    with pytest.raises(BoundaryMismatch) as exc:
        word([[Generator.SPLIT], [Generator.MERGE], [Generator.MERGE]])
    assert (exc.value.layer, exc.value.expected, exc.value.got) == (2, 1, 2)
    with pytest.raises(BoundaryMismatch) as exc:
        compose(parse("mu"), parse("mu"))
    assert exc.value.layer is None


def test_compose_concatenates():
    w = compose(parse("mu"), parse("delta"))
    assert (w.source, w.target) == (2, 2)
    assert w == parse("mu ; delta")


def test_compose_identity_law_is_structural():
    w = parse("mu ; delta ; id | cup")
    assert compose(identity(2), w) == w
    assert compose(w, identity(w.target)) == w


def test_compose_arity_check():
    assert compose(parse("delta"), parse("mu")).target == 1
    with pytest.raises(BoundaryMismatch):
        compose(parse("mu"), parse("mu"))


def test_tensor_examples():
    w = tensor(parse("cap"), parse("cap"))
    assert (w.source, w.target) == (0, 2)
    assert w == parse("cap | cap")

    w = tensor(parse("id"), parse("mu"))
    assert (w.source, w.target) == (3, 2)
    assert w == parse("id | mu")

    any_word = parse("delta ; mu ; delta")
    assert tensor(any_word, identity(0)) == any_word
    assert tensor(identity(0), any_word) == any_word


def test_tensor_pads_shorter_operand():
    w = tensor(parse("mu ; delta"), parse("id"))
    assert w == parse("mu | id ; delta | id")


def test_variadic_tensor_equals_binary_fold():
    assert tensor() == identity(0)
    rng = random.Random(5)
    for _ in range(300):
        ws = [
            identity(rng.randint(0, 2)) if rng.random() < 0.2 else random_word(rng.randrange(10**6), 3, 5)
            for _ in range(rng.randint(0, 6))
        ]
        assert tensor(*ws) == reduce(tensor, ws, identity(0))


def test_decompose_handle():
    profile = decompose_components(parse("delta ; mu"))
    assert profile.components == (
        Component(frozenset({0}), frozenset({0}), 1),
    )


def test_decompose_sphere():
    profile = decompose_components(parse("cap ; cup"))
    assert profile.components == (Component(frozenset(), frozenset(), 0),)


def test_decompose_disjoint():
    profile = decompose_components(parse("cap | id"))
    assert set(profile.components) == {
        Component(frozenset(), frozenset({0}), 0),
        Component(frozenset({0}), frozenset({1}), 0),
    }


def test_profile_keeps_closed_multiplicity():
    sphere = parse("cap ; cup")
    two = tensor(sphere, sphere)
    assert len(decompose_components(two).components) == 2
    assert not is_equivalent(sphere, two)


def test_profile_memo_is_invisible():
    text = "delta | cap ; mu | id ; swap"
    w, fresh = parse(text), parse(text)
    before = (hash(w), repr(w))
    profile = decompose_components(w)
    assert decompose_components(w) is profile  # one union-find pass per word
    assert w == fresh and (hash(w), repr(w)) == before == (hash(fresh), repr(fresh))
    assert repr(w.layers[0]) == (
        "Layer(generators=(<Generator.SPLIT: ('delta', 1, 2)>, <Generator.CAP: ('cap', 0, 1)>))"
    )
    # a replaced word gets its own profile, not the memo of the original
    other = dataclasses.replace(w, layers=parse("swap ; mu ; delta").layers, source=2)
    assert decompose_components(other) == decompose_components(parse("swap ; mu ; delta"))
    assert decompose_components(other) != profile


def test_swap_does_not_merge_components():
    profile = decompose_components(parse("swap"))
    assert profile.components == (
        Component(frozenset({0}), frozenset({1}), 0),
        Component(frozenset({1}), frozenset({0}), 0),
    )


def test_is_equivalent_examples():
    assert is_equivalent(parse("delta | id ; id | mu"), parse("mu ; delta"))
    assert is_equivalent(parse("id"), parse("cap | id ; mu"))
    assert not is_equivalent(parse("delta ; mu"), parse("id"))


def test_decompose_invariant_under_identity_layer_insertion():
    rng = random.Random(11)
    for seed in range(200):
        w = random_word(seed, 4, 5)
        profile = decompose_components(w)
        widths = [w.source] + [layer.outputs for layer in w.layers]
        spots = [i for i, width in enumerate(widths) if width > 0]
        if not spots:
            continue
        k = rng.choice(spots)
        filler = Layer((Generator.ID,) * widths[k])
        padded = CobordismWord(w.layers[:k] + (filler,) + w.layers[k:], w.source)
        assert decompose_components(padded) == profile


def test_euler_characteristic_bookkeeping():
    chi_of = {
        Generator.CAP: 1,
        Generator.CUP: 1,
        Generator.MERGE: -1,
        Generator.SPLIT: -1,
        Generator.ID: 0,
        Generator.SWAP: 0,
    }
    for seed in range(300):
        w = random_word(seed, 5, 6)
        profile = decompose_components(w)
        total = sum(
            2 - 2 * c.genus - len(c.inputs) - len(c.outputs) for c in profile.components
        )
        nodes = sum(chi_of[g] for layer in w.layers for g in layer.generators)
        assert total == nodes


def test_is_equivalent_is_an_equivalence_relation():
    words = [random_word(seed, 4, 4) for seed in range(60)]
    rng = random.Random(5)
    for _ in range(1000):
        a, b, c = rng.choice(words), rng.choice(words), rng.choice(words)
        assert is_equivalent(a, a)
        assert is_equivalent(a, b) == is_equivalent(b, a)
        if is_equivalent(a, b) and is_equivalent(b, c):
            assert is_equivalent(a, c)


def test_normal_form_examples():
    assert format_word(normal_form(parse("id | cap ; mu"))) == "id"
    assert normal_form(parse("delta ; mu")) == parse("delta ; mu")
    assert normal_form(parse("mu ; delta")) == parse("mu ; delta")


def test_normal_form_idempotent_and_equivalent():
    for seed in range(400):
        w = random_word(seed, 4, 5)
        nf = normal_form(w)
        assert is_equivalent(w, nf), seed
        assert normal_form(nf) == nf, seed


def test_normal_form_of_relation_table_sides_agree():
    from tqft2d.evaluator import relation_table

    for name, lhs, rhs in relation_table():
        assert is_equivalent(lhs, rhs), name
        assert normal_form(lhs) == normal_form(rhs), name


def test_equivalent_variant_moves_preserve_class():
    rng = random.Random(99)
    for seed in range(200):
        w = random_word(seed, 4, 4)
        v = equivalent_variant(w, rng)
        assert is_equivalent(w, v), seed


def test_equivalent_words_share_a_normal_form():
    rng = random.Random(123)
    for seed in range(200):
        w = random_word(seed, 4, 4)
        v = equivalent_variant(w, rng)
        assert normal_form(w) == normal_form(v), seed


def test_random_word_deterministic():
    for seed in (0, 1, 17, 987654):
        assert random_word(seed, 4, 6) == random_word(seed, 4, 6)


def test_random_word_width_one_uses_unary_generators_only():
    allowed = {Generator.CAP, Generator.CUP, Generator.ID}
    for seed in range(100):
        w = random_word(seed, 1, 3)
        gens = {g for layer in w.layers for g in layer.generators}
        assert gens <= allowed


def test_random_word_respects_width_cap():
    for seed in range(200):
        w = random_word(seed, 3, 6)
        assert w.source <= 3
        for layer in w.layers:
            assert layer.outputs <= 3


def test_random_word_rejects_zero_width():
    with pytest.raises(ValueError):
        random_word(1, 0, 3)
