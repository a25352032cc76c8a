import dataclasses
import random
from fractions import Fraction
from itertools import islice

import pytest

from tqft2d.axioms import genus_scalar, genus_series, word_entries
from tqft2d.dsl import parse
from tqft2d.evaluator import (
    EvalConfig,
    EvalTooLarge,
    ExactMatrix,
    InvalidAlgebra,
    check_relations,
    evaluate,
    extract_algebra,
    genus_invariant,
    genus_invariants,
    kron,
    matmul,
    matrix_to_csv,
    matrix_to_json,
    relation_table,
)
from tqft2d.fields import RATIONAL, FieldSpec, make_field
from tqft2d.frobenius import (
    check_all,
    derive_comultiplication,
    group_algebra,
    pairing,
    truncated_poly,
)
from tqft2d.groups import MAX_GENUS, cyclic
from tqft2d.words import CobordismWord, Generator, compose, identity, random_word, tensor

from conftest import reference_evaluate

Q = Fraction

BIG = EvalConfig(max_tensor_entries=2**26)


@pytest.fixture(scope="module")
def t2():
    return truncated_poly(2)


def test_identity_word_maps_to_identity_matrix(t2):
    assert evaluate(parse("id"), t2) == ExactMatrix.identity(2, RATIONAL)
    assert evaluate(identity(2), t2) == ExactMatrix.identity(4, RATIONAL)


def test_sphere_scalar(t2):
    m = evaluate(parse("cap ; cup"), t2)
    assert (m.rows, m.cols) == (1, 1)
    assert m.entry(0, 0) == Q(0)


def test_swap_squares_to_identity(t2):
    s = evaluate(parse("swap"), t2)
    assert matmul(s, s) == ExactMatrix.identity(4, RATIONAL)


def test_empty_word_on_zero_circles_is_scalar_one(t2):
    m = evaluate(identity(0), t2)
    assert m == ExactMatrix(1, 1, RATIONAL, (Q(1),))


def test_single_generator_matrices(t2):
    mu = evaluate(parse("mu"), t2)
    assert (mu.rows, mu.cols) == (2, 4)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert mu.entry(k, i * 2 + j) == t2.mu[i][j][k]
    cap = evaluate(parse("cap"), t2)
    assert tuple(cap.entry(k, 0) for k in range(2)) == t2.unit


def test_invalid_algebra_is_refused(t2):
    broken = dataclasses.replace(t2, counit=(Q(0), Q(0)))
    with pytest.raises(InvalidAlgebra) as exc:
        evaluate(parse("id"), broken)
    assert not exc.value.report.ok


def test_eval_too_large_reports_layer(t2):
    wide = parse("id^11")
    with pytest.raises(EvalTooLarge) as exc:
        evaluate(wide, t2, EvalConfig(max_tensor_entries=2**20))
    assert exc.value.layer_index == 0


def test_genus_invariants(t2):
    assert genus_invariant(0, group_algebra(cyclic(2))) == Q(1, 2)
    assert genus_invariant(1, t2) == Q(2)
    assert genus_invariant(2, t2) == Q(0)


def test_genus_invariant_matches_closed_word_evaluation(t2):
    for g in range(4):
        closed = parse("cap ; " + "delta ; mu ; " * g + "cup")
        assert evaluate(closed, t2).entry(0, 0) == genus_invariant(g, t2)


def test_torus_word_gives_dimension(registry):
    torus = parse("cap ; delta ; mu ; cup")
    for name, a in registry.items():
        f_dim = evaluate(torus, a).entry(0, 0)
        assert f_dim == genus_invariant(1, a), name


def test_relation_table_shape():
    table = relation_table()
    assert len(table) == 13
    by_name = {name: (lhs, rhs) for name, lhs, rhs in table}
    assert by_name["frobenius-left"] == (parse("delta | id ; id | mu"), parse("mu ; delta"))
    assert by_name["unit-left"] == (parse("cap | id ; mu"), parse("id"))
    assert by_name["commutativity"] == (parse("swap ; mu"), parse("mu"))


def test_check_relations_pass_on_registry(registry):
    for name, a in registry.items():
        assert check_relations(a).ok, name


def test_check_relations_flags_noncommutative():
    from test_frobenius import frac3, vec

    d = 4
    mu = [[[Q(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        a, b = divmod(i, 2)
        for j in range(d):
            c, e = divmod(j, 2)
            if b == c:
                mu[i][j][a * 2 + e] = Q(1)
    from tqft2d.frobenius import derive_comultiplication

    m2 = derive_comultiplication(RATIONAL, d, frac3(mu), vec([1, 0, 0, 1]), vec([1, 0, 0, 1]))
    report = check_relations(m2)
    failed = {f.name for f in report.failures}
    assert "commutativity" in failed
    assert "associativity" not in failed


def test_check_relations_dim1():
    assert check_relations(truncated_poly(1)).ok


def test_extract_algebra_round_trip(registry):
    a = registry["truncated_poly_3"]
    extracted = extract_algebra(lambda w: evaluate(w, a))
    assert (extracted.mu, extracted.unit, extracted.delta, extracted.counit) == (
        a.mu,
        a.unit,
        a.delta,
        a.counit,
    )

    center = registry["group_center_s3"]
    extracted = extract_algebra(lambda w: evaluate(w, center))
    assert check_all(extracted).ok
    assert pairing(extracted) == pairing(center)


def test_functoriality_on_split_words(t2):
    for seed in range(100):
        w = random_word(seed, 4, 5)
        rng = random.Random(seed)
        k = rng.randint(0, len(w.layers))
        w1 = CobordismWord(w.layers[:k], w.source)
        w2 = CobordismWord(w.layers[k:], w1.target)
        assert compose(w1, w2) == w
        assert evaluate(w, t2) == matmul(evaluate(w2, t2), evaluate(w1, t2))


def test_monoidality_against_kron(t2):
    for seed in range(100):
        w1 = random_word(seed, 3, 4)
        w2 = random_word(seed + 10_000, 2, 4)
        assert evaluate(tensor(w1, w2), t2, BIG) == kron(
            evaluate(w1, t2, BIG), evaluate(w2, t2, BIG)
        )


def test_closed_components_scale_the_open_part(t2):
    c2 = group_algebra(cyclic(2))
    torus = parse("cap ; delta ; mu ; cup")
    open_part = parse("mu ; delta")
    combined = evaluate(tensor(torus, open_part), c2, BIG)
    plain = evaluate(open_part, c2)
    scalar = genus_invariant(1, c2)
    assert combined.rows == plain.rows and combined.cols == plain.cols
    assert combined.entries == tuple(scalar * x for x in plain.entries)


def test_matrix_serialization(t2):
    m = evaluate(parse("mu"), group_algebra(cyclic(2)))
    doc = matrix_to_json(m)
    assert doc["rows"] == 2 and doc["cols"] == 4
    assert all(isinstance(x, str) for row in doc["entries"] for x in row)
    csv_text = matrix_to_csv(m)
    assert len(csv_text.strip().splitlines()) == 2


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(max_tensor_entries=0)


# ---------------------------------------------------------------------------
# differential check against a dense reference evaluator


def _counit_scaled_poly(field, factor):
    """truncated_poly(3) with its counit times factor and delta re-derived."""
    f = make_field(field)
    a = truncated_poly(3, field)
    counit = tuple(f.normalize(x * factor) for x in a.counit)
    return derive_comultiplication(field, 3, a.mu, a.unit, counit)


def _dense_basis(a):
    """a on the basis f_i = e_i + ... + e_(d-1), so products of basis
    vectors are no longer multiples of basis vectors."""
    f, d = make_field(a.field), a.dim
    # e_k = f_k - f_(k+1), with f_d = 0
    old = [{k: 1, k + 1: -1} if k + 1 < d else {k: 1} for k in range(d)]

    def in_new_basis(vec):
        return tuple(
            f.normalize(sum(vec[k] * old[k].get(c, 0) for k in range(d))) for c in range(d)
        )

    def old_product(x, y):
        return [sum(a.mu[i][j][k] for i in range(x, d) for j in range(y, d)) for k in range(d)]

    mu = tuple(tuple(in_new_basis(old_product(x, y)) for y in range(d)) for x in range(d))
    counit = tuple(f.normalize(sum(a.counit[x:])) for x in range(d))
    return derive_comultiplication(a.field, d, mu, in_new_basis(a.unit), counit)


GF7 = FieldSpec(prime=7)


def _closed(genus):
    return parse("cap ; " + "delta ; mu ; " * genus + "cup")


def _after_closed(w, genera):
    """w preceded by closed surfaces of these genera, each beside w's inputs."""
    for genus in genera:
        w = compose(tensor(_closed(genus), identity(w.source)), w)
    return w


# Profiles that short random words seldom have.
PROFILE_WORDS = [
    identity(0),
    identity(3),
    parse("id | swap ; mu | delta ; swap | id"),  # in {0,2} -> out {1}, in {1} -> out {0,2}
    parse("id | swap ; mu | id ; cup | id"),  # in {0,2} -> nothing, in {1} -> out {0}
    parse("delta | delta ; id | swap | id ; mu | mu ; swap"),  # 2 -> 2, genus 1
    parse("cap ; delta ; mu ; delta ; delta | id"),  # 0 -> 3, genus 1
    _after_closed(parse("swap ; mu ; delta"), (0, 1, 2, 3)),  # the sphere first
    _after_closed(identity(0), (3, 1)),
    _after_closed(parse("id | swap ; mu | delta ; swap | id"), (1,)),
]


@pytest.mark.parametrize(
    "make_algebra",
    [
        lambda: group_algebra(cyclic(3)),
        lambda: _counit_scaled_poly(RATIONAL, Q(2, 3)),  # delta has denominator 2
        lambda: truncated_poly(3, GF7),
        lambda: _counit_scaled_poly(GF7, 3),  # residues other than 0 and 1
        lambda: _dense_basis(group_algebra(cyclic(3))),
        lambda: _dense_basis(truncated_poly(3, GF7)),
    ],
    ids=[
        "c3_counit_third",
        "poly3_delta_half",
        "poly3_gf7",
        "poly3_gf7_counit_3",
        "c3_dense_basis",
        "poly3_gf7_dense_basis",
    ],
)
def test_evaluate_matches_dense_reference(make_algebra):
    """evaluate, built from the component profile, against the dense
    reference and against the layer-by-layer kernel."""
    a = make_algebra()
    assert check_all(a).ok
    if a.field.is_rational:  # the integer kernel's scales must be exercised
        entries = [*a.counit, *(x for plane in a.delta for row in plane for x in row)]
        assert max(x.denominator for x in entries) > 1
    seen = set()
    words = [random_word(seed, 3, 6) for seed in range(60)] + PROFILE_WORDS
    for i, w in enumerate(words):
        seen.update(g for layer in w.layers for g in layer.generators)
        got = evaluate(w, a)
        assert got == reference_evaluate(w, a), i
        assert list(got.entries) == word_entries(w, a), i
        if a.field.is_rational:
            assert all(type(x) is Fraction for x in got.entries)
        else:
            assert all(type(x) is int and 0 <= x < a.field.prime for x in got.entries)
    assert {Generator.CAP, Generator.CUP, Generator.MERGE, Generator.SPLIT} <= seen
    if genus_invariant(0, a) == 0:  # a sphere beside the word makes every entry zero
        assert set(evaluate(PROFILE_WORDS[6], a).entries) == {make_field(a.field).zero}


def test_word_too_large_is_refused_before_validation(t2):
    broken = dataclasses.replace(t2, counit=(Q(0), Q(0)))
    with pytest.raises(EvalTooLarge):
        evaluate(parse("id^11"), broken)
    with pytest.raises(InvalidAlgebra):
        evaluate(parse("id^10"), broken)


def test_genus_series_match_per_genus_values(registry):
    for name, a in registry.items():
        series = list(islice(genus_series(a), 13))
        assert series == [genus_scalar(g, a) for g in range(13)], name
        assert series == [genus_invariant(g, a) for g in range(13)], name
    values = list(genus_invariants(group_algebra(cyclic(2))))
    assert len(values) == MAX_GENUS + 1
    assert values[MAX_GENUS] == genus_invariant(MAX_GENUS, group_algebra(cyclic(2)))
