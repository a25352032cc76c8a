import dataclasses
import random
from fractions import Fraction

import pytest

from tqft2d.fields import RATIONAL, FieldSpec, make_field
from tqft2d.frobenius import (
    AlgebraFormatError,
    BadCharacteristic,
    DegeneratePairing,
    DerivedStructureInvalid,
    NonAbelianGroup,
    algebra_from_json,
    algebra_to_json,
    cached_check_all,
    check_all,
    check_commutative,
    check_comonoid,
    check_frobenius,
    check_monoid,
    check_nondegenerate,
    copairing,
    derive_comultiplication,
    first_failure,
    group_algebra,
    group_center,
    pairing,
    truncated_poly,
)
from tqft2d.groups import builtin, cyclic

from conftest import mutate_entry

Q = Fraction


def frac3(t):
    return tuple(tuple(tuple(Q(x) for x in row) for row in plane) for plane in t)


def vec(v):
    return tuple(Q(x) for x in v)


def replace_tensor(a, name, i, j, k, value):
    f = make_field(a.field)
    t = [[list(row) for row in plane] for plane in getattr(a, name)]
    t[i][j][k] = f.normalize(value)
    return dataclasses.replace(
        a, **{name: tuple(tuple(tuple(row) for row in plane) for plane in t)}
    )


@pytest.fixture(scope="module")
def t2():
    return truncated_poly(2)


@pytest.fixture(scope="module")
def dim1():
    return truncated_poly(1)


@pytest.fixture(scope="module")
def matrix_algebra_2x2():
    """M_2(Q) with the trace form: Frobenius but not commutative."""
    d = 4

    def as_pair(i):
        return divmod(i, 2)

    mu = [[[Q(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        a, b = as_pair(i)
        for j in range(d):
            c, e = as_pair(j)
            if b == c:
                mu[i][j][a * 2 + e] = Q(1)
    unit = [Q(1), Q(0), Q(0), Q(1)]
    counit = [Q(1), Q(0), Q(0), Q(1)]
    return derive_comultiplication(RATIONAL, d, frac3(mu), vec(unit), vec(counit))


# ---------------------------------------------------------------------------
# monoid / comonoid / frobenius / commutativity checks


def test_check_monoid_passes_on_truncated_poly(t2):
    assert check_monoid(t2).ok


def test_check_monoid_catches_mu_mutation(t2):
    broken = replace_tensor(t2, "mu", 0, 0, 0, Q(2))
    report = check_monoid(broken)
    assert not report.ok
    assert {f.identity for f in report.failures} <= {"associativity", "unit-left", "unit-right"}


def test_check_monoid_dim1(dim1):
    assert check_monoid(dim1).ok


def test_check_comonoid_passes(t2):
    assert check_comonoid(t2).ok


def test_check_comonoid_zero_delta_fails_counit_law(t2):
    zero = frac3([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    broken = dataclasses.replace(t2, delta=zero)
    report = check_comonoid(broken)
    assert any(f.identity.startswith("counit") for f in report.failures)


def test_check_comonoid_dim1(dim1):
    assert check_comonoid(dim1).ok


def test_check_frobenius_on_truncated_polys():
    for n in (2, 3, 4):
        assert check_frobenius(truncated_poly(n)).ok


def test_check_frobenius_on_group_algebra():
    assert check_frobenius(group_algebra(cyclic(3))).ok


def test_check_frobenius_rejects_transplanted_delta():
    # truncated_poly(3) carrying truncated_poly(2)'s delta, zero-padded to 3x3x3
    t3 = truncated_poly(3)
    t2 = truncated_poly(2)
    padded = [[[Q(0)] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(2):
        for i in range(2):
            for j in range(2):
                padded[k][i][j] = t2.delta[k][i][j]
    franken = dataclasses.replace(t3, delta=frac3(padded))
    assert not check_frobenius(franken).ok


def test_check_commutative_on_group_algebras():
    for n in (2, 3, 4, 5):
        assert check_commutative(group_algebra(cyclic(n))).ok


def test_check_commutative_on_class_sums():
    assert check_commutative(group_center(builtin("S3"))).ok


def test_check_commutative_rejects_matrix_algebra(matrix_algebra_2x2):
    report = check_commutative(matrix_algebra_2x2)
    assert any(f.identity == "commutative-mul" for f in report.failures)


# ---------------------------------------------------------------------------
# pairing / copairing / nondegeneracy


def test_pairing_truncated_poly(t2):
    assert pairing(t2) == ((Q(0), Q(1)), (Q(1), Q(0)))


def test_pairing_dim1(dim1):
    assert pairing(dim1) == ((Q(1),),)


def test_pairing_group_algebra_c2():
    beta = pairing(group_algebra(cyclic(2)))
    assert beta == ((Q(1, 2), Q(0)), (Q(0), Q(1, 2)))


def test_copairing_truncated_poly_self_inverse(t2):
    assert copairing(t2) == ((Q(0), Q(1)), (Q(1), Q(0)))


def test_copairing_dim1(dim1):
    assert copairing(dim1) == ((Q(1),),)


def test_copairing_degenerate_counit(t2):
    broken = dataclasses.replace(t2, counit=vec([0, 0]))
    with pytest.raises(DegeneratePairing):
        copairing(broken)


def test_check_nondegenerate():
    assert check_nondegenerate(truncated_poly(3)).ok
    assert check_nondegenerate(group_center(builtin("D4"))).ok
    broken = dataclasses.replace(truncated_poly(2), counit=vec([0, 0]))
    report = check_nondegenerate(broken)
    assert not report.ok


def test_copairing_times_pairing_is_identity(registry):
    for name, a in registry.items():
        f = make_field(a.field)
        beta, theta = pairing(a), copairing(a)
        d = a.dim
        for i in range(d):
            for k in range(d):
                got = f.normalize(sum(theta[i][j] * beta[j][k] for j in range(d)))
                assert got == (f.one if i == k else f.zero), name


def test_pairing_symmetric_for_commutative(registry):
    for name, a in registry.items():
        assert check_commutative(a).ok, name
        beta = pairing(a)
        assert all(beta[i][j] == beta[j][i] for i in range(a.dim) for j in range(a.dim)), name


def test_copairing_equals_delta_of_unit(registry):
    for name, a in registry.items():
        f = make_field(a.field)
        theta = copairing(a)
        for i in range(a.dim):
            for j in range(a.dim):
                via = f.normalize(
                    sum(a.unit[k] * a.delta[k][i][j] for k in range(a.dim))
                )
                assert via == theta[i][j], name


# ---------------------------------------------------------------------------
# derived comultiplication


def test_derive_comultiplication_truncated_poly(t2):
    derived = derive_comultiplication(RATIONAL, 2, t2.mu, t2.unit, t2.counit)
    expected = frac3([[[0, 1], [1, 0]], [[0, 0], [0, 1]]])
    assert derived.delta == expected
    assert derived.delta == t2.delta


def test_derive_comultiplication_dim1_scaling():
    one = frac3([[[1]]])
    for c in (Q(1), Q(3), Q(-2, 5)):
        derived = derive_comultiplication(RATIONAL, 1, one, vec([1]), (c,))
        assert derived.delta == (((1 / c,),),)


def test_derive_comultiplication_zero_counit_degenerate(t2):
    with pytest.raises(DegeneratePairing):
        derive_comultiplication(RATIONAL, 2, t2.mu, t2.unit, vec([0, 0]))


def test_derive_comultiplication_rejects_non_associative_mu():
    # basis 1, x, y with x*x = y, x*y = y, y*x = 0: not associative,
    # yet the pairing against counit (0, 0, 1) is invertible
    mu = [[[Q(0)] * 3 for _ in range(3)] for _ in range(3)]
    for j in range(3):
        mu[0][j][j] = Q(1)
        mu[j][0][j] = Q(1)
    mu[1][1][2] = Q(1)
    mu[1][2][2] = Q(1)
    with pytest.raises(DerivedStructureInvalid):
        derive_comultiplication(RATIONAL, 3, frac3(mu), vec([1, 0, 0]), vec([0, 0, 1]))


def test_derive_reproduces_registry_deltas(registry):
    for name, a in registry.items():
        derived = derive_comultiplication(a.field, a.dim, a.mu, a.unit, a.counit)
        assert derived.delta == a.delta, name


# ---------------------------------------------------------------------------
# check_all and constructions


def test_check_all_sections_and_dim1(dim1):
    report = check_all(dim1)
    assert report.ok
    assert [name for name, _ in report.sections] == [
        "monoid",
        "comonoid",
        "frobenius",
        "commutative",
        "nondegenerate",
    ]


def test_check_all_passes_on_registry(registry):
    for name, a in registry.items():
        assert check_all(a).ok, name


def test_mutations_always_fail_some_check(registry):
    rng = random.Random(7)
    for name in ("truncated_poly_2", "group_algebra_c3", "group_center_s3"):
        a = registry[name]
        for _ in range(20):
            assert first_failure(mutate_entry(a, rng)) is not None, name


def test_hash_is_cached_and_follows_equality(registry):
    a = registry["group_algebra_c3"]
    same = group_algebra(cyclic(3))
    assert same is not a and same == a and hash(same) == hash(a)
    assert same in {a: None}
    mutated = mutate_entry(a, random.Random(11))
    assert mutated != a and hash(mutated) != hash(a)
    assert mutated not in {a: None}
    assert cached_check_all(a).ok and not cached_check_all(mutated).ok
    # dataclasses.replace recomputes the hash from the new fields.
    restored = dataclasses.replace(mutated, mu=a.mu, unit=a.unit, delta=a.delta, counit=a.counit)
    assert restored == a and hash(restored) == hash(a)
    assert "_hash" not in repr(a)


def test_truncated_poly_n1_is_the_field(dim1):
    assert dim1.dim == 1
    assert dim1.mu == frac3([[[1]]])
    assert dim1.unit == vec([1])
    assert dim1.counit == vec([1])


def test_truncated_poly_over_prime_field():
    a = truncated_poly(3, FieldSpec(prime=7))
    assert check_all(a).ok


def test_group_algebra_examples():
    assert check_all(group_algebra(cyclic(2))).ok
    with pytest.raises(NonAbelianGroup):
        group_algebra(builtin("S3"))
    with pytest.raises(BadCharacteristic):
        group_algebra(cyclic(3), FieldSpec(prime=3))


def test_group_center_examples():
    s3 = group_center(builtin("S3"))
    assert s3.dim == 3
    assert check_all(s3).ok

    q8 = group_center(builtin("Q8"))
    assert q8.dim == 5
    assert check_all(q8).ok

    with pytest.raises(BadCharacteristic):
        group_center(builtin("S3"), FieldSpec(prime=2))


def test_group_center_of_abelian_matches_group_algebra():
    for n in (2, 3, 4, 5):
        center = group_center(cyclic(n))
        algebra = group_algebra(cyclic(n))
        assert center.mu == algebra.mu
        assert center.unit == algebra.unit
        assert center.delta == algebra.delta
        assert center.counit == algebra.counit


# ---------------------------------------------------------------------------
# JSON interface


def test_algebra_json_roundtrip(registry):
    for name, a in registry.items():
        doc = algebra_to_json(a)
        back = algebra_from_json(doc)
        assert back == dataclasses.replace(a, basis_labels=back.basis_labels), name


def test_algebra_json_missing_delta_derives(t2):
    doc = algebra_to_json(t2)
    del doc["delta"]
    back = algebra_from_json(doc)
    assert back.delta == t2.delta


def test_algebra_json_rational_strings(t2):
    doc = algebra_to_json(group_algebra(cyclic(2)))
    assert doc["counit"][0] == "1/2"
    assert algebra_from_json(doc).counit[0] == Q(1, 2)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"field": "rational", "dim": 2},
        {"field": "septimal", "dim": 1, "mu": [[[1]]], "unit": [1], "counit": [1]},
        {"field": "rational", "dim": 0, "mu": [], "unit": [], "counit": []},
        {"field": "rational", "dim": 1, "mu": [[[1, 2]]], "unit": [1], "counit": [1]},
    ],
)
def test_algebra_json_rejects_garbage(doc):
    with pytest.raises(AlgebraFormatError):
        algebra_from_json(doc)
