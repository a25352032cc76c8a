import random
from fractions import Fraction
from itertools import islice, product as tuples

import pytest

from tqft2d.groups import (
    MAX_GENUS,
    EnumerationTooLarge,
    FiniteGroup,
    GroupTableError,
    UnknownGroupName,
    builtin,
    commutator_count,
    conjugacy_classes,
    cyclic,
    dw_partition,
    dw_series,
    group_from_json,
    group_to_json,
    product,
)


def test_cyclic_1_is_trivial():
    g = cyclic(1)
    assert g.order == 1
    assert g.mul(0, 0) == 0


def test_klein_four_every_nonidentity_self_inverse():
    g = product(cyclic(2), cyclic(2))
    assert g.order == 4
    assert all(g.inv(a) == a for a in range(4))
    assert g.is_abelian()


def test_builtin_s3():
    g = builtin("S3")
    assert g.order == 6
    assert not g.is_abelian()
    assert len(conjugacy_classes(g)) == 3


def test_builtin_names_reject_unknown():
    with pytest.raises(UnknownGroupName):
        builtin("A5")


def test_conjugacy_classes_abelian_singletons():
    for n in (2, 3, 5):
        assert all(len(c) == 1 for c in conjugacy_classes(cyclic(n)))


def test_conjugacy_class_sizes():
    assert sorted(len(c) for c in conjugacy_classes(builtin("S3"))) == [1, 2, 3]
    assert sorted(len(c) for c in conjugacy_classes(builtin("D4"))) == [1, 1, 2, 2, 2]
    assert sorted(len(c) for c in conjugacy_classes(builtin("Q8"))) == [1, 1, 2, 2, 2]


def test_identity_class_first_then_smallest_member():
    for g in (builtin("S3"), builtin("D4"), builtin("Q8"), cyclic(6)):
        classes = conjugacy_classes(g)
        assert g.identity in classes[0]
        mins = [min(c) for c in classes[1:]]
        assert mins == sorted(mins)


def test_commutator_count_genus_zero_is_one():
    for g in (cyclic(3), builtin("S3"), builtin("Q8")):
        assert commutator_count(g, 0) == 1


def test_commutator_count_abelian_is_full_power():
    for n in (2, 3, 4):
        g = cyclic(n)
        for genus in (1, 2):
            assert commutator_count(g, genus) == n ** (2 * genus)


def _direct_count(g: FiniteGroup, genus: int) -> int:
    """Brute-force reference: every 2g-tuple, commutator product left to right."""
    count = 0
    for tup in tuples(range(g.order), repeat=2 * genus):
        x = g.identity
        for a, b in zip(tup[::2], tup[1::2]):
            x = g.mul(x, g.mul(g.mul(g.mul(a, b), g.inv(a)), g.inv(b)))
        count += x == g.identity
    return count


def test_commutator_count_matches_direct_enumeration():
    groups = [builtin("S3"), builtin("D4"), builtin("Q8"), cyclic(4), product(cyclic(2), cyclic(2))]
    for g in groups:
        for genus in range(3):
            assert commutator_count(g, genus) == _direct_count(g, genus), (g.order, genus)
    assert _direct_count(builtin("S3"), 1) == 18


def _mednykh(order: int, degrees: tuple[int, ...], genus: int) -> Fraction:
    """|Hom(pi_1 Sigma_g, G)| = |G| * sum over irreducible chi of (|G|/chi(1))^(2g-2)."""
    return order * sum(Fraction(order, d) ** (2 * genus - 2) for d in degrees)


def test_commutator_count_matches_mednykh_formula():
    degrees = {"S3": (1, 1, 2), "D4": (1, 1, 1, 1, 2), "Q8": (1, 1, 1, 1, 2)}
    for name, degs in degrees.items():
        g = builtin(name)
        assert sum(d * d for d in degs) == g.order
        for genus in range(13):
            assert commutator_count(g, genus) == _mednykh(g.order, degs, genus), (name, genus)


def test_dw_partition_values():
    assert dw_partition(cyclic(2), 0) == Fraction(1, 2)
    assert dw_partition(cyclic(2), 2) == 8
    assert dw_partition(builtin("S3"), 1) == 3


def test_dw_partition_torus_counts_classes():
    for g in (builtin("S3"), builtin("D4"), builtin("Q8"), cyclic(4)):
        assert dw_partition(g, 1) == len(conjugacy_classes(g))


def test_dw_series_matches_dw_partition():
    for g in (builtin("S3"), builtin("D4"), builtin("Q8"), cyclic(4), cyclic(1)):
        assert list(islice(dw_series(g), 13)) == [dw_partition(g, genus) for genus in range(13)]


def test_dw_series_stops_at_genus_cap():
    series = dw_series(cyclic(1))
    assert list(islice(series, MAX_GENUS + 1)) == [1] * (MAX_GENUS + 1)
    with pytest.raises(EnumerationTooLarge, match=f"genus {MAX_GENUS + 1} exceeds"):
        next(series)


def test_commutator_count_genus_cap():
    with pytest.raises(EnumerationTooLarge):
        commutator_count(cyclic(2), MAX_GENUS + 1)


def test_commutator_count_trivial_group_at_genus_cap():
    assert commutator_count(cyclic(1), MAX_GENUS) == 1


def test_table_verification_rejects_corruptions():
    base = builtin("D4")
    rng = random.Random(20240817)
    n = base.order
    rejected = 0
    for _ in range(100):
        rows = [list(r) for r in base.table]
        i, j = rng.randrange(n), rng.randrange(n)
        old = rows[i][j]
        rows[i][j] = rng.choice([x for x in range(n) if x != old])
        with pytest.raises(GroupTableError):
            FiniteGroup(tuple(tuple(r) for r in rows), base.identity)
        rejected += 1
    assert rejected == 100


def test_table_verification_rejects_bad_identity_and_range():
    with pytest.raises(GroupTableError):
        FiniteGroup(((0, 1), (1, 0)), identity=1)
    with pytest.raises(GroupTableError):
        FiniteGroup(((0, 5), (1, 0)), identity=0)


def test_group_json_roundtrip():
    g = builtin("Q8")
    doc = group_to_json(g)
    h = group_from_json(doc)
    assert h.table == g.table
    assert h.identity == g.identity
    assert h.names == g.names


def test_group_json_rejects_garbage():
    with pytest.raises(GroupTableError):
        group_from_json({"order": 2, "table": [[0, 1]], "identity": 0})
    with pytest.raises(GroupTableError):
        group_from_json([1, 2, 3])
