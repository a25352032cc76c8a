"""The one axiom checker against a dense reference, and hand-computed cases."""

import dataclasses
import random
from fractions import Fraction

import pytest

from tqft2d.dsl import parse
from tqft2d.fields import make_field
from tqft2d.frobenius import (
    check_all,
    check_commutative,
    check_nondegenerate,
    first_failure,
    group_algebra,
    registry_algebras,
    truncated_poly,
)
from tqft2d.groups import cyclic

from conftest import mutate_entry, reference_evaluate
from test_frobenius import replace_tensor

# identity -> (section, word reported as lhs, word reported as rhs).  The
# commutative identities report each mismatch once, at i < j on the side
# with two wires, with the unswapped word as lhs.
IDENTITIES = {
    "associativity": ("monoid", "mu | id ; mu", "id | mu ; mu"),
    "unit-left": ("monoid", "cap | id ; mu", "id"),
    "unit-right": ("monoid", "id | cap ; mu", "id"),
    "coassociativity": ("comonoid", "delta ; delta | id", "delta ; id | delta"),
    "counit-left": ("comonoid", "delta ; cup | id", "id"),
    "counit-right": ("comonoid", "delta ; id | cup", "id"),
    "frobenius-left": ("frobenius", "delta | id ; id | mu", "mu ; delta"),
    "frobenius-right": ("frobenius", "id | delta ; mu | id", "mu ; delta"),
    "commutative-mul": ("commutative", "mu", "swap ; mu"),
    "commutative-comul": ("commutative", "delta", "delta ; swap"),
}
# Nondegeneracy compares delta(unit) with the inverse of the pairing.
NONDEGENERATE = ("copairing-is-delta-of-unit", "nondegenerate")


def _digits(index, n, d):
    return tuple((index // d ** (n - 1 - w)) % d for w in range(n))


def _inverse(m, f):
    """Gauss-Jordan inverse of a square matrix of field scalars; None if singular."""
    n = len(m)
    rows = [list(row) + [f.one if i == j else f.zero for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        inv = f.inv(rows[c][c])
        rows[c] = [f.normalize(x * inv) for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                k = rows[r][c]
                rows[r] = [f.normalize(x - k * y) for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _reference_nondegenerate(a):
    """NONDEGENERATE identity -> set of (coordinate, lhs, rhs), from dense evaluations."""
    f, d = make_field(a.field), a.dim
    pairing = reference_evaluate(parse("mu ; cup"), a)
    delta_of_unit = reference_evaluate(parse("cap ; delta"), a)
    theta = _inverse([[pairing.entry(0, i * d + j) for j in range(d)] for i in range(d)], f)
    if theta is None:
        return {"copairing-is-delta-of-unit": set(),
                "nondegenerate": {((), "singular pairing", "invertible pairing")}}
    diffs = set()
    for i in range(d):
        for j in range(d):
            x = delta_of_unit.entry(i * d + j, 0)
            if x != theta[i][j]:
                diffs.add(((i, j), f.to_str(x), f.to_str(theta[i][j])))
    return {"copairing-is-delta-of-unit": diffs, "nondegenerate": set()}


def _reference_failures(a):
    """identity -> set of (coordinate, lhs, rhs) from dense evaluations."""
    f, d = make_field(a.field), a.dim
    matrices = {}
    found = {}
    for identity, (_, lhs_text, rhs_text) in IDENTITIES.items():
        for text in (lhs_text, rhs_text):
            if text not in matrices:
                matrices[text] = reference_evaluate(parse(text), a)
        lhs, ml, mr = parse(lhs_text), matrices[lhs_text], matrices[rhs_text]
        diffs = set()
        for r in range(ml.rows):
            for c in range(ml.cols):
                x, y = ml.entry(r, c), mr.entry(r, c)
                if x == y:
                    continue
                coord = _digits(c, lhs.source, d) + _digits(r, lhs.target, d)
                if identity.startswith("commutative"):
                    i, j = coord[:2] if lhs.source == 2 else coord[-2:]
                    if i > j:
                        continue
                diffs.add((coord, f.to_str(x), f.to_str(y)))
        found[identity] = diffs
    found.update(_reference_nondegenerate(a))
    return found


@pytest.mark.parametrize("name", sorted(registry_algebras()))
def test_check_all_matches_dense_reference_on_mutants(name):
    a = registry_algebras()[name]
    rng = random.Random(f"differential:{name}")
    algebras = [a] + [mutate_entry(a, rng) for _ in range(20)]
    for n, b in enumerate(algebras):
        report = check_all(b)
        expected = _reference_failures(b)
        got = {identity: set() for identity in (*IDENTITIES, *NONDEGENERATE)}
        for failure in report.failures:
            got[failure.identity].add((failure.coordinate, failure.lhs, failure.rhs))
        assert got == expected, (name, n)
        for section, rep in report.sections:
            in_section = [i for i, (s, _, _) in IDENTITIES.items() if s == section]
            if section == "nondegenerate":
                in_section = NONDEGENERATE
            assert rep.ok == all(not expected[i] for i in in_section), (name, n, section)
        assert (first_failure(b) is None) == report.ok, (name, n)
    assert not any(check_all(b).ok for b in algebras[1:]), name


# ---------------------------------------------------------------------------
# hand-computed cases


def test_commutative_mul_failure_is_reported_once_at_i_below_j():
    # In k[C3], e_0 * e_1 = e_1, so mu[0][1][2] = 0 = mu[1][0][2]; the bump
    # makes e_0 * e_1 pick up e_2 while e_1 * e_0 does not.
    broken = replace_tensor(group_algebra(cyclic(3)), "mu", 0, 1, 2, Fraction(1))
    report = check_commutative(broken)
    assert [str(f) for f in report.failures] == ["commutative-mul at (0,1,2): 1 != 0"]
    assert "commutative-mul at (0,1,2): 1 != 0" in [str(f) for f in check_all(broken).failures]


def test_zero_counit_fails_nondegenerate_as_singular_pairing():
    broken = dataclasses.replace(truncated_poly(2), counit=(Fraction(0), Fraction(0)))
    report = check_nondegenerate(broken)
    assert [str(f) for f in report.failures] == [
        "nondegenerate at (): singular pairing != invertible pairing"
    ]


def test_bumped_counit_fails_copairing_is_delta_of_unit():
    # k[x]/(x^2) with counit (1, 1): the pairing is [[1, 1], [1, 0]], its
    # inverse [[0, 1], [1, -1]], while delta(unit) = e_0 e_1 + e_1 e_0 is
    # unchanged.
    broken = dataclasses.replace(truncated_poly(2), counit=(Fraction(1), Fraction(1)))
    report = check_nondegenerate(broken)
    assert [str(f) for f in report.failures] == ["copairing-is-delta-of-unit at (1,1): 0 != -1"]


def test_first_failure_prefers_the_cheap_identity():
    # k[x]/(x^2) with e_0 * e_0 = 2 e_0: the unit law fails at (0,0), and
    # associativity fails too: (e_0 e_0) e_1 = 2 e_1 but e_0 (e_0 e_1) = e_1.
    broken = replace_tensor(truncated_poly(2), "mu", 0, 0, 0, Fraction(2))
    identities = {f.identity for f in check_all(broken).failures}
    assert {"unit-left", "unit-right", "associativity"} <= identities
    assert str(first_failure(broken)) == "unit-left at (0,0): 2 != 1"


def test_first_failure_merges_the_unit_laws_by_coordinate():
    # unit-right fails at (1,0) (e_1 * e_0 picks up e_0) and unit-left at
    # (1,1) (e_0 * e_1 = 2 e_1); (1,0) comes first although unit-left is
    # listed first.
    broken = replace_tensor(truncated_poly(2), "mu", 1, 0, 0, Fraction(1))
    broken = replace_tensor(broken, "mu", 0, 1, 1, Fraction(2))
    failures = [str(f) for f in check_all(broken).failures]
    assert "unit-left at (1,1): 2 != 1" in failures
    assert str(first_failure(broken)) == "unit-right at (1,0): 1 != 0"
