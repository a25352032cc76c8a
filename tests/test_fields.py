from fractions import Fraction

import pytest

from tqft2d.fields import (
    RATIONAL,
    BadFieldSpec,
    FieldSpec,
    field_spec_from_json,
    field_spec_to_json,
    make_field,
)


def test_rational_spec_roundtrip():
    assert field_spec_from_json(field_spec_to_json(RATIONAL)) == RATIONAL
    assert field_spec_from_json(field_spec_to_json(FieldSpec(prime=7))) == FieldSpec(prime=7)


@pytest.mark.parametrize("bad", [1, 4, 9, 15, 2**31 + 11, -3])
def test_rejects_non_primes(bad):
    with pytest.raises(BadFieldSpec):
        FieldSpec(prime=bad)


def test_rational_arithmetic_is_exact():
    f = make_field(RATIONAL)
    third = f.parse("1/3")
    assert third * 3 == f.one
    assert f.normalize(sum(third for _ in range(3))) == Fraction(1)
    assert f.inv(Fraction(2, 5)) == Fraction(5, 2)


def test_prime_field_canonical_residues():
    f = make_field(FieldSpec(prime=7))
    assert f.from_int(10) == 3
    assert f.normalize(6 * 6) == 1
    assert f.inv(3) == 5  # 3 * 5 = 15 = 1 mod 7
    assert f.parse("1/2") == 4  # 2 * 4 = 8 = 1 mod 7


def test_prime_parse_rejects_bad_denominator():
    f = make_field(FieldSpec(prime=5))
    with pytest.raises(ZeroDivisionError):
        f.parse("1/5")


def test_json_scalars():
    fq = make_field(RATIONAL)
    assert fq.to_json(Fraction(3, 2)) == "3/2"
    assert fq.to_json(Fraction(4)) == 4
    fp = make_field(FieldSpec(prime=11))
    assert fp.to_json(9) == 9
    assert fp.parse("9") == 9


def test_normalize_coerces_bare_ints_over_rationals():
    f = make_field(RATIONAL)
    out = f.normalize(0)
    assert type(out) is Fraction


def test_inv_zero_raises():
    for spec in (RATIONAL, FieldSpec(prime=3)):
        f = make_field(spec)
        with pytest.raises(ZeroDivisionError):
            f.inv(f.zero)
