"""Exact scalars over the rationals or a prime field.

Scalars are plain payloads: ``Fraction`` over the rationals, canonical
residues (``int`` in ``[0, p)``) over a prime field.  A :class:`Field`
object carries the :class:`FieldSpec` and knows how to construct,
normalize, invert, parse, and print payloads.  Addition and
multiplication of payloads use the native ``+``/``*`` operators;
prime-field results must be passed through :meth:`Field.normalize`
once per accumulated value.  Everything is exact; nothing is ever
rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

Scalar = Union[Fraction, int]

_PRIME_CAP = 2**31


class BadFieldSpec(ValueError):
    """Raised for a non-prime or out-of-range prime modulus."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: rationals (``prime=None``) or GF(prime)."""

    prime: int | None = None

    def __post_init__(self) -> None:
        if self.prime is not None:
            if not (2 <= self.prime < _PRIME_CAP):
                raise BadFieldSpec(f"prime modulus must be in [2, 2^31), got {self.prime}")
            if not _is_prime(self.prime):
                raise BadFieldSpec(f"{self.prime} is not prime")

    @property
    def is_rational(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "rational" if self.prime is None else f"prime({self.prime})"


RATIONAL = FieldSpec()


class Field:
    """Arithmetic context for one :class:`FieldSpec`."""

    def __init__(self, spec: FieldSpec) -> None:
        self.spec = spec
        self.prime = spec.prime
        if spec.is_rational:
            self.zero: Scalar = Fraction(0)
            self.one: Scalar = Fraction(1)
        else:
            self.zero = 0
            self.one = 1

    def from_int(self, n: int) -> Scalar:
        if self.prime is None:
            return Fraction(n)
        return n % self.prime

    def normalize(self, x: Scalar) -> Scalar:
        """Reduce an accumulated raw value to canonical form."""
        if self.prime is None:
            return x if type(x) is Fraction else Fraction(x)
        return x % self.prime

    def inv(self, x: Scalar) -> Scalar:
        if not x:
            raise ZeroDivisionError(f"division by zero in {self.spec}")
        if self.prime is None:
            return 1 / x
        return pow(x, -1, self.prime)

    def parse(self, value: int | str) -> Scalar:
        """Read a JSON scalar: an int, or an ``"a/b"`` / ``"a"`` string."""
        if isinstance(value, bool):
            raise ValueError(f"not a field value: {value!r}")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, str):
            frac = Fraction(value.strip())
            if self.prime is None:
                return frac
            if frac.denominator % self.prime == 0:
                raise ZeroDivisionError(f"{value!r} has no residue mod {self.prime}")
            return (frac.numerator * pow(frac.denominator, -1, self.prime)) % self.prime
        raise ValueError(f"not a field value: {value!r}")

    def to_str(self, x: Scalar) -> str:
        return str(x)

    def to_json(self, x: Scalar) -> int | str:
        if self.prime is not None:
            return int(x)
        if x.denominator == 1:
            return int(x)
        return str(x)

    def __repr__(self) -> str:
        return f"Field({self.spec})"


@lru_cache(maxsize=None)
def make_field(spec: FieldSpec) -> Field:
    return Field(spec)


def field_spec_to_json(spec: FieldSpec) -> str | dict:
    return "rational" if spec.is_rational else {"prime": spec.prime}


def field_spec_from_json(obj: object) -> FieldSpec:
    if obj == "rational":
        return RATIONAL
    if isinstance(obj, dict) and set(obj) == {"prime"} and isinstance(obj["prime"], int):
        return FieldSpec(prime=obj["prime"])
    raise ValueError(f"bad field spec: {obj!r}")
