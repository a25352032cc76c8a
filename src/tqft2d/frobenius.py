"""Commutative Frobenius algebras with exact structure tensors.

An algebra is dimension ``d`` over a :class:`~tqft2d.fields.FieldSpec`
plus four tensors: multiplication ``mu[i][j][k]`` (coefficient of
``e_k`` in ``e_i * e_j``), ``unit`` (image of 1), comultiplication
``delta[k][i][j]`` (coefficient of ``e_i (x) e_j`` in ``delta(e_k)``),
and ``counit``.  Validity is not enforced at construction: the
checkers verify the monoid, comonoid, Frobenius, commutativity, and
nondegeneracy axioms and report every failed coordinate exactly.

The axioms are the generator relations of 2Cob, so each one is a pair
of cobordism words in the table of :mod:`tqft2d.axioms`.  A check runs
both words on the integer kernel there and reports every entry where
they differ.  A failure's coordinate is the base-d digits of the
entry's input index (one per input wire, wire 0 first) followed by
those of its output index; for associativity, ``(i, j, k, n)`` compares
the ``e_n`` coefficients of ``(e_i e_j) e_k`` and ``e_i (e_j e_k)``.
Nondegeneracy needs the inverse of the pairing, so it is not a word
identity: the pairing must be invertible, and ``delta(unit)`` (the word
``cap ; delta``) must equal its inverse, the copairing, at every
``(i, j)``.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator

from . import dsl
from .axioms import WORD_PAIRS, CheckFailure, WordPair, word_entries, word_failures
from .fields import (
    RATIONAL,
    Field,
    FieldSpec,
    Scalar,
    field_spec_from_json,
    field_spec_to_json,
    make_field,
)
from .groups import FiniteGroup, builtin, conjugacy_classes, cyclic, product

Tensor3 = tuple[tuple[tuple[Scalar, ...], ...], ...]
Vector = tuple[Scalar, ...]
Matrix = tuple[tuple[Scalar, ...], ...]


class DegeneratePairing(ValueError):
    """The pairing beta = counit . mu is singular."""


class DerivedStructureInvalid(ValueError):
    """The comultiplication forced by (mu, unit, counit) fails the axioms."""

    def __init__(self, report: "ValidationReport") -> None:
        super().__init__("derived comultiplication violates the axioms")
        self.report = report


class NonAbelianGroup(ValueError):
    pass


class BadCharacteristic(ValueError):
    pass


class AlgebraFormatError(ValueError):
    """Malformed algebra JSON."""


@dataclass(frozen=True)
class Report:
    failures: tuple[CheckFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class ValidationReport:
    """Named sub-reports from check_all, in check order."""

    sections: tuple[tuple[str, Report], ...]

    @property
    def ok(self) -> bool:
        return all(rep.ok for _, rep in self.sections)

    @property
    def failures(self) -> tuple[CheckFailure, ...]:
        return tuple(f for _, rep in self.sections for f in rep.failures)


@dataclass(frozen=True)
class FrobeniusAlgebraData:
    field: FieldSpec
    dim: int
    mu: Tensor3
    unit: Vector
    delta: Tensor3
    counit: Vector
    basis_labels: tuple[str, ...] | None = None
    # Hashing d^3 Fractions is slow, and every cache lookup hashes.
    _hash: int = dataclass_field(default=0, init=False, repr=False, compare=False)
    # The integer kernel's tables, built on first use by axioms._int_tables.
    _int_tables: object = dataclass_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = self.dim
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        for name, t in (("mu", self.mu), ("delta", self.delta)):
            if len(t) != d or any(len(p) != d for p in t) or any(
                len(row) != d for p in t for row in p
            ):
                raise ValueError(f"{name} must be a {d}x{d}x{d} tensor")
        for name, v in (("unit", self.unit), ("counit", self.counit)):
            if len(v) != d:
                raise ValueError(f"{name} must have length {d}")
        if self.basis_labels is not None and len(self.basis_labels) != d:
            raise ValueError("basis_labels length must equal dim")
        ok = (
            (lambda x: isinstance(x, Fraction))
            if self.field.is_rational
            else (lambda x: isinstance(x, int) and 0 <= x < self.field.prime)
        )
        tensor_entries = (
            x for t in (self.mu, self.delta) for plane in t for row in plane for x in row
        )
        for x in chain(self.unit, self.counit, tensor_entries):
            if not ok(x):
                raise ValueError(f"entry {x!r} is not a canonical {self.field} scalar")
        key = (self.field, d, self.mu, self.unit, self.delta, self.counit, self.basis_labels)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash


def _freeze3(t: Iterable[Iterable[Iterable[Scalar]]]) -> Tensor3:
    return tuple(tuple(tuple(row) for row in plane) for plane in t)


# ---------------------------------------------------------------------------
# axiom checkers: views over the word table in ``axioms``


# The axiom identities by section and shape, in table order.  Failures
# of one group are merged by coordinate, as the index loops listed them.
_GROUPS: dict[tuple[str, int, int], list[WordPair]] = {}
for _p in WORD_PAIRS:
    if _p.section is not None:
        _GROUPS.setdefault((_p.section, _p.lhs.source, _p.lhs.target), []).append(_p)

_DELTA_OF_UNIT = dsl.parse("cap ; delta")


def _merged(a: FrobeniusAlgebraData, key: tuple[str, int, int]) -> Iterator[CheckFailure]:
    failures = (word_failures(a, p) for p in _GROUPS[key])
    return heapq.merge(*failures, key=lambda f: f.coordinate)


def _section(a: FrobeniusAlgebraData, section: str) -> Report:
    if section == "nondegenerate":
        return Report(tuple(_nondegenerate_failures(a)))
    # Words with more inputs, then more outputs, first.  `validate`
    # prints failures in this order, so its output stays stable.
    keys = sorted((k for k in _GROUPS if k[0] == section), key=lambda k: (-k[1], -k[2]))
    return Report(tuple(chain.from_iterable(_merged(a, k) for k in keys)))


def check_monoid(a: FrobeniusAlgebraData) -> Report:
    """Associativity and the two unit laws, entrywise."""
    return _section(a, "monoid")


def check_comonoid(a: FrobeniusAlgebraData) -> Report:
    """Coassociativity and the two counit laws, entrywise."""
    return _section(a, "comonoid")


def check_frobenius(a: FrobeniusAlgebraData) -> Report:
    """(id (x) mu).(delta (x) id) = delta.mu = (mu (x) id).(id (x) delta)."""
    return _section(a, "frobenius")


def check_commutative(a: FrobeniusAlgebraData) -> Report:
    """mu . swap = mu and swap . delta = delta (both are required)."""
    return _section(a, "commutative")


def check_nondegenerate(a: FrobeniusAlgebraData) -> Report:
    """The pairing is invertible and its inverse is delta(unit)."""
    return _section(a, "nondegenerate")


def _nondegenerate_failures(a: FrobeniusAlgebraData) -> Iterator[CheckFailure]:
    f = make_field(a.field)
    theta = _invert(pairing(a), f)
    if theta is None:
        yield CheckFailure("nondegenerate", (), "singular pairing", "invertible pairing")
        return
    delta_of_unit = word_entries(_DELTA_OF_UNIT, a)  # entry i*d + j is delta(unit)[i][j]
    for i, row in enumerate(theta):
        for j, want in enumerate(row):
            got = delta_of_unit[i * a.dim + j]
            if got != want:
                yield CheckFailure(
                    "copairing-is-delta-of-unit", (i, j), f.to_str(got), f.to_str(want)
                )


def pairing(a: FrobeniusAlgebraData) -> Matrix:
    """beta[i][j] = counit(e_i * e_j)."""
    f = make_field(a.field)
    d = a.dim
    return tuple(
        tuple(
            f.normalize(sum(a.mu[i][j][k] * a.counit[k] for k in range(d) if a.mu[i][j][k]))
            for j in range(d)
        )
        for i in range(d)
    )


def _invert(matrix: Matrix, f: Field) -> Matrix | None:
    d = len(matrix)
    aug = [list(row) + [f.one if i == j else f.zero for j in range(d)] for i, row in enumerate(matrix)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = f.inv(aug[col][col])
        aug[col] = [f.normalize(x * pv) for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [f.normalize(x - factor * y) for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


def copairing(a: FrobeniusAlgebraData) -> Matrix:
    """The matrix inverse of the pairing; theta with beta . theta = id."""
    f = make_field(a.field)
    theta = _invert(pairing(a), f)
    if theta is None:
        raise DegeneratePairing(f"pairing of the dim-{a.dim} algebra over {a.field} is singular")
    return theta


_SECTIONS = ("monoid", "comonoid", "frobenius", "commutative", "nondegenerate")


def check_all(a: FrobeniusAlgebraData) -> ValidationReport:
    """All five axiom groups; overall pass iff every section passes."""
    return ValidationReport(tuple((name, _section(a, name)) for name in _SECTIONS))


# Groups with at most three boundary circles have O(d^3) entries to
# compare; the rest have d^4.
_CHEAP = [k for k in _GROUPS if k[1] + k[2] <= 3]
_DEAR = [k for k in _GROUPS if k[1] + k[2] > 3]


def first_failure(a: FrobeniusAlgebraData) -> CheckFailure | None:
    """First failed identity: unit, counit and commutativity laws, then
    nondegeneracy, then associativity, coassociativity and Frobenius."""
    cheap = (f for k in _CHEAP for f in _merged(a, k))
    dear = (f for k in _DEAR for f in _merged(a, k))
    return next(chain(cheap, _nondegenerate_failures(a), dear), None)


@lru_cache(maxsize=256)
def cached_check_all(a: FrobeniusAlgebraData) -> ValidationReport:
    return check_all(a)


# ---------------------------------------------------------------------------
# derived structure and constructions


def derive_comultiplication(
    field: FieldSpec,
    dim: int,
    mu: Tensor3,
    unit: Vector,
    counit: Vector,
) -> FrobeniusAlgebraData:
    """The unique comultiplication compatible with (mu, unit, counit).

    delta(a) = sum_{i,j} theta[i][j] (a * e_i) (x) e_j with theta the
    inverse pairing.  Raises :class:`DegeneratePairing` if the pairing
    is singular, and :class:`DerivedStructureInvalid` if the result
    fails the comonoid or Frobenius axioms (as happens whenever mu is
    not associative or the pairing is not associative).
    """
    f = make_field(field)
    zero_delta = _freeze3([[[f.zero] * dim] * dim] * dim)
    partial = FrobeniusAlgebraData(field, dim, mu, unit, zero_delta, counit)
    beta = pairing(partial)
    theta = _invert(beta, f)
    if theta is None:
        raise DegeneratePairing("pairing is singular; no comultiplication exists")
    delta = _freeze3(
        [
            [
                [
                    f.normalize(sum(theta[i][j] * mu[a][i][m] for i in range(dim) if theta[i][j]))
                    for j in range(dim)
                ]
                for m in range(dim)
            ]
            for a in range(dim)
        ]
    )
    result = replace(partial, delta=delta)
    report = ValidationReport(
        (
            ("comonoid", check_comonoid(result)),
            ("frobenius", check_frobenius(result)),
        )
    )
    if not report.ok:
        raise DerivedStructureInvalid(report)
    return result


def truncated_poly(n: int, field: FieldSpec = RATIONAL) -> FrobeniusAlgebraData:
    """k[x]/(x^n) with counit picking the x^(n-1) coefficient."""
    if n < 1:
        raise ValueError(f"truncated_poly needs n >= 1, got {n}")
    f = make_field(field)
    one, zero = f.one, f.zero
    mu = _freeze3(
        [
            [[one if i + j == k else zero for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
    )
    unit = tuple(one if i == 0 else zero for i in range(n))
    delta = _freeze3(
        [
            [[one if i + j == k + n - 1 else zero for j in range(n)] for i in range(n)]
            for k in range(n)
        ]
    )
    counit = tuple(one if i == n - 1 else zero for i in range(n))
    labels = tuple("1" if i == 0 else ("x" if i == 1 else f"x^{i}") for i in range(n))
    return FrobeniusAlgebraData(field, n, mu, unit, delta, counit, labels)


def _check_characteristic(g_order: int, field: FieldSpec) -> None:
    if field.prime is not None and g_order % field.prime == 0:
        raise BadCharacteristic(
            f"field characteristic {field.prime} divides the group order {g_order}"
        )


def group_algebra(g: FiniteGroup, field: FieldSpec = RATIONAL) -> FrobeniusAlgebraData:
    """k[G] for abelian G, normalized so the sphere evaluates to 1/|G|."""
    if not g.is_abelian():
        raise NonAbelianGroup("group algebra of a non-abelian group is not commutative")
    _check_characteristic(g.order, field)
    f = make_field(field)
    n = g.order
    one, zero = f.one, f.zero
    mu = _freeze3(
        [
            [[one if g.mul(i, j) == k else zero for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
    )
    unit = tuple(one if i == g.identity else zero for i in range(n))
    inv_order = f.inv(f.from_int(n))
    counit = tuple(inv_order if i == g.identity else zero for i in range(n))
    derived = derive_comultiplication(field, n, mu, unit, counit)
    labels = tuple(g.name_of(i) for i in range(n))
    return replace(derived, basis_labels=labels)


def group_center(g: FiniteGroup, field: FieldSpec = RATIONAL) -> FrobeniusAlgebraData:
    """Center of k[G] on the class-sum basis; commutative for any G."""
    _check_characteristic(g.order, field)
    f = make_field(field)
    classes = conjugacy_classes(g)
    m = len(classes)
    reps = [cls[0] for cls in classes]
    class_of = {}
    for idx, cls in enumerate(classes):
        for elem in cls:
            class_of[elem] = idx
    mu = _freeze3(
        [
            [
                [
                    f.from_int(
                        sum(1 for c in classes[i] for e in classes[j] if g.mul(c, e) == reps[k])
                    )
                    for k in range(m)
                ]
                for j in range(m)
            ]
            for i in range(m)
        ]
    )
    e_class = class_of[g.identity]
    unit = tuple(f.one if i == e_class else f.zero for i in range(m))
    inv_order = f.inv(f.from_int(g.order))
    counit = tuple(inv_order if i == e_class else f.zero for i in range(m))
    derived = derive_comultiplication(field, m, mu, unit, counit)
    labels = tuple("z[" + "+".join(g.name_of(e) for e in cls) + "]" for cls in classes)
    return replace(derived, basis_labels=labels)


@lru_cache(maxsize=1)
def registry_algebras() -> dict[str, FrobeniusAlgebraData]:
    """The named acceptance registry; every entry passes check_all."""
    f7 = FieldSpec(prime=7)
    reg: dict[str, FrobeniusAlgebraData] = {}
    for n in (2, 3, 4):
        reg[f"truncated_poly_{n}"] = truncated_poly(n, RATIONAL)
        reg[f"truncated_poly_{n}_f7"] = truncated_poly(n, f7)
    for n in (2, 3, 4, 5):
        reg[f"group_algebra_c{n}"] = group_algebra(cyclic(n), RATIONAL)
    reg["group_algebra_c2xc2"] = group_algebra(product(cyclic(2), cyclic(2)), RATIONAL)
    reg["group_center_s3"] = group_center(builtin("S3"), RATIONAL)
    reg["group_center_d4"] = group_center(builtin("D4"), RATIONAL)
    reg["group_center_q8"] = group_center(builtin("Q8"), RATIONAL)
    return reg


# ---------------------------------------------------------------------------
# JSON representation


def algebra_to_json(a: FrobeniusAlgebraData) -> dict:
    f = make_field(a.field)
    doc: dict = {
        "field": field_spec_to_json(a.field),
        "dim": a.dim,
        "mu": [[[f.to_json(x) for x in row] for row in plane] for plane in a.mu],
        "unit": [f.to_json(x) for x in a.unit],
        "delta": [[[f.to_json(x) for x in row] for row in plane] for plane in a.delta],
        "counit": [f.to_json(x) for x in a.counit],
    }
    if a.basis_labels is not None:
        doc["labels"] = list(a.basis_labels)
    return doc


def algebra_from_json(doc: object) -> FrobeniusAlgebraData:
    if not isinstance(doc, dict):
        raise AlgebraFormatError("algebra JSON must be an object")
    try:
        spec = field_spec_from_json(doc["field"])
        dim = doc["dim"]
        raw_mu = doc["mu"]
        raw_unit = doc["unit"]
        raw_counit = doc["counit"]
    except KeyError as exc:
        raise AlgebraFormatError(f"algebra JSON missing key {exc}") from exc
    except ValueError as exc:
        raise AlgebraFormatError(str(exc)) from exc
    if not isinstance(dim, int) or dim < 1:
        raise AlgebraFormatError(f"bad dimension {dim!r}")
    f = make_field(spec)

    def vec(raw: object, name: str) -> Vector:
        if not isinstance(raw, list) or len(raw) != dim:
            raise AlgebraFormatError(f"{name} must be a list of length {dim}")
        return tuple(f.parse(x) for x in raw)

    def tens(raw: object, name: str) -> Tensor3:
        if (
            not isinstance(raw, list)
            or len(raw) != dim
            or any(not isinstance(p, list) or len(p) != dim for p in raw)
            or any(not isinstance(r, list) or len(r) != dim for p in raw for r in p)
        ):
            raise AlgebraFormatError(f"{name} must be a {dim}x{dim}x{dim} nested list")
        return _freeze3([[[f.parse(x) for x in row] for row in plane] for plane in raw])

    try:
        mu = tens(raw_mu, "mu")
        unit = vec(raw_unit, "unit")
        counit = vec(raw_counit, "counit")
        labels_raw = doc.get("labels")
        labels = tuple(str(s) for s in labels_raw) if labels_raw is not None else None
        if "delta" in doc:
            delta = tens(doc["delta"], "delta")
            return FrobeniusAlgebraData(spec, dim, mu, unit, delta, counit, labels)
        derived = derive_comultiplication(spec, dim, mu, unit, counit)
        return replace(derived, basis_labels=labels)
    except (DegeneratePairing, DerivedStructureInvalid, AlgebraFormatError):
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise AlgebraFormatError(str(exc)) from exc


def load_algebra(path: str) -> FrobeniusAlgebraData:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_json(json.load(fh))
