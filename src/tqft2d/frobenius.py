"""Commutative Frobenius algebras with exact structure tensors.

An algebra is dimension ``d`` over a :class:`~tqft2d.fields.FieldSpec`
plus four tensors: multiplication ``mu[i][j][k]`` (coefficient of
``e_k`` in ``e_i * e_j``), ``unit`` (image of 1), comultiplication
``delta[k][i][j]`` (coefficient of ``e_i (x) e_j`` in ``delta(e_k)``),
and ``counit``.  Validity is not enforced at construction: the
checkers verify the monoid, comonoid, Frobenius, commutativity, and
nondegeneracy axioms and report every failed coordinate exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator

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
class CheckFailure:
    identity: str
    coordinate: tuple[int, ...]
    lhs: str
    rhs: str

    def __str__(self) -> str:
        at = ",".join(map(str, self.coordinate))
        return f"{self.identity} at ({at}): {self.lhs} != {self.rhs}"


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
# axiom checkers


def _fail(field: Field, identity: str, coord: tuple[int, ...], lhs: Scalar, rhs: Scalar) -> CheckFailure:
    return CheckFailure(identity, coord, field.to_str(lhs), field.to_str(rhs))


def _iter_unit_laws(a: FrobeniusAlgebraData) -> Iterator[CheckFailure]:
    f = make_field(a.field)
    d, mu, unit = a.dim, a.mu, a.unit
    for j in range(d):
        for n in range(d):
            want = f.one if j == n else f.zero
            left = f.normalize(sum(unit[i] * mu[i][j][n] for i in range(d) if unit[i]))
            if left != want:
                yield _fail(f, "unit-left", (j, n), left, want)
            right = f.normalize(sum(unit[i] * mu[j][i][n] for i in range(d) if unit[i]))
            if right != want:
                yield _fail(f, "unit-right", (j, n), right, want)


def _iter_associativity(a: FrobeniusAlgebraData) -> Iterator[CheckFailure]:
    f = make_field(a.field)
    d, mu = a.dim, a.mu
    for i in range(d):
        for j in range(d):
            mij = mu[i][j]
            for k in range(d):
                mjk = mu[j][k]
                for n in range(d):
                    lhs = f.normalize(sum(mij[m] * mu[m][k][n] for m in range(d) if mij[m]))
                    rhs = f.normalize(sum(mjk[m] * mu[i][m][n] for m in range(d) if mjk[m]))
                    if lhs != rhs:
                        yield _fail(f, "associativity", (i, j, k, n), lhs, rhs)


def check_monoid(a: FrobeniusAlgebraData) -> Report:
    """Associativity and the two unit laws, entrywise."""
    return Report(tuple(chain(_iter_associativity(a), _iter_unit_laws(a))))


def _iter_counit_laws(a: FrobeniusAlgebraData) -> Iterator[CheckFailure]:
    f = make_field(a.field)
    d, delta, counit = a.dim, a.delta, a.counit
    for x in range(d):
        for y in range(d):
            want = f.one if x == y else f.zero
            left = f.normalize(sum(counit[i] * delta[x][i][y] for i in range(d) if counit[i]))
            if left != want:
                yield _fail(f, "counit-left", (x, y), left, want)
            right = f.normalize(sum(counit[j] * delta[x][y][j] for j in range(d) if counit[j]))
            if right != want:
                yield _fail(f, "counit-right", (x, y), right, want)


def _iter_coassociativity(a: FrobeniusAlgebraData) -> Iterator[CheckFailure]:
    f = make_field(a.field)
    d, delta = a.dim, a.delta
    for x in range(d):
        dx = delta[x]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    lhs = f.normalize(sum(dx[m][k] * delta[m][i][j] for m in range(d) if dx[m][k]))
                    rhs = f.normalize(sum(dx[i][m] * delta[m][j][k] for m in range(d) if dx[i][m]))
                    if lhs != rhs:
                        yield _fail(f, "coassociativity", (x, i, j, k), lhs, rhs)


def check_comonoid(a: FrobeniusAlgebraData) -> Report:
    """Coassociativity and the two counit laws, entrywise."""
    return Report(tuple(chain(_iter_coassociativity(a), _iter_counit_laws(a))))


def _iter_frobenius(a: FrobeniusAlgebraData) -> Iterator[CheckFailure]:
    f = make_field(a.field)
    d, mu, delta = a.dim, a.mu, a.delta
    for x in range(d):
        for y in range(d):
            mxy = mu[x][y]
            for i in range(d):
                for j in range(d):
                    mid = f.normalize(sum(mxy[k] * delta[k][i][j] for k in range(d) if mxy[k]))
                    left = f.normalize(
                        sum(delta[x][i][q] * mu[q][y][j] for q in range(d) if delta[x][i][q])
                    )
                    right = f.normalize(
                        sum(delta[y][p][j] * mu[x][p][i] for p in range(d) if delta[y][p][j])
                    )
                    if left != mid:
                        yield _fail(f, "frobenius-left", (x, y, i, j), left, mid)
                    if right != mid:
                        yield _fail(f, "frobenius-right", (x, y, i, j), right, mid)


def check_frobenius(a: FrobeniusAlgebraData) -> Report:
    """(id (x) mu).(delta (x) id) = delta.mu = (mu (x) id).(id (x) delta)."""
    return Report(tuple(_iter_frobenius(a)))


def _iter_commutative(a: FrobeniusAlgebraData) -> Iterator[CheckFailure]:
    f = make_field(a.field)
    d = a.dim
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                if a.mu[i][j][k] != a.mu[j][i][k]:
                    yield _fail(f, "commutative-mul", (i, j, k), a.mu[i][j][k], a.mu[j][i][k])
    for x in range(d):
        for i in range(d):
            for j in range(i + 1, d):
                if a.delta[x][i][j] != a.delta[x][j][i]:
                    yield _fail(
                        f, "commutative-comul", (x, i, j), a.delta[x][i][j], a.delta[x][j][i]
                    )


def check_commutative(a: FrobeniusAlgebraData) -> Report:
    """mu . swap = mu and swap . delta = delta (both are required)."""
    return Report(tuple(_iter_commutative(a)))


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


def _iter_nondegenerate(a: FrobeniusAlgebraData) -> Iterator[CheckFailure]:
    f = make_field(a.field)
    d = a.dim
    beta = pairing(a)
    theta = _invert(beta, f)
    if theta is None:
        yield CheckFailure("nondegenerate", (), "singular pairing", "invertible pairing")
        return
    for i in range(d):
        for k in range(d):
            want = f.one if i == k else f.zero
            got = f.normalize(sum(beta[i][j] * theta[j][k] for j in range(d) if beta[i][j]))
            if got != want:
                yield _fail(f, "snake", (i, k), got, want)
    for i in range(d):
        for j in range(d):
            via_delta = f.normalize(
                sum(a.unit[k] * a.delta[k][i][j] for k in range(d) if a.unit[k])
            )
            if via_delta != theta[i][j]:
                yield _fail(f, "copairing-is-delta-of-unit", (i, j), via_delta, theta[i][j])


def check_nondegenerate(a: FrobeniusAlgebraData) -> Report:
    """Snake identity for theta = pairing^-1, and theta = delta(unit)."""
    return Report(tuple(_iter_nondegenerate(a)))


_SECTION_ITERS = (
    ("monoid", lambda a: chain(_iter_associativity(a), _iter_unit_laws(a))),
    ("comonoid", lambda a: chain(_iter_coassociativity(a), _iter_counit_laws(a))),
    ("frobenius", _iter_frobenius),
    ("commutative", _iter_commutative),
    ("nondegenerate", _iter_nondegenerate),
)


def check_all(a: FrobeniusAlgebraData) -> ValidationReport:
    """All five axiom groups; overall pass iff every section passes."""
    return ValidationReport(
        tuple((name, Report(tuple(it(a)))) for name, it in _SECTION_ITERS)
    )


def first_failure(a: FrobeniusAlgebraData) -> CheckFailure | None:
    """First failed identity, scanning cheap checks before O(d^5) ones."""
    scan = chain(
        _iter_unit_laws(a),
        _iter_counit_laws(a),
        _iter_commutative(a),
        _iter_nondegenerate(a),
        _iter_associativity(a),
        _iter_coassociativity(a),
        _iter_frobenius(a),
    )
    return next(scan, None)


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
