"""Command-line front end.

Subcommands: validate, eval, invariant, equiv, normalize, relations, dw.
Words are taken inline or from a ``.cob`` file when the argument starts
with ``@``; algebras are JSON files or registry specs such as
``truncated_poly(3)``, ``group_algebra(cyclic(4))``, ``group_center(S3)``.
All numeric output is exact ("a/b" strings or residues, never floats).

Exit codes: 0 success, 1 check failure, 2 usage/parse error,
3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from itertools import repeat

from . import dsl
from .evaluator import (
    DEFAULT_CONFIG,
    EvalConfig,
    EvalTooLarge,
    InvalidAlgebra,
    check_relations,
    evaluate,
    genus_invariant,
    genus_invariants,
    matrix_to_csv,
    matrix_to_json,
    relation_table,
)
from .fields import FieldSpec, RATIONAL, BadFieldSpec, make_field
from .frobenius import (
    BadCharacteristic,
    DegeneratePairing,
    DerivedStructureInvalid,
    FrobeniusAlgebraData,
    NonAbelianGroup,
    check_all,
    group_algebra,
    group_center,
    load_algebra,
    truncated_poly,
)
from .groups import (
    EnumerationTooLarge,
    FiniteGroup,
    builtin,
    cyclic,
    dw_series,
    load_group,
    product,
)
from .words import is_equivalent, normal_form

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class UsageError(ValueError):
    pass


# Exit code per exception class; an exception takes the code of the
# nearest class in its MRO, so every other ValueError (parse errors,
# malformed files, bad specs) is a usage error.
_EXIT_CODES: dict[type[Exception], int] = {
    InvalidAlgebra: EXIT_CHECK_FAILED,
    DegeneratePairing: EXIT_CHECK_FAILED,
    DerivedStructureInvalid: EXIT_CHECK_FAILED,
    NonAbelianGroup: EXIT_CHECK_FAILED,
    BadCharacteristic: EXIT_CHECK_FAILED,
    EvalTooLarge: EXIT_RESOURCE,
    EnumerationTooLarge: EXIT_RESOURCE,
    ValueError: EXIT_USAGE,
}


def _read_word(arg: str):
    if arg.startswith("@"):
        try:
            with open(arg[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read word file {arg[1:]!r}: {exc}") from exc
    else:
        text = arg
    return dsl.parse(text)


_GROUP_RE = re.compile(r"^(cyclic)\((\d+)\)$|^(S3|D4|Q8)$", re.IGNORECASE)


def _parse_group_spec(spec: str) -> FiniteGroup:
    s = spec.strip()
    if s.lower().startswith("product(") and s.endswith(")"):
        inner = s[len("product(") : -1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return product(_parse_group_spec(inner[:i]), _parse_group_spec(inner[i + 1 :]))
        raise UsageError(f"bad group spec {spec!r}")
    m = _GROUP_RE.match(s)
    if not m:
        raise UsageError(f"bad group spec {spec!r} (try cyclic(N), S3, D4, Q8, product(..,..))")
    if m.group(1):
        return cyclic(int(m.group(2)))
    return builtin(m.group(3))


_ALGEBRA_RE = re.compile(
    r"^(truncated_poly)\((\d+)\)$|^(group_algebra|group_center)\((.+)\)$", re.IGNORECASE
)


def _read_algebra(arg: str, field: FieldSpec) -> FrobeniusAlgebraData:
    m = _ALGEBRA_RE.match(arg.strip())
    if m:
        if m.group(1):
            return truncated_poly(int(m.group(2)), field)
        ctor = group_algebra if m.group(3).lower() == "group_algebra" else group_center
        return ctor(_parse_group_spec(m.group(4)), field)
    try:
        return load_algebra(arg)
    except OSError as exc:
        raise UsageError(f"cannot read algebra {arg!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {arg!r}: {exc}") from exc


def _scalar_str(field: FieldSpec, value) -> str:
    return make_field(field).to_str(value)


@contextmanager
def _long_ints():
    """Lift Python's limit on int-to-str digits while results are computed
    and printed; the caps on genus and word size bound them.  Input is
    read under the limit, because reading a long digit string takes time
    quadratic in its length."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before Python 3.10.7: no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_validate(args: argparse.Namespace) -> int:
    algebra = _read_algebra(args.algebra, args.field)
    with _long_ints():
        report = check_all(algebra)
        for name, section in report.sections:
            status = "pass" if section.ok else "FAIL"
            print(f"{name}: {status}")
            for failure in section.failures:
                print(f"  {failure}")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_eval(args: argparse.Namespace) -> int:
    w = _read_word(args.word)
    algebra = _read_algebra(args.algebra, args.field)
    with _long_ints():
        matrix = evaluate(w, algebra, args.config)
        if args.out == "csv":
            sys.stdout.write(matrix_to_csv(matrix))
        else:
            print(json.dumps(matrix_to_json(matrix)))
    return EXIT_OK


def cmd_invariant(args: argparse.Namespace) -> int:
    algebra = _read_algebra(args.algebra, args.field)
    with _long_ints():
        print(_scalar_str(algebra.field, genus_invariant(args.genus, algebra)))
    return EXIT_OK


def cmd_equiv(args: argparse.Namespace) -> int:
    w1 = _read_word(args.word1)
    w2 = _read_word(args.word2)
    if is_equivalent(w1, w2):
        print("equivalent")
        return EXIT_OK
    print("not equivalent")
    return EXIT_CHECK_FAILED


def cmd_normalize(args: argparse.Namespace) -> int:
    print(dsl.format_word(normal_form(_read_word(args.word))))
    return EXIT_OK


def cmd_relations(args: argparse.Namespace) -> int:
    algebra = _read_algebra(args.algebra, args.field)
    report = check_relations(algebra, args.config)
    failed = {f.name for f in report.failures}
    for name, _, _ in relation_table():
        print(f"{name}: {'FAIL' if name in failed else 'pass'}")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_dw(args: argparse.Namespace) -> int:
    if args.group_file:
        group = load_group(args.group_file)
    else:
        group = _parse_group_spec(args.group)
    center = group_center(group, RATIONAL)
    algebra_side = group_algebra(group, RATIONAL) if group.is_abelian() else None
    all_match = True
    print("genus  oracle  evaluator  verdict")
    # Each series keeps its state from one genus to the next.
    rows = zip(
        range(args.max_genus + 1),
        dw_series(group),
        genus_invariants(center),
        genus_invariants(algebra_side) if algebra_side is not None else repeat(None),
    )
    with _long_ints():
        for genus, oracle, value, algebra_value in rows:
            ok = oracle == value
            if algebra_value is not None:
                ok = ok and algebra_value == oracle
            all_match = all_match and ok
            verdict = "match" if ok else "MISMATCH"
            print(f"{genus}  {oracle}  {_scalar_str(center.field, value)}  {verdict}")
    return EXIT_OK if all_match else EXIT_CHECK_FAILED


def _field_arg(text: str) -> FieldSpec:
    if text == "rational":
        return RATIONAL
    try:
        return FieldSpec(prime=int(text))
    except (ValueError, BadFieldSpec) as exc:
        raise argparse.ArgumentTypeError(f"--field must be 'rational' or a prime: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqft2d",
        description="Parse, normalize, and exactly evaluate 2d cobordism words.",
    )
    parser.add_argument(
        "--max-entries",
        type=int,
        default=DEFAULT_CONFIG.max_tensor_entries,
        help="cap on tensor entries per layer map and in the output matrix",
    )
    parser.add_argument(
        "--field",
        type=_field_arg,
        default=RATIONAL,
        help="coefficient field for registry algebras: 'rational' or a prime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run all axiom checks on an algebra")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="evaluate a word to an exact matrix")
    p.add_argument("word")
    p.add_argument("algebra")
    p.add_argument("--out", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("invariant", help="closed genus-g surface invariant")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("algebra")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("equiv", help="decide diffeomorphism equivalence of two words")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("normalize", help="print the canonical form of a word")
    p.add_argument("word")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("relations", help="check the 13 generator relations")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("dw", help="cross-check the evaluator against the group oracle")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--group", help="group spec, e.g. cyclic(3), S3, product(cyclic(2),cyclic(2))")
    source.add_argument("--group-file", help="path to a group JSON file")
    p.add_argument("--max-genus", type=int, default=2)
    p.set_defaults(func=cmd_dw)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        args.config = EvalConfig(max_tensor_entries=args.max_entries)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    raise SystemExit(main())
