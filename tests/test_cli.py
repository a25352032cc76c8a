import json
import sys
from fractions import Fraction

import pytest

from tqft2d import cli
from tqft2d.cli import UsageError, main
from tqft2d.dsl import ParseError, ParseErrorKind, SourceSpan
from tqft2d.evaluator import EvalTooLarge, InvalidAlgebra, genus_invariant
from tqft2d.fields import BadFieldSpec
from tqft2d.frobenius import (
    AlgebraFormatError,
    BadCharacteristic,
    DegeneratePairing,
    DerivedStructureInvalid,
    NonAbelianGroup,
    ValidationReport,
    algebra_to_json,
    derive_comultiplication,
    group_algebra,
    truncated_poly,
)
from tqft2d.groups import (
    EnumerationTooLarge,
    GroupTableError,
    UnknownGroupName,
    cyclic,
    group_to_json,
)
from tqft2d.words import BoundaryMismatch

from conftest import mutate_entry
import random


@pytest.fixture()
def t2_path(tmp_path):
    path = tmp_path / "truncated_poly_2.json"
    path.write_text(json.dumps(algebra_to_json(truncated_poly(2))), encoding="utf-8")
    return str(path)


@pytest.fixture()
def broken_path(tmp_path):
    rng = random.Random(3)
    broken = mutate_entry(truncated_poly(2), rng)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(algebra_to_json(broken)), encoding="utf-8")
    return str(path)


def test_validate_ok(t2_path, capsys):
    assert main(["validate", t2_path]) == 0
    out = capsys.readouterr().out
    assert "monoid: pass" in out
    assert "nondegenerate: pass" in out


def test_validate_broken_names_failed_identity(broken_path, capsys):
    assert main(["validate", broken_path]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert " at (" in out  # at least one named identity with coordinates


def test_validate_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/algebra.json"]) == 2


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(path)]) == 2


def test_eval_identity(t2_path, capsys):
    assert main(["eval", "id", t2_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}


def test_eval_sphere(t2_path, capsys):
    assert main(["eval", "cap ; cup", t2_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == [["0"]]


def test_eval_registry_spec_and_csv(capsys):
    assert main(["eval", "id", "truncated_poly(2)", "--out", "csv"]) == 0
    assert capsys.readouterr().out == "1,0\n0,1\n"


def test_eval_parse_error(t2_path, capsys):
    assert main(["eval", "mu ; mu", t2_path]) == 2


def test_eval_invalid_algebra(broken_path, capsys):
    assert main(["eval", "id", broken_path]) == 1


def test_eval_resource_limit(t2_path, capsys):
    assert main(["--max-entries", "7", "eval", "mu ; delta", t2_path]) == 3


def test_eval_too_large_before_validation(broken_path, capsys):
    assert main(["eval", "id^21", broken_path]) == 3
    assert "layer 0 needs" in capsys.readouterr().err


def test_eval_output_matrix_is_capped(capsys):
    # Each layer is 2^11 entries, but the output is 2^11 x 2^11.
    assert main(["eval", "cup^11 ; cap^11", "truncated_poly(2)"]) == 3
    err = capsys.readouterr().err
    assert "output matrix needs 4194304" in err


def test_eval_word_from_file(tmp_path, t2_path, capsys):
    cob = tmp_path / "word.cob"
    cob.write_text("# a handle\ndelta ; mu\n", encoding="utf-8")
    assert main(["eval", f"@{cob}", t2_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == 2 and doc["cols"] == 2


def test_invariant_values(capsys):
    assert main(["invariant", "--genus", "0", "group_algebra(cyclic(2))"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"

    assert main(["invariant", "--genus", "1", "group_center(S3)"]) == 0
    assert capsys.readouterr().out.strip() == "3"

    assert main(["invariant", "--genus", "2", "truncated_poly(2)"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_invariant_genus_is_capped(capsys):
    assert main(["invariant", "--genus", "1001", "group_center(S3)"]) == 3
    assert "exceeds the cap of 1000" in capsys.readouterr().err
    # sum over the irreps of (|G| / dim)^(2g - 2), 1556 digits
    assert main(["invariant", "--genus", "1000", "group_center(S3)"]) == 0
    assert int(capsys.readouterr().out) == 2 * 6**1998 + 3**1998


def test_invariant_prints_past_the_int_digit_limit(tmp_path, capsys):
    c2 = group_algebra(cyclic(2))
    a = derive_comultiplication(c2.field, 2, c2.mu, c2.unit, (Fraction(1, 100000), Fraction(0)))
    path = tmp_path / "c2_small_counit.json"
    path.write_text(json.dumps(algebra_to_json(a)), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    assert main(["invariant", "--genus", "1000", str(path)]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out.strip()
    assert len(out) > limit
    sys.set_int_max_str_digits(0)
    try:
        assert out == str(genus_invariant(1000, a))
    finally:
        sys.set_int_max_str_digits(limit)


def test_equiv_verdicts(capsys):
    assert main(["equiv", "delta|id;id|mu", "mu;delta"]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"

    assert main(["equiv", "delta ; mu", "id"]) == 1
    assert capsys.readouterr().out.strip() == "not equivalent"


def test_normalize(capsys):
    assert main(["normalize", "id|cap;mu"]) == 0
    assert capsys.readouterr().out.strip() == "id"


def test_relations_ok(t2_path, capsys):
    assert main(["relations", t2_path]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass") == 13


def test_relations_on_broken_algebra(tmp_path, capsys):
    doc = algebra_to_json(truncated_poly(2))
    doc["mu"][0][1][1] = 5  # asymmetric mutation: commutativity must fail
    doc.pop("labels", None)
    path = tmp_path / "warped.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["relations", str(path)]) == 1
    assert "commutativity: FAIL" in capsys.readouterr().out


def test_dw_match(capsys):
    assert main(["dw", "--group", "S3", "--max-genus", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("match") == 4
    assert "MISMATCH" not in out


def test_dw_group_file(tmp_path, capsys):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(group_to_json(cyclic(4))), encoding="utf-8")
    assert main(["dw", "--group-file", str(path), "--max-genus", "2"]) == 0


def test_dw_requires_group(capsys):
    assert main(["dw", "--max-genus", "1"]) == 2


def test_dw_rejects_group_and_group_file(capsys, tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(group_to_json(cyclic(2))), encoding="utf-8")
    assert main(["dw", "--group", "S3", "--group-file", str(path)]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_dw_q8_past_genus_four(capsys):
    assert main(["dw", "--group", "Q8", "--max-genus", "8"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split()[0] for row in rows] == [str(g) for g in range(9)]
    assert all(row.endswith("  match") for row in rows)


def test_field_flag_constructs_prime_registry(capsys):
    assert main(["--field", "7", "invariant", "--genus", "1", "truncated_poly(3)"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_field_flag_rejects_composite(capsys):
    assert main(["--field", "6", "validate", "truncated_poly(2)"]) == 2


def test_unknown_subcommand_is_usage(capsys):
    assert main(["frobnicate"]) == 2


def test_outputs_are_deterministic(t2_path, capsys):
    main(["eval", "delta ; mu", t2_path])
    first = capsys.readouterr().out
    main(["eval", "delta ; mu", t2_path])
    assert capsys.readouterr().out == first


_EMPTY_REPORT = ValidationReport(())


@pytest.mark.parametrize(
    ("exc", "code"),
    [
        (InvalidAlgebra(_EMPTY_REPORT), 1),
        (DegeneratePairing("singular"), 1),
        (DerivedStructureInvalid(_EMPTY_REPORT), 1),
        (NonAbelianGroup("S3"), 1),
        (BadCharacteristic("3 divides 3"), 1),
        (EvalTooLarge(None, 8, 4), 3),
        (EnumerationTooLarge("too many tuples"), 3),
        (ParseError(SourceSpan(1, 1, 1), ParseErrorKind.UNKNOWN_TOKEN, "frob"), 2),
        (UsageError("bad spec"), 2),
        (AlgebraFormatError("bad json"), 2),
        (GroupTableError("not a group"), 2),
        (UnknownGroupName("Z9"), 2),
        (BadFieldSpec("6 is not prime"), 2),
        (BoundaryMismatch(1, 2), 2),
        (ValueError("plain"), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_per_exception(monkeypatch, capsys, exc, code):
    def raise_it(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_normalize", raise_it)
    assert main(["normalize", "id"]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"
