"""Command-line interface: subcommands, formats, exit codes, streams."""

import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import lcfield
from lcfield import dsl, make_real

from lcfield.cli import (
    MAX_PRECISION,
    UsageError,
    build_parser,
    load_corpus,
    main,
    parse_bindings,
    run,
)
from lcfield.core import MAX_DIGITS
from lcfield.dsl import MAX_TERMS, MAX_VARIABLES

RATIONAL = r"^-?\d+(/\d+)?$"

LC_NUMBER_SCHEMA = {
    "type": "object",
    "required": ["terms", "precision"],
    "additionalProperties": False,
    "properties": {
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["exp", "coef"],
                "additionalProperties": False,
                "properties": {
                    "exp": {"type": "string", "pattern": RATIONAL},
                    "coef": {"type": "string", "pattern": RATIONAL},
                },
            },
        },
        "precision": {"type": "integer", "minimum": 1},
    },
}

GALLERY_SCHEMA = {
    "type": "object",
    "required": ["example", "parameters", "claims", "pass"],
    "additionalProperties": False,
    "properties": {
        "example": {"type": "string"},
        "parameters": {"type": "array", "items": {"type": "string"}},
        "claims": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["description", "computed", "expected", "pass"],
                "additionalProperties": False,
                "properties": {
                    "description": {"type": "string"},
                    "computed": {"type": "string"},
                    "expected": {"type": "string"},
                    "pass": {"type": "boolean"},
                },
            },
        },
        "pass": {"type": "boolean"},
    },
}

SAMPLE_SCHEMA = {
    "type": "object",
    "required": ["point", "agree"],
    "additionalProperties": False,
    "properties": {
        "point": {"type": ["object", "null"], "additionalProperties": {"type": "string"}},
        "agree": {"type": ["boolean", "null"]},
    },
    # a point has a verdict; an inconclusive sample has neither
    "oneOf": [
        {"properties": {"point": {"type": "object"}, "agree": {"type": "boolean"}}},
        {"properties": {"point": {"type": "null"}, "agree": {"type": "null"}}},
    ],
}

TRANSFER_SCHEMA = {
    "type": "object",
    "required": [
        "identity",
        "finite_samples",
        "infinite_samples",
        "counterexample",
        "seed",
    ],
    "additionalProperties": False,
    "properties": {
        "identity": {"type": "boolean"},
        "finite_samples": {"type": "array", "items": SAMPLE_SCHEMA},
        "infinite_samples": {"type": "array", "items": SAMPLE_SCHEMA},
        "counterexample": {
            "type": ["object", "null"],
            "required": ["point", "lhs", "rhs"],
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}


def invoke(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # an argparse usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ----------------------------------------------------------------


def test_eval_text(capsys):
    code, out, err = invoke(capsys, "eval", "2 + 3*eps")
    assert code == 0
    assert out == "2 + 3·eps (appreciable)\nshadow: 2\n"
    assert err == ""


def test_eval_infinite_has_no_shadow_line(capsys):
    code, out, err = invoke(capsys, "eval", "H")
    assert code == 0
    assert out == "eps^-1 (infinite)\n"


def test_eval_json_matches_schema(capsys):
    code, out, err = invoke(capsys, "eval", "--format", "json", "2 + 3*eps")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, LC_NUMBER_SCHEMA)
    assert payload["terms"] == [
        {"exp": "0", "coef": "2"},
        {"exp": "1", "coef": "3"},
    ]
    assert payload["precision"] == 16


def test_eval_respects_precision_flag(capsys):
    code, out, _ = invoke(
        capsys, "eval", "-T", "4", "--format", "json", "1/(1-eps)"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["terms"]) == 4
    assert payload["precision"] == 4


def test_eval_precision_below_two_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "-T", "1", "1"])
    assert info.value.code == 2


def test_eval_precision_past_the_cap_is_a_usage_error(capsys):
    code, out, _ = invoke(capsys, "eval", "-T", str(MAX_PRECISION), "1/(1-eps)")
    assert code == 0 and out.count("eps^") == MAX_PRECISION - 2
    for precision in (MAX_PRECISION + 1, 99999999999999999999):
        with pytest.raises(SystemExit) as info:
            main(["eval", "-T", str(precision), "1/(1-eps)"])
        assert info.value.code == 2
        assert f"precision must be from 2 to {MAX_PRECISION}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("transfer", "--seed", "-1", "c.txt"), "seed must fit in 64 unsigned bits"),
        (("transfer", "--seed", str(2**64), "c.txt"), "seed must fit in 64 unsigned bits"),
        (("transfer", "--seed", "x", "c.txt"), "seed must fit in 64 unsigned bits"),
        (("eval", "-T", "x", "1"), f"precision must be from 2 to {MAX_PRECISION}"),
    ],
    ids=["seed_negative", "seed_past_64_bits", "seed_not_an_integer", "precision_not_an_integer"],
)
def test_an_integer_option_outside_its_range_is_a_usage_error(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f": {message}\n")


def test_transfer_takes_the_largest_64_bit_seed(capsys, tmp_path):
    path = corpus(tmp_path, "x == x\n")
    code, out, err = invoke(capsys, "transfer", "--format", "json", "--seed", str(2**64 - 1), path)
    assert (code, err) == (0, "")
    assert json.loads(out)[0]["report"]["seed"] == 2**64 - 1


def test_eval_bindings_chain_left_to_right(capsys):
    code, out, _ = invoke(
        capsys, "eval", "-b", "a=2", "-b", "b=a+1", "b^2"
    )
    assert code == 0
    assert out.splitlines()[0] == "9 (appreciable)"


def test_eval_binding_may_use_units(capsys):
    code, out, _ = invoke(capsys, "eval", "-b", "x=3+eps", "st(x)")
    assert code == 0
    assert out.splitlines()[0] == "3 (appreciable)"


def test_bindings_do_not_leak_into_the_next_call(capsys):
    code, out, _ = invoke(capsys, "eval", "-b", "y=2", "y + 1")
    assert code == 0
    assert out.startswith("3 ")
    code, _, err = invoke(capsys, "eval", "y + 1")
    assert code == 3
    assert "'y'" in err


def test_eval_forward_binding_reference_fails(capsys):
    code, out, err = invoke(capsys, "eval", "-b", "a=b+1", "-b", "b=2", "a")
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "binding", ["noequals", "2x=3", "H=2", "eps=1", "st=5"]
)
def test_eval_rejects_bad_bindings(capsys, binding):
    code, _, err = invoke(capsys, "eval", "-b", binding, "1")
    assert code == 2
    assert err.startswith("error:")


def test_eval_parse_error_exits_two(capsys):
    code, _, err = invoke(capsys, "eval", "1 +")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize(
    "argv, position",
    [
        (("eval", "²"), 0),
        (("diff", "x^²", "x", "1"), 2),
        (("eval", "-b", "x=²", "x"), 0),
        (("eval", "x²"), 1),
    ],
    ids=["eval", "diff", "binding", "identifier"],
)
def test_a_digit_that_is_not_decimal_is_an_invalid_character(capsys, argv, position):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: invalid character '²' (at position {position})\n"
    # Arabic-Indic digits are decimal digits
    assert invoke(capsys, "eval", "١٢") == (0, "12 (appreciable)\nshadow: 12\n", "")


# source -> its value, or None where the nesting is past dsl.MAX_DEPTH.  A
# sum of any length is one chain, one level deep, so it is accepted.
TOO_DEEP = {
    "sum_of_2000": ("+".join(["1"] * 2000), "2000"),
    "parentheses_3000": ("(" * 3000 + "1" + ")" * 3000, None),
}


@pytest.mark.parametrize("source, value", TOO_DEEP.values(), ids=TOO_DEEP)
def test_eval_past_the_depth_bound_exits_two(capsys, source, value):
    code, out, err = invoke(capsys, "eval", source)
    if value is not None:
        assert (code, out, err) == (0, f"{value} (appreciable)\nshadow: {value}\n", "")
        return
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "position" in err


def test_eval_division_by_zero_exits_three(capsys):
    code, _, err = invoke(capsys, "eval", "1/(eps - eps)")
    assert code == 3
    assert err.startswith("error:")


def test_eval_text_and_json_agree(capsys):
    from lcfield import LCNumber

    code, text_out, _ = invoke(capsys, "eval", "1/(2 + eps)")
    code2, json_out, _ = invoke(
        capsys, "eval", "--format", "json", "1/(2 + eps)"
    )
    assert code == code2 == 0
    data = json.loads(json_out)
    series = LCNumber.from_terms(
        [(Fraction(t["exp"]), Fraction(t["coef"])) for t in data["terms"]],
        data["precision"],
    )
    assert text_out.splitlines()[0] == f"{series.render()} (appreciable)"


# -- diff ----------------------------------------------------------------


def test_diff_text(capsys):
    code, out, err = invoke(capsys, "diff", "x^2", "x", "3")
    assert code == 0
    assert out == "quotient: 6 + eps\nshadow: 6\nsuperfluous: eps\n"
    assert err == ""


def test_diff_rational_point(capsys):
    code, out, _ = invoke(capsys, "diff", "x^2", "x", "5/2")
    assert "shadow: 5" in out.splitlines()


def test_diff_json(capsys):
    code, out, _ = invoke(
        capsys, "diff", "--format", "json", "x^3", "x", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"quotient", "shadow", "superfluous"}
    jsonschema.validate(payload["quotient"], LC_NUMBER_SCHEMA)
    jsonschema.validate(payload["superfluous"], LC_NUMBER_SCHEMA)
    assert payload["shadow"] == "12"


def test_diff_with_bound_environment(capsys):
    code, out, _ = invoke(
        capsys, "diff", "-b", "y=2", "y*x^2", "x", "3"
    )
    assert code == 0
    assert "shadow: 12" in out.splitlines()


@pytest.mark.parametrize("precision", ["16", "64"])
def test_diff_with_an_irrational_exponent_binding_has_no_traceback(precision):
    src = str(Path(lcfield.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "lcfield.cli", "diff", "1/(x^2+1) + y*x", "x", "2",
         "-b", "y=3 + sqrt(eps)", "-T", precision],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode in (0, 3)
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("expr, var", [("eps^2", "eps"), ("x^2", "H")])
def test_diff_variable_must_be_a_name(capsys, expr, var):
    code, out, err = invoke(capsys, "diff", expr, var, "1")
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument var: not a variable name: {var!r}\n")


def test_diff_invalid_point_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["diff", "x^2", "x", "abc"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "point, shadow", [("5/2", "5"), ("-1/2", "-1"), ("- 1/2", "-1"), ("3.5", "7"), ("(3)", "6")]
)
def test_diff_point_is_a_dsl_number_literal_or_ratio(capsys, point, shadow):
    code, out, err = invoke(capsys, "diff", "x^2", "x", "--", point)
    assert (code, err) == (0, "")
    assert f"shadow: {shadow}" in out.splitlines()


@pytest.mark.parametrize(
    "point",
    ["1e999999999", pytest.param("1" * (MAX_DIGITS + 1), id="too_long"), "1e3", "1_000", "+2",
     "x", "1/0", "--1"],
)
def test_diff_point_outside_the_dsl_number_rule_is_a_usage_error(capsys, point):
    # 1e999999999 stops at the "e" and is never built digit by digit
    code, out, err = invoke(capsys, "diff", "x^2", "x", "--", point)
    assert (code, out) == (2, "")
    assert "lcfield diff: error: argument point: " in err


@pytest.mark.parametrize("argv", [("x", "--", "--", "1"), ("x^2", "x", "--", "--")])
def test_a_second_double_dash_in_diff_is_a_usage_error(capsys, argv):
    code, out, err = invoke(capsys, "diff", *argv)
    assert (code, out) == (2, "")
    if not err.startswith("usage:"):  # newer argparse reads the second "--" as a value
        assert err == "error: '--' may appear only once\n"


def test_diff_infinite_quotient_exits_three(capsys):
    code, _, err = invoke(capsys, "diff", "sqrt(x)", "x", "0")
    assert code == 3
    assert "infinite" in err


# -- gallery -------------------------------------------------------------


@pytest.mark.parametrize(
    "example",
    [
        "parallel_lines",
        "infinitesimal_equality",
        "ellipse_parabola",
        "product_rule",
    ],
)
def test_gallery_text_passes(capsys, example):
    code, out, err = invoke(capsys, "gallery", example)
    assert code == 0
    assert out.startswith(f"example: {example}")
    assert out.rstrip().endswith("PASS")
    assert err == ""


def test_gallery_json_matches_schema(capsys):
    code, out, _ = invoke(
        capsys, "gallery", "--format", "json", "ellipse_parabola"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, GALLERY_SCHEMA)
    assert payload["example"] == "ellipse_parabola"
    assert payload["pass"] is True


def test_gallery_unknown_id_is_rejected_by_the_parser(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gallery", "banana"])
    assert info.value.code == 2


def test_gallery_csv_writes_rows(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, out, _ = invoke(
        capsys, "gallery", "ellipse_parabola", "--csv", str(path)
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,y0,st_of_lhs"
    assert len(lines) == 8


def test_gallery_csv_to_an_unwritable_path_exits_two(capsys, tmp_path):
    path = tmp_path / "missing" / "rows.csv"
    code, out, err = invoke(capsys, "gallery", "ellipse_parabola", "--csv", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_gallery_csv_limited_to_the_conic_example(capsys, tmp_path):
    code, _, err = invoke(
        capsys,
        "gallery",
        "parallel_lines",
        "--csv",
        str(tmp_path / "rows.csv"),
    )
    assert code == 2
    assert "--csv" in err


def test_gallery_runs_at_low_precision(capsys):
    code, out, _ = invoke(capsys, "gallery", "-T", "4", "ellipse_parabola")
    assert code == 0
    assert out.rstrip().endswith("PASS")


# -- transfer ------------------------------------------------------------


def corpus(tmp_path, text):
    path = tmp_path / "corpus.txt"
    path.write_text(text)
    return str(path)


def test_transfer_identities_pass(capsys, tmp_path):
    path = corpus(
        tmp_path,
        "# binomial\n\nx^2 - y^2 == (x - y)*(x + y)\n"
        "H*(1/H) == 1  # trailing note\n",
    )
    code, out, err = invoke(capsys, "transfer", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "[PASS] line 3: x^2 - y^2 == (x - y)*(x + y)"
    assert lines[1] == "[PASS] line 4: H*(1/H) == 1"
    assert lines[-1] == "checked 2: 2 hold, 0 fail"
    assert err == ""


def test_transfer_failure_prints_counterexample_and_exits_four(
    capsys, tmp_path
):
    path = corpus(tmp_path, "(x + 1)^2 == x^2 + 1\n")
    code, out, _ = invoke(capsys, "transfer", path)
    assert code == 4
    lines = out.splitlines()
    assert lines[0].startswith("[FAIL] line 1:")
    assert lines[1].lstrip().startswith("counterexample at x = ")
    assert lines[-1] == "checked 1: 0 hold, 1 fail"


def test_transfer_zero_variable_counterexample(capsys, tmp_path):
    path = corpus(tmp_path, "1 == 2\n")
    code, out, _ = invoke(capsys, "transfer", path)
    assert code == 4
    assert "counterexample at (no variables): 1 != 2" in out


def test_transfer_reports_every_parse_error(capsys, tmp_path):
    path = corpus(tmp_path, "x + == 1\n1 == 1\ny ^ == 2\n")
    code, out, err = invoke(capsys, "transfer", path)
    assert code == 2
    assert "line 1:" in err
    assert "line 3:" in err
    assert out == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_transfer_reports_every_non_rational_line(capsys, tmp_path, fmt):
    path = corpus(tmp_path, "x == x\nsqrt(x^2) == x\n1 == 1\nx == st(x)\n")
    code, out, err = invoke(capsys, "transfer", "--format", fmt, path)
    assert code == 2
    assert err == (
        "line 2: sqrt is not a rational operation\n"
        "line 4: st is not a rational operation\n"
    )
    assert out == ""


@pytest.mark.parametrize("source, value", TOO_DEEP.values(), ids=TOO_DEEP)
def test_transfer_past_the_depth_bound_exits_two(capsys, tmp_path, source, value):
    path = corpus(tmp_path, f"x == x\n{source} == {value or 1}\n")
    code, out, err = invoke(capsys, "transfer", path)
    if value is not None:
        assert (code, err) == (0, "")
        assert out.count("[PASS]") == 2
        return
    assert code == 2
    assert out == ""
    assert err.startswith("line 2: ") and "position" in err


def _sum_of_variables(count):
    return " + ".join(f"v{i}" for i in range(count))


@pytest.mark.parametrize("rest", [(), ("v0", "1")], ids=["eval", "diff"])
def test_more_distinct_variables_than_the_cap_exit_two(capsys, rest):
    source = _sum_of_variables(MAX_VARIABLES + 1)
    command = "diff" if rest else "eval"
    code, out, err = invoke(capsys, command, source, *rest)
    assert (code, out) == (2, "")
    position = source.index(f"v{MAX_VARIABLES}")
    assert err == (
        f"error: more than {MAX_VARIABLES} distinct variables (at position {position})\n"
    )


def test_transfer_takes_the_variable_cap_and_rejects_one_more(capsys, tmp_path):
    names = _sum_of_variables(MAX_VARIABLES)
    backwards = " + ".join(reversed(names.split(" + ")))
    code, out, err = invoke(capsys, "transfer", corpus(tmp_path, f"{names} == {backwards}\n"))
    assert (code, err) == (0, "") and out.startswith("[PASS]")
    code, out, err = invoke(capsys, "transfer", corpus(tmp_path, f"{names} + w == w\n"))
    assert (code, out) == (2, "")
    assert err.startswith(f"line 1: more than {MAX_VARIABLES} distinct variables")


LONGEST_LITERAL = "9" * MAX_DIGITS


@pytest.mark.parametrize(
    "source, position",
    [("1 + 9" + LONGEST_LITERAL, 4), ("1" + "0" * 5000, 0)],
    ids=["one_digit_past_the_cap", "5000_digits"],
)
def test_eval_literal_past_the_digit_cap_exits_two(capsys, source, position):
    code, out, err = invoke(capsys, "eval", LONGEST_LITERAL)
    assert (code, out, err) == (0, f"{LONGEST_LITERAL} (appreciable)\nshadow: {LONGEST_LITERAL}\n", "")
    code, out, err = invoke(capsys, "eval", source)
    assert (code, out) == (2, "")
    assert err == f"error: number longer than {MAX_DIGITS} digits (at position {position})\n"


def test_transfer_reports_a_literal_past_the_digit_cap_as_its_line(capsys, tmp_path):
    path = corpus(tmp_path, f"x == x\n{'1' + '0' * 5000} == 1\n")
    code, out, err = invoke(capsys, "transfer", path)
    assert (code, out) == (2, "")
    assert err == f"line 2: number longer than {MAX_DIGITS} digits (at position 0)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "10^5000"),
        ("eval", "--format", "json", f"10^{MAX_DIGITS}"),
        ("diff", f"10^{MAX_DIGITS}*x", "x", "1"),
        ("eval", "sqrt(-(10^3000*10^3000))"),
        ("eval", "sqrt(2*10^3000*10^3000)"),
        ("diff", "sqrt(-(10^3000*10^3000))", "x", "1"),
        ("diff", "sqrt(2*10^3000*10^3000)", "x", "1"),
    ],
    ids=[
        "eval_text", "eval_json", "diff",
        "eval_sqrt_negative", "eval_sqrt_non_square", "diff_sqrt_negative", "diff_sqrt_non_square",
    ],
)
def test_a_value_past_the_digit_cap_exits_three(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: value has a number of more than {MAX_DIGITS} digits\n"
    code, out, err = invoke(capsys, "eval", f"10^{MAX_DIGITS - 1}")
    assert (code, err) == (0, "") and out.startswith("1" + "0" * (MAX_DIGITS - 1) + " ")


@pytest.mark.parametrize("expr", ["2^99999999999", "(1/2 + eps)^99999999999", "(2 + eps)^-99999999999"])
def test_a_power_past_the_digit_cap_is_refused_before_it_is_computed(capsys, expr):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "eval", expr)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == f"error: value has a number of more than {MAX_DIGITS} digits\n"
    src = str(Path(lcfield.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "lcfield.cli", "eval", expr],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "base, sign",
    [("(1+eps)", ""), ("(1+eps)", "-"), ("(1+eps+eps^2)", "-"), ("(1+eps+eps^2)", "")],
    ids=["(1+eps)^N", "(1+eps)^-N", "(1+eps+eps^2)^-N", "(1+eps+eps^2)^N"],
)
def test_a_two_term_power_with_a_4000_digit_exponent_is_refused_at_once(capsys, base, sign):
    # ROADMAP item 7's second case and its counterparts: a lead of 1 passes
    # check_power, and the power series at p = n builds only the coefficients
    # below the window of 16, so the value is refused when printed instead of
    # after minutes of squaring.
    start = time.perf_counter()
    code, out, err = invoke(capsys, "eval", f"{base}^{sign}{'9' * MAX_DIGITS}")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == f"error: value has a number of more than {MAX_DIGITS} digits\n"


# The canonical verdict raises a polynomial to the power before any sample
# does; (2*eps/2)^20000 is refused on its unreduced coefficient 2.  A power
# checks both digit caps before either term budget, so the last line is
# refused on its denominator 2^400, not on its numerator's C(49, 9) terms.
@pytest.mark.parametrize(
    "line",
    [
        "2^99999999999 == 1",
        "x == (2*x)^-99999999999",
        "(2*eps/2)^20000 == eps^20000",
        "((a+b+c+d+e+f+g+h+i+j)/2^400)^40 == 1",
    ],
)
def test_transfer_refuses_a_power_past_the_digit_cap_before_it_is_computed(
    capsys, tmp_path, line
):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "transfer", corpus(tmp_path, f"x == x\n{line}\n"))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == f"error: value has a number of more than {MAX_DIGITS} digits\n"


def test_transfer_refuses_a_power_past_the_term_budget_before_it_is_expanded(capsys, tmp_path):
    # the exact verdict would expand C(49, 9), about 2·10^9, terms
    start = time.perf_counter()
    path = corpus(tmp_path, "x == x\n(a+b+c+d+e+f+g+h+i+j)^40 == 1\n")
    code, out, err = invoke(capsys, "transfer", path)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == f"error: power may expand to more than {MAX_TERMS} terms\n"


@pytest.mark.parametrize(
    "line",
    [
        "(a+b+c+d+e+f+g+h+i+j)^6*(a+b+c+d+e+f+g+h+i+j)^6 == 1",
        "1/(a+b+c+d+e+f+g+h+i+j)^6 + 1/(a+b+c+d+e+f+g+h+i+k)^6 == 1",
        "(a+b+c+d+e+f+g+h+i+j)^6 == 1/(a+b+c+d+e+f+g+h+i+k)^6",
    ],
    ids=["chain_product", "reciprocal_sum", "verdict_product"],
)
def test_transfer_refuses_a_product_past_the_term_budget_before_it_is_expanded(
    capsys, tmp_path, line
):
    # each power passes (5005 terms); the product, in a side or in the
    # verdict's N1·D2, would multiply 5005 x 5005 term pairs
    start = time.perf_counter()
    code, out, err = invoke(capsys, "transfer", corpus(tmp_path, f"x == x\n{line}\n"))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == f"error: product may expand to more than {MAX_TERMS} terms\n"


def test_transfer_counterexample_past_the_digit_cap_exits_three(capsys, tmp_path):
    path = corpus(tmp_path, f"x == x\n10^{MAX_DIGITS} == 1\n")
    code, out, err = invoke(capsys, "transfer", path)
    assert (code, out) == (3, "")
    assert err == f"error: value has a number of more than {MAX_DIGITS} digits\n"


def test_transfer_witness_search_refuses_a_substitution_past_the_digit_cap(capsys, tmp_path):
    # the candidates 0, 1 and -1 are pruned, and 2^(10^11) is never computed
    line = "(x-1)*(x+1)*x*x^99999999999 == 0"
    start = time.perf_counter()
    code, out, err = invoke(capsys, "transfer", corpus(tmp_path, line + "\n"))
    assert time.perf_counter() - start < 2
    assert (code, err) == (4, "")
    assert out == f"[FAIL] line 1: {line}\nchecked 1: 0 hold, 1 fail\n"


def test_transfer_redraws_a_sample_point_whose_value_passes_the_digit_cap(capsys, tmp_path):
    # only x in {-1, 0, 1} keeps x^20000 under the digit cap; other points are redrawn
    code, out, err = invoke(capsys, "transfer", corpus(tmp_path, "x^20000 == x^20000\n"))
    assert (code, err) == (0, "")
    assert out == "[PASS] line 1: x^20000 == x^20000\nchecked 1: 1 hold, 0 fail\n"
    code, out, _ = invoke(
        capsys, "transfer", "--format", "json", corpus(tmp_path, "x^20000 == x^20000\n")
    )
    samples = json.loads(out)[0]["report"]["finite_samples"]
    assert code == 0
    assert {s["point"]["x"] for s in samples} <= {"-1", "0", "1"}
    assert all(s["agree"] for s in samples)


def test_transfer_passes_an_expansion_of_more_than_a_hundred_terms(capsys, tmp_path):
    # (x + y + z + w + u)^5 == its multinomial expansion, written out
    names, terms = "xyzwu", []
    for exps in itertools.product(range(6), repeat=5):
        if sum(exps) == 5:
            coef = math.factorial(5) // math.prod(map(math.factorial, exps))
            terms.append("*".join([str(coef)] + [f"{v}^{e}" for v, e in zip(names, exps) if e]))
    assert len(terms) == 126
    line = f"({' + '.join(names)})^5 == {' + '.join(terms)}\n"
    code, out, err = invoke(capsys, "transfer", corpus(tmp_path, line))
    assert (code, err) == (0, "")
    assert out.startswith("[PASS]")


def test_transfer_reports_a_digit_that_is_not_decimal_as_its_line(capsys, tmp_path):
    code, out, err = invoke(capsys, "transfer", corpus(tmp_path, "x == x\n² == 2\n"))
    assert (code, out) == (2, "")
    assert err == "line 2: invalid character '²' (at position 0)\n"


def test_transfer_missing_file_exits_two(capsys):
    code, _, err = invoke(capsys, "transfer", "/no/such/corpus.txt")
    assert code == 2
    assert err != ""


# The position is the byte's offset in the file, past the first read buffer too.
@pytest.mark.parametrize("lines", [1, 1500])
def test_transfer_on_a_file_that_is_not_utf8_exits_two(capsys, tmp_path, lines):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"x == x\n" * lines + b"\xff\xfe == 1\n")
    code, out, err = invoke(capsys, "transfer", str(path))
    assert (code, out) == (2, "")
    offset = 7 * lines
    assert err == f"'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte\n"


def test_transfer_reads_a_corpus_that_starts_with_a_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"\xef\xbb\xbfx + 1 == 1 + x\n")
    assert load_corpus(str(path)) == [(1, "x + 1", "1 + x")]
    code, out, err = invoke(capsys, "transfer", str(path))
    assert (code, out, err) == (0, "[PASS] line 1: x + 1 == 1 + x\nchecked 1: 1 hold, 0 fail\n", "")


def test_a_decode_error_after_a_byte_order_mark_gives_its_offset_in_the_file(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"\xef\xbb\xbfx == x\n\xff == 1\n")
    code, out, err = invoke(capsys, "transfer", str(path))
    assert (code, out) == (2, "")
    assert err == "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte\n"


def test_transfer_malformed_line_exits_two(capsys, tmp_path):
    path = corpus(tmp_path, "a == b == c\n")
    code, _, err = invoke(capsys, "transfer", path)
    assert code == 2
    assert "exactly one '=='" in err


def test_transfer_json_shape_and_seed(capsys, tmp_path):
    path = corpus(tmp_path, "x*(x + 1) == x^2 + x\n1 == 2\n")
    code, out, _ = invoke(
        capsys, "transfer", "--format", "json", "--seed", "7", path
    )
    assert code == 4
    payload = json.loads(out)
    assert [entry["line"] for entry in payload] == [1, 2]
    for entry in payload:
        assert set(entry) == {"line", "lhs", "rhs", "report"}
        jsonschema.validate(entry["report"], TRANSFER_SCHEMA)
        assert entry["report"]["seed"] == 7
    assert payload[0]["report"]["identity"] is True
    assert payload[1]["report"]["identity"] is False


# sha256 of the stdout of ``transfer --format json -T 16 --seed S`` on each
# shipped corpus: every point, text and verdict the sampler and the witness
# search produce.  An intended change to the transfer output (ROADMAP items
# 2 and 5) re-pins these digests.
TRANSFER_DIGESTS = {
    ("identities", 0): "67815ff76be3833128ffec94048034523b2effe0720d1b02a59dab7d602f423f",
    ("identities", 1000): "b5aef8466621611a03dfde5458b13f72006539cb7f35f044152267e810300295",
    ("non_identities", 0): "6bf9f06599ba70220bbb6cd14a84085bf249c6ccae630abc778a7558739f1de3",
    ("non_identities", 1000): "03f47a2ab79b3803c7cfea3760aa717cd57bc4dfa1b675af8e3b9d28a3047a4e",
}


@pytest.mark.parametrize("name, seed", sorted(TRANSFER_DIGESTS))
def test_transfer_json_output_is_pinned_byte_for_byte(capsys, name, seed):
    path = Path(__file__).resolve().parent.parent / "corpora" / f"{name}.txt"
    code, out, err = invoke(
        capsys, "transfer", "--format", "json", "-T", "16", "--seed", str(seed), str(path)
    )
    assert (code, err) == (0 if name == "identities" else 4, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TRANSFER_DIGESTS[name, seed]


# sha256 of the stdout of ``gallery --format F ID``, the same at every
# truncation order (acceptance criterion 9), and of README's ``eval`` and
# ``diff`` examples.  An intended change to that output re-pins these digests.
GALLERY_DIGESTS = {
    ("ellipse_parabola", "text"): "d8f408acd88c4fd04409a4b0a91029532feae7052ac5cf07da35b0b293a15e68",
    ("ellipse_parabola", "json"): "05a43ae1df6fc630b773138045856fd62a6f0f614cab637446fd5c7491e02642",
    ("infinitesimal_equality", "text"): "b8773f19183bf856deb09908a77e4871487bca7deb734b17c35f3db4bbac289a",
    ("infinitesimal_equality", "json"): "1becc836ba0b8bb29ddc286863ceda3b41d68547dd413141a6157cadcc5053bf",
    ("parallel_lines", "text"): "7dcdaf119345bba9229ca070e72314113f6d0ad326e4fddd277ae733d7c29e3d",
    ("parallel_lines", "json"): "968f7202d6a52cd4bde4add4d018b5ea89f97bbad9889fddf84aa0576d0433bb",
    ("product_rule", "text"): "b3d4ce8e5106d5402fcd6e65a732c5449a5b0f069913d70568fe6f83dd67afed",
    ("product_rule", "json"): "9d0d02d0629ae89edf973e464061a36ba659f87031f4c38ef8b6329887e0ddb7",
}
EXAMPLE_DIGESTS = {
    ("eval", "1/(1 - eps)"): "f59b191bc987cc67f8edddfc93da9989d5507a7410ef697cb3e5d0d42fa6d174",
    ("eval", "-b", "x=3+eps", "st(x^2)"): "b07da02733884f646dcdd39212af15c7a9862bd5af8a84426360820327188d3e",
    ("diff", "x^3", "x", "2"): "8758cdbedf93adb07ac073287c53221d04bbea69e5eb12607576f2951fb7f253",
    ("eval", "--format", "json", "2 + 3*eps"): "b359ba63b2de56debcd75cafccdf042dc2842aeb35aa1bfd7fff0ea8d5b0ca89",
    ("diff", "x^2", "x", "--", "-1/2"): "6f890cb785ff3204e99977065fc9b72d610e21862199db8640db44ceb72b1e46",
    ("eval", "-b", "x=2", "--", "-x^2"): "c8c9ad03b1df947a557533e2fda14c4a32b596868ffcae22f6e53ad4670c2cab",
    ("eval", "sqrt(4*eps)"): "24a2bc0188b35bc4084525095756e0f693543b40d7d914a4134cf9b99b050196",
}


@pytest.mark.parametrize("precision", ["4", "16", "64"])
@pytest.mark.parametrize("example_id, fmt", sorted(GALLERY_DIGESTS))
def test_gallery_output_is_pinned_byte_for_byte(capsys, example_id, fmt, precision):
    code, out, err = invoke(capsys, "gallery", "--format", fmt, "-T", precision, example_id)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GALLERY_DIGESTS[example_id, fmt]


@pytest.mark.parametrize("argv", sorted(EXAMPLE_DIGESTS))
def test_readme_eval_and_diff_output_is_pinned_byte_for_byte(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == EXAMPLE_DIGESTS[argv]


def test_transfer_json_marks_a_sample_inconclusive_when_every_draw_fails(
    capsys, tmp_path, monkeypatch
):
    # every drawn point is the pole x = 0, so no draw can be evaluated
    monkeypatch.setattr(dsl, "_RESAMPLE_CAP", 2)
    for draw in ("_draw_finite", "_draw_mixed"):
        monkeypatch.setattr(dsl, draw, lambda rng, precision: (make_real(0, precision), "0"))
    code, out, err = invoke(capsys, "transfer", "--format", "json", corpus(tmp_path, "1/x == 1/x\n"))
    assert (code, err) == (0, "")
    [entry] = json.loads(out)
    jsonschema.validate(entry["report"], TRANSFER_SCHEMA)
    inconclusive = {"point": None, "agree": None}
    assert entry["report"]["finite_samples"] == [inconclusive] * 100
    assert entry["report"]["infinite_samples"] == [inconclusive] * 100


def test_load_corpus_parses_lines_and_comments(tmp_path):
    path = corpus(
        tmp_path, "# header\n\n a == b \nc==d # note\n#only comment\n"
    )
    assert load_corpus(path) == [(3, "a", "b"), (4, "c", "d")]


def test_load_corpus_rejects_missing_separator(tmp_path):
    path = corpus(tmp_path, "a = b\n")
    with pytest.raises(UsageError):
        load_corpus(path)


# -- repl ----------------------------------------------------------------


def repl(monkeypatch, capsys, script):
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    code = main(["repl"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repl_binds_and_evaluates(monkeypatch, capsys):
    code, out, err = repl(monkeypatch, capsys, "x = 3\nx^2\nexit\n")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 (appreciable)"
    assert lines[2] == "9 (appreciable)"
    assert err == ""


def test_repl_recovers_from_errors(monkeypatch, capsys):
    code, out, err = repl(monkeypatch, capsys, "1 +\n2*3\nquit\n")
    assert code == 0
    assert "error:" in err
    assert out.splitlines()[0] == "6 (appreciable)"


def test_repl_survives_a_digit_that_is_not_decimal(monkeypatch, capsys):
    code, out, err = repl(monkeypatch, capsys, "²\n2*3\n")
    assert (code, err) == (0, "error: invalid character '²' (at position 0)\n")
    assert out.splitlines()[0] == "6 (appreciable)"


def test_repl_reports_a_value_past_the_digit_cap_and_goes_on(monkeypatch, capsys):
    code, out, err = repl(monkeypatch, capsys, "sqrt(-(10^3000*10^3000))\n2*3\n")
    assert (code, err) == (0, f"error: value has a number of more than {MAX_DIGITS} digits\n")
    assert out.splitlines()[0] == "6 (appreciable)"


def test_repl_skips_blanks_and_comments(monkeypatch, capsys):
    code, out, _ = repl(monkeypatch, capsys, "\n# hi\n1 + 1\n")
    assert code == 0
    assert out.splitlines()[0] == "2 (appreciable)"


def test_repl_cannot_rebind_reserved_words(monkeypatch, capsys):
    code, out, err = repl(monkeypatch, capsys, "H = 2\nH\nexit\n")
    assert code == 0
    assert "error:" in err
    assert out.splitlines()[0] == "eps^-1 (infinite)"


def test_repl_accepts_cli_bindings(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("a + 1\n"))
    code = main(["repl", "-b", "a=41"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "42 (appreciable)"


# -- dispatch ------------------------------------------------------------


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_run_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["lcfield", "eval", "1"])
    with pytest.raises(SystemExit) as info:
        run()
    assert info.value.code == 0


def test_parser_defaults():
    args = build_parser().parse_args(["eval", "1"])
    assert (args.precision, args.format, args.bind) == (16, "text", [])
    assert "seed" not in vars(args)  # only transfer samples
    assert build_parser().parse_args(["transfer", "corpus.txt"]).seed == 0


# Each subcommand takes only the options it reads, and refuses any other
# that a subcommand takes by its name, wherever it stands: with or without
# a value, attached or abbreviated.
UNREAD_OPTIONS = {
    ("eval", "1", "--seed", "1"): "--seed",
    ("diff", "x", "x", "1", "--seed", "1"): "--seed",
    ("gallery", "product_rule", "--seed", "1"): "--seed",
    ("repl", "--seed", "1"): "--seed",
    ("gallery", "product_rule", "-b", "x=1"): "-b",
    ("transfer", "CORPUS", "-b", "x=1"): "-b",
    ("repl", "--format", "json"): "--format",
    # before a positional, which would take the value of an unknown option
    ("gallery", "-b", "x=1", "product_rule"): "-b",
    ("transfer", "-b", "x=1", "CORPUS"): "-b",
    ("eval", "--seed"): "--seed",
    ("eval", "--seed=1", "1"): "--seed",
    ("gallery", "-bx=1", "product_rule"): "-b",
    ("transfer", "--bind=x=1", "CORPUS"): "--bind",
    ("eval", "--csv", "x", "1"): "--csv",
    ("eval", "--se", "1", "1"): "--seed",
}


@pytest.mark.parametrize("argv", UNREAD_OPTIONS, ids=" ".join)
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(
    monkeypatch, capsys, tmp_path, argv
):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
    words = [corpus(tmp_path, "x == x\n") if a == "CORPUS" else a for a in argv]
    code, out, err = invoke(capsys, *words)
    assert (code, out) == (2, "")
    command, option = argv[0], UNREAD_OPTIONS[argv]
    assert err.endswith(f"lcfield {command}: error: {command} does not take {option}\n")


def test_an_option_no_subcommand_takes_is_unrecognized(capsys):
    code, out, err = invoke(capsys, "eval", "1", "--foo")
    assert (code, out) == (2, "")
    assert err.endswith("lcfield: error: unrecognized arguments: --foo\n")


MINUS_POSITIONALS = {
    ("diff", "x^2", "x", "-1/2"): (2, "", "required: point\n"),
    ("eval", "-x"): (2, "", "required: expr\n"),
    ("diff", "x^2", "x", "--", "-1/2"): (0, "quotient: -1 + eps\nshadow: -1\nsuperfluous: eps\n", ""),
    ("eval", "-b", "x=2", "--", "-x^2"): (0, "-4 (appreciable)\nshadow: -4\n", ""),
}


@pytest.mark.parametrize("argv", MINUS_POSITIONALS, ids=" ".join)
def test_a_positional_that_begins_with_a_minus_follows_a_double_dash(capsys, argv):
    # argparse reads only plain negative numbers such as -1 as positionals
    code, out, err = invoke(capsys, *argv)
    expected_code, expected_out, expected_err_tail = MINUS_POSITIONALS[argv]
    assert (code, out) == (expected_code, expected_out)
    assert err.endswith(expected_err_tail)


def test_a_non_ascii_name_binds_everywhere(monkeypatch, capsys):
    assert invoke(capsys, "eval", "-b", "α=3", "α^2") == (
        0, "9 (appreciable)\nshadow: 9\n", ""
    )
    code, out, err = invoke(capsys, "diff", "α^2", "α", "3")
    assert (code, err) == (0, "")
    assert "shadow: 6" in out.splitlines()
    code, out, err = repl(monkeypatch, capsys, "α = 3\nα^2\n")
    assert (code, out.splitlines()[2], err) == (0, "9 (appreciable)", "")


NAME_TEXT = st.text(st.characters(categories=("L", "N")) | st.just("_"), min_size=1)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(NAME_TEXT)
@example("α")
@example("x²")
@example("x_1")
@example("eps")
@example("H")
@example("sqrt")
@example("2x")
def test_a_binding_takes_exactly_the_names_that_can_be_unbound(capsys, name):
    bound = invoke(capsys, "eval", "-b", f"{name}=1", name)
    code, _, err = invoke(capsys, "eval", name)
    unbound = code == 3 and err.startswith("error: unbound variable")
    assert (bound == (0, "1 (appreciable)\nshadow: 1\n", "")) == unbound


def test_parse_bindings_returns_named_trees():
    pairs = parse_bindings(["a=1+eps", "b=a^2"])
    assert [name for name, _ in pairs] == ["a", "b"]


# Command-line text: DSL tokens, digits and pieces the lexer refuses.  An
# exponent literal keeps at most two digits: a huge power of a series with
# a lead of 1 is not bounded yet.
FUZZ_TEXT = (
    st.lists(
        st.sampled_from(
            ["x", "y", "eps", "H", "sqrt(", "st(", "(", ")", "+", "-", "*", "/", "^", ".",
             "0", "1", "2", "9", "e", "_", "--", " ", "=", "=="]
        ),
        max_size=8,
    )
    .map("".join)
    .map(lambda text: re.sub(r"(\^[ -]*\d\d)\d+", r"\1", text))
)


@st.composite
def fuzz_argvs(draw):
    command = draw(st.sampled_from(["eval", "diff", "transfer"]))
    if command == "transfer":
        words = ["CORPUS"]
    else:
        words = [draw(FUZZ_TEXT) for _ in range(1 if command == "eval" else 3)]
    if draw(st.booleans()):
        words[:0] = ["-b", draw(FUZZ_TEXT)]
    for _ in range(draw(st.integers(0, 2))):
        words.insert(draw(st.integers(0, len(words))), "--")
    return [command, *words], f"{draw(FUZZ_TEXT)} == {draw(FUZZ_TEXT)}\n"


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_argvs())
@example((["diff", "x", "--", "--", "1"], ""))
@example((["diff", "x^2", "x", "--", "--"], ""))
def test_any_command_line_exits_with_a_documented_code(capsys, tmp_path, case):
    argv, line = case
    path = corpus(tmp_path, line)
    code, _, _ = invoke(capsys, *(path if word == "CORPUS" else word for word in argv))
    assert code in (0, 2, 3, 4)
