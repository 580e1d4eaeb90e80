import json
import subprocess
import sys
from pathlib import Path

import pytest

from ncpoly import Element, canonical_print, from_json, parse
from ncpoly.cli import (
    EXIT_CHECK_FAILED,
    EXIT_EVAL_ERROR,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_USAGE_ERROR,
    SessionError,
    UnknownName,
    evaluate_expression,
    run_command,
)
from ncpoly.parsing import ParseError

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "ncpoly", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
    )


# ----------------------------------------------------------------------
# session expression grammar (in process)


def test_expression_grammar():
    assert evaluate_expression("xxyx + 2zy") == parse("xxyx + 2zy")
    assert evaluate_expression("(x+y)*z") == parse("xz + yz")
    assert evaluate_expression("x^3") == parse("xxx")
    assert evaluate_expression("(x+y)^2") == parse("xx + xy + yx + yy")
    assert evaluate_expression("-x*y") == parse("-xy")
    assert evaluate_expression("2*-3") == Element.constant(-6)
    assert evaluate_expression("[a, b]") == parse("ab - ba")
    assert evaluate_expression("deriv(aa, a)") == parse("a") * Element.from_word((101,)) + Element.from_word((101,)) * parse("a")
    assert evaluate_expression("subs(abccc, b=1+3x, x=1+d+2e)") == parse("4accc + 3adccc + 6aeccc")
    assert evaluate_expression("10Xzy") == parse("10Xzy")


def test_expression_precedence():
    assert evaluate_expression("x + y * z") == parse("x + yz")
    assert evaluate_expression("x * y ^ 2") == parse("xyy")
    assert evaluate_expression("-x^2") == parse("-xx")


def test_expression_errors():
    with pytest.raises(ParseError):
        evaluate_expression("(x")
    with pytest.raises(ParseError):
        evaluate_expression("x^-2")
    with pytest.raises(ParseError):
        evaluate_expression("x^2.5")
    with pytest.raises(ParseError):
        evaluate_expression("[x y]")
    with pytest.raises(ParseError):
        evaluate_expression("x ?")
    with pytest.raises(ParseError):
        evaluate_expression("deriv(x, xy)")
    with pytest.raises(ParseError):
        evaluate_expression("2 * " + "1" * 400 + "x")
    with pytest.raises(UnknownName):
        evaluate_expression("foo2")


def test_bindings_resolve_before_words():
    session = {"zy": parse("x")}
    assert evaluate_expression("zy", session) == parse("x")
    assert evaluate_expression("zyx", session) == parse("zyx")


def test_run_command_binds_and_evaluates():
    session = {}
    assert run_command("A = xxyx + 2zy", session) is None
    assert session["A"] == parse("xxyx + 2zy")
    assert run_command("A", session) == "+ 1*xxyx + 2*zy"
    assert run_command("result = A * A", session) is None
    assert session["result"] == parse("xxyx + 2zy") ** 2
    assert run_command("", session) is None
    assert run_command("   ", session) is None


def test_run_command_name_rules():
    session = {}
    with pytest.raises(SessionError):
        run_command("x = 5", session)
    with pytest.raises(SessionError):
        run_command("deriv = x", session)
    # single uppercase letters may be bound; they shadow the bare inverse word
    assert run_command("A = xxyx + 2zy", session) is None
    assert run_command("Ab = x", session) is None
    assert run_command("_tmp = x + y", session) is None


def test_run_command_error_positions_cover_whole_line():
    with pytest.raises(ParseError) as excinfo:
        run_command("AA = x ?", {})
    assert excinfo.value.position == 7  # offset within the full line


# ----------------------------------------------------------------------
# batch subcommands (through the process boundary)


def test_eval_matches_library_output_bytes():
    for text in ("xxyx + 2zy", "3 + 5X - 2Xyx", "", "xX", "-2z + 3yyyy"):
        result = run_cli("eval", text)
        assert result.returncode == EXIT_OK
        assert result.stdout == canonical_print(parse(text)) + "\n"


def test_json_round_trip_through_process():
    for text in ("xxyx + 2zy", "3 + 5X - 2Xyx", ""):
        result = run_cli("json", text)
        assert result.returncode == EXIT_OK
        assert from_json(result.stdout.strip()) == parse(text)
        json.loads(result.stdout)  # well formed for any JSON consumer


def test_deriv_and_subs_commands():
    result = run_cli("deriv", "aaaxaa", "a")
    assert result.returncode == EXIT_OK
    assert result.stdout.strip() == (
        "+ 1*aaaxa(da) + 1*aaax(da)a + 1*aa(da)xaa + 1*a(da)axaa + 1*(da)aaxaa"
    )
    result = run_cli("subs", "abccc", "b", "1+3x", "x", "1+d+2e")
    assert result.returncode == EXIT_OK
    assert result.stdout.strip() == "+ 4*accc + 3*adccc + 6*aeccc"


def test_rand_is_deterministic_across_processes():
    first = run_cli("rand", "--seed", "7")
    second = run_cli("rand", "--seed", "7")
    assert first.returncode == second.returncode == EXIT_OK
    assert first.stdout == second.stdout
    assert first.stdout.strip() == "+ 5*a + 4*aaab + 3*abc + 2*acc + 3*b"


def test_matcheck_passes_on_random_matrices():
    result = run_cli(
        "matcheck", "xxyx + 2zy", "-2z + 3yyyy", "--dim", "5", "--seed", "1", "--tol", "1e-9"
    )
    assert result.returncode == EXIT_OK
    assert result.stdout.startswith("PASS max_abs=")
    assert "max_rel=" in result.stdout


def test_matcheck_reports_failure_with_exit_1():
    result = run_cli("matcheck", "xyx", "yy", "--dim", "4", "--seed", "3", "--tol", "1e-30")
    assert result.returncode == EXIT_CHECK_FAILED
    assert result.stdout.startswith("FAIL")


def test_matcheck_singular_fixture_exits_3():
    result = run_cli(
        "matcheck", "X", "x", "--matrices", str(FIXTURES / "singular_matrices.json")
    )
    assert result.returncode == EXIT_EVAL_ERROR
    assert "singular" in result.stderr


def test_matcheck_unbound_letter_exits_3():
    result = run_cli(
        "matcheck", "xy", "x", "--matrices", str(FIXTURES / "singular_matrices.json")
    )
    assert result.returncode == EXIT_EVAL_ERROR
    assert "'y'" in result.stderr


def test_parse_errors_exit_2():
    for text in ("2**x", "x?y", "1.2.3", "2x +", "2x 3", "1" * 400 + "x"):
        result = run_cli("eval", text)
        assert result.returncode == EXIT_PARSE_ERROR, text
        assert "position" in result.stderr


def test_noninvertible_substitution_exits_3():
    result = run_cli("subs", "X", "x", "1+y")
    assert result.returncode == EXIT_EVAL_ERROR


def test_usage_errors_exit_4():
    cases = [
        ("frobnicate",),
        ("deriv", "x"),
        ("deriv", "x", "ab"),
        ("subs", "x", "a"),
        ("subs", "x", "ab", "y"),
        ("rand",),
        ("matcheck", "x", "y"),
        ("rand", "--seed", "1", "--lenmin", "3", "--lenmax", "1"),
    ]
    for args in cases:
        result = run_cli(*args)
        assert result.returncode == EXIT_USAGE_ERROR, args


def test_version_and_help():
    assert run_cli("--version").returncode == EXIT_OK
    assert run_cli("--help").returncode == EXIT_OK


# ----------------------------------------------------------------------
# the interactive session, driven through stdin


def test_repl_session_transcript():
    lines = "\n".join(
        [
            "A = xxyx + 2zy",
            "A",
            "B = -2z + 3yyyy",
            "A*B",
            "[a, b]",
            "deriv(aaaxaa, a)",
            "x = 5",
            "oops?",
            "A*(B+5) - A*B - 5*A",
        ]
    )
    result = run_cli(stdin=lines + "\n")
    assert result.returncode == EXIT_OK
    out = result.stdout.splitlines()
    assert out[0] == "+ 1*xxyx + 2*zy"
    assert out[1] == "+ 3*xxyxyyyy - 2*xxyxz + 6*zyyyyy - 4*zyz"
    assert out[2] == "+ 1*ab - 1*ba"
    assert out[3] == "+ 1*aaaxa(da) + 1*aaax(da)a + 1*aa(da)xaa + 1*a(da)axaa + 1*(da)aaxaa"
    assert out[4].startswith("error:")  # binding a lowercase letter
    assert out[5].startswith("error:")  # bad character, session continues
    assert out[6] == "0"


def test_repl_subcommand_matches_default():
    result = run_cli("repl", stdin="[a, b]\n")
    assert result.returncode == EXIT_OK
    assert result.stdout.strip() == "+ 1*ab - 1*ba"
