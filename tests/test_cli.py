import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpoly import Element, canonical_print, derivative, from_json, parse
from ncpoly.cli import (
    EVAL_ERRORS,
    EXIT_CHECK_FAILED,
    EXIT_EVAL_ERROR,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_USAGE_ERROR,
    MAX_NESTING,
    SessionError,
    UnknownName,
    evaluate_expression,
    main,
    run_command,
    run_repl,
)
from ncpoly.parsing import BAD_NUMBER, EMPTY_TERM, TRAILING_INPUT, UNEXPECTED_CHAR, ParseError

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


@pytest.mark.parametrize(
    "text,kind,position",
    [
        ("(x", EMPTY_TERM, 2),
        ("x^-2", BAD_NUMBER, 2),
        ("x^2.5", BAD_NUMBER, 2),
        ("[x y]", UNEXPECTED_CHAR, 3),
        ("x ?", UNEXPECTED_CHAR, 2),
        ("deriv(x, xy)", UNEXPECTED_CHAR, 9),
        ("2 * " + "1" * 400 + "x", BAD_NUMBER, 4),
        ("x +", EMPTY_TERM, 3),
        ("x + )", UNEXPECTED_CHAR, 4),
        ("2deriv(x, x)", UNEXPECTED_CHAR, 1),  # use '*' before 'deriv'
    ],
)
def test_expression_errors(text, kind, position):
    with pytest.raises(ParseError) as excinfo:
        evaluate_expression(text)
    assert (excinfo.value.kind, excinfo.value.position) == (kind, position)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x*y", "xy"),
        ("(x)", "x"),
        ("2 zy", (TRAILING_INPUT, 2)),
        # the whole line is scanned before it is parsed
        ("x) 1.2.3", (BAD_NUMBER, 6)),
        ("1.2.3 ?", (BAD_NUMBER, 3)),
        ("2x 3 ?", (UNEXPECTED_CHAR, 5)),
        ("1e5", UnknownName),
        ("x_y", UnknownName),
        ("x2", UnknownName),
    ],
)
def test_session_grammar_differs_from_flat(text, expected):
    """Where the session grammar reads text differently from ``parse``."""
    if isinstance(expected, str):
        assert evaluate_expression(text) == parse(expected)
    elif isinstance(expected, tuple):
        with pytest.raises(ParseError) as excinfo:
            evaluate_expression(text)
        assert (excinfo.value.kind, excinfo.value.position) == expected
    else:
        with pytest.raises(expected):
            evaluate_expression(text)


@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from([1, -1, 2, -2, 5, -5, 26]), max_size=5).map(tuple),
            # bounded so that summing a few colliding terms cannot overflow
            st.floats(-1e300, 1e300, allow_nan=False),
        ),
        max_size=5,
    ).map(Element)
)
def test_both_grammars_read_the_printer(element):
    text = canonical_print(element)
    assert evaluate_expression(text) == parse(text) == element


def test_bindings_resolve_before_words():
    session = {"zy": parse("x")}
    assert evaluate_expression("zy", session) == parse("x")
    assert evaluate_expression("zyx", session) == parse("zyx")
    with pytest.raises(UnknownName):
        evaluate_expression("foo2", session)


def test_run_command_binds_and_evaluates():
    session = {}
    assert run_command("A = xxyx + 2zy", session) is None
    assert session["A"] == parse("xxyx + 2zy")
    assert run_command("A", session) == "+ 1*xxyx + 2*zy"
    assert run_command("result = A * A", session) is None
    assert session["result"] == parse("xxyx + 2zy") ** 2
    assert run_command("", session) is None
    assert run_command("   ", session) is None


def test_run_command_skips_only_lines_of_spaces():
    """Other whitespace is an unexpected character, as it is for ``parse``."""
    assert run_command("", {}) is None
    assert run_command("   ", {}) is None
    for line in ("\t", "\x1c", "\u3000"):
        with pytest.raises(ParseError) as excinfo:
            run_command(line, {})
        assert (excinfo.value.kind, excinfo.value.position) == (UNEXPECTED_CHAR, 0)


def test_run_command_checks_the_binding_name_first():
    """A binding name is checked before the rest of its line is tokenized."""
    for line in ("x = 1.2.3", "deriv = ?"):
        with pytest.raises(SessionError):
            run_command(line, {})
    for line, kind, position in [
        ("AA = 1.2.3", BAD_NUMBER, 8),
        ("AA ? = x", UNEXPECTED_CHAR, 3),
        ("1.2.3 = x", BAD_NUMBER, 3),
    ]:
        session = {}
        with pytest.raises(ParseError) as excinfo:
            run_command(line, session)
        assert (excinfo.value.kind, excinfo.value.position) == (kind, position)
        assert session == {}


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


def test_binding_lines_are_spaced_like_expressions():
    # tokens are separated by spaces only, in a binding's "NAME =" as everywhere
    for line, position in (("\tAA = x", 0), ("AA =\tx", 4), ("AA = x\n", 6)):
        with pytest.raises(ParseError) as excinfo:
            run_command(line, {})
        assert (excinfo.value.kind, excinfo.value.position) == (UNEXPECTED_CHAR, position)


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
    assert run_cli("matcheck", "x", "x", "--seed", "1", "--dim", "1", "--tol", "0").returncode == EXIT_OK


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


def test_matcheck_overflow_exits_3(tmp_path):
    big, huge = "1" + "0" * 300, "1" + "0" * 200
    # the first overflows in a sum of terms, the second in eval(a) @ eval(b)
    for a, b in ((f"{big}x + {big}y", f"{big}xx"), (f"{huge}x", f"{huge}y")):
        result = run_cli("matcheck", a, b, "--seed", "1", "--dim", "3")
        assert result.returncode == EXIT_EVAL_ERROR
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error:")
    # a non-finite fixture entry is bad input, not an evaluation error
    fixture = tmp_path / "nan.json"
    fixture.write_text('{"bindings": {"x": {"dim": 1, "rows": [[NaN]]}}}')
    assert run_cli("matcheck", "x", "x", "--matrices", str(fixture)).returncode == EXIT_PARSE_ERROR


def _matrix(dim):
    return {"dim": dim, "rows": [[float(r == c) for c in range(dim)] for r in range(dim)]}


def test_matcheck_fixture_dimension_mismatch_exits_2(tmp_path):
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"bindings": {"x": _matrix(2), "y": _matrix(3)}}))
    result = run_cli("matcheck", "x", "y", "--matrices", str(mixed))
    assert result.returncode == EXIT_PARSE_ERROR
    square = tmp_path / "square.json"
    square.write_text(json.dumps({"bindings": {"x": _matrix(2)}}))
    result = run_cli("matcheck", "x", "x", "--matrices", str(square), "--dim", "3")
    assert result.returncode == EXIT_PARSE_ERROR
    assert run_cli("matcheck", "x", "x", "--matrices", str(square), "--dim", "2").returncode == EXIT_OK


def test_matcheck_unreadable_matrices_are_input_errors(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        result = run_cli("matcheck", "x", "x", "--matrices", str(path))
        assert result.returncode == EXIT_USAGE_ERROR, path
        assert result.stderr.splitlines() == [result.stderr.strip()]
        assert f"error: cannot read {path}: " in result.stderr
        # main returns the code in process too, rather than raising SystemExit
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            assert main(["matcheck", "x", "x", "--matrices", str(path)]) == EXIT_USAGE_ERROR
        assert stderr.getvalue() == result.stderr
    # a file that reads but is not UTF-8 is bad input, like invalid JSON
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"bindings": \xff}')
    result = run_cli("matcheck", "x", "x", "--matrices", str(binary))
    assert result.returncode == EXIT_PARSE_ERROR
    assert result.stderr.splitlines() == [result.stderr.strip()]
    # so is a fixture whose bindings or diff_bindings is not an object
    for fixture in ({"bindings": []}, {"bindings": {"x": _matrix(1)}, "diff_bindings": []},
                    {"bindings": {"x": _matrix(1)}, "diff_bindings": "x"}):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(fixture))
        result = run_cli("matcheck", "x", "x", "--matrices", str(path))
        assert result.returncode == EXIT_PARSE_ERROR, fixture
        assert result.stderr.splitlines() == [result.stderr.strip()]
        assert result.stderr.startswith("error:")


_IDENTITY_2 = json.dumps(_matrix(2))
MALFORMED_FIXTURES = {
    # json.loads raised RecursionError, and a 5,000-digit integer ValueError
    "deep": "[" * 100_000 + "]" * 100_000,
    "digits": '{"bindings": {"x": {"dim": 1, "rows": [[1' + "0" * 5000 + "]]}}}",
    # an integer past the float range is a non-finite entry, like NaN
    "overflow": '{"bindings": {"x": {"dim": 1, "rows": [[1' + "0" * 400 + "]]}}}",
    # the last binding of a repeated key won, and unknown keys were ignored
    "repeated": f'{{"bindings": {{"x": {_IDENTITY_2}, "x": {_IDENTITY_2}}}}}',
    "repeated-top": f'{{"bindings": {{"x": {_IDENTITY_2}}}, "bindings": {{"x": {_IDENTITY_2}}}}}',
    "unknown": f'{{"bindings": {{"x": {_IDENTITY_2}}}, "bindngs": {{}}}}',
    "empty": '{"bindings": {}, "diff_bindings": {}}',
}


@pytest.mark.parametrize("name", MALFORMED_FIXTURES)
def test_matcheck_malformed_fixtures_exit_2(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(MALFORMED_FIXTURES[name])
    result = run_cli("matcheck", "x", "x", "--matrices", str(path))
    assert (result.returncode, result.stdout) == (EXIT_PARSE_ERROR, "")
    assert result.stderr.splitlines() == [result.stderr.strip()]
    assert result.stderr.startswith(f"error: {path}: ")


def test_matcheck_fixture_dimension_is_capped_like_dim(tmp_path):
    # dim**3 past POWER_LIMIT, however the dimension was given
    path = tmp_path / "dim101.json"
    path.write_text(json.dumps({"bindings": {"x": _matrix(101)}}))
    for extra in ((), ("--dim", "101")):
        result = run_cli("matcheck", "x", "x", "--matrices", str(path), *extra)
        assert (result.returncode, result.stdout) == (EXIT_USAGE_ERROR, ""), extra
        assert "dim**3 at most 1000000, got 101" in result.stderr


def test_matcheck_takes_one_source_of_matrices(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({"bindings": {"x": _matrix(2)}}))
    result = run_cli("matcheck", "x", "x", "--seed", "3", "--matrices", str(path))
    assert (result.returncode, result.stdout) == (EXIT_USAGE_ERROR, "")
    assert "not allowed with argument" in result.stderr


def _json_object(pairs):
    """Object text from (key, value text) pairs, kept as given: keys may repeat."""
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in pairs) + "}"


_ENTRIES = ["0", "-2.5", "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "1" + "0" * 5000]
_FAULTS = (
    "odd entry", "other dim", "wrong dim field", "repeated letter", "bad letter", "no bindings",
    "diff_bindings", "repeated bindings", "unknown key", "nested", "not utf-8",
)


@st.composite
def fixture_files(draw):
    """Bytes of a --matrices file of identity matrices, with up to three of its ways to go bad."""
    faults = draw(st.sets(st.sampled_from(_FAULTS), max_size=3))
    dim = draw(st.integers(1, 3) | st.integers(0, 120))
    names = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3, unique=True))
    if "repeated letter" in faults:
        names.append(names[0])
    if "bad letter" in faults:
        names.append(draw(st.sampled_from(["X", "xx"])))
    sizes = [dim] * len(names)
    if "other dim" in faults:
        sizes[-1] = draw(st.integers(0, 120))
    matrices = []
    for size in sizes:
        rows = [["1" if r == c else "0" for c in range(size)] for r in range(size)]
        if size and "odd entry" in faults:
            rows[draw(st.integers(0, size - 1))][draw(st.integers(0, size - 1))] = draw(st.sampled_from(_ENTRIES))
        shown = size + 1 if "wrong dim field" in faults else size
        matrices.append(_json_object([("dim", str(shown)), ("rows", json.dumps(rows).replace('"', ""))]))
    bindings = _json_object(zip(names, matrices))
    pairs = [("bindings", "{}" if "no bindings" in faults else bindings)]
    pairs += [(key, bindings) for key in ("diff_bindings", "repeated bindings", "unknown key") if key in faults]
    text = _json_object([(key.split()[-1], value) for key, value in pairs])
    depth = draw(st.sampled_from([1, 999, 100_000])) if "nested" in faults else 0
    data = ("[" * depth + text + "]" * depth).encode()
    if "not utf-8" in faults:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@settings(max_examples=60, deadline=None)
@given(fixture_files(), st.sampled_from([("x", "x"), ("xY", "yx"), ("X", "zx")]), st.sampled_from([(), (), ("--dim", "2")]))
def test_matcheck_fixtures_fail_only_with_a_documented_code(tmp_path_factory, data, exprs, dim):
    path = tmp_path_factory.getbasetemp() / "fuzzed-fixture.json"
    path.write_bytes(data)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["matcheck", *exprs, "--matrices", str(path), *dim])
    if code in (EXIT_OK, EXIT_CHECK_FAILED):
        assert len(stdout.getvalue().splitlines()) == 1
        assert stdout.getvalue().startswith(("PASS", "FAIL"))
    else:
        assert code in (EXIT_PARSE_ERROR, EXIT_EVAL_ERROR, EXIT_USAGE_ERROR)
        assert stdout.getvalue() == ""
        assert stderr.getvalue().count("error:") == 1


def test_parse_errors_exit_2():
    for text in ("2**x", "x?y", "1.2.3", "2x +", "2x 3", "1" * 400 + "x"):
        result = run_cli("eval", text)
        assert result.returncode == EXIT_PARSE_ERROR, text
        assert "position" in result.stderr


def test_batch_parse_errors_show_a_caret():
    # stderr holds the error, the offending argument and a caret under its position
    for args, argument, position in (
        (("eval", "2x + 3?y"), "2x + 3?y", 6),
        (("subs", "xy", "x", "1+"), "1+", 2),
    ):
        result = run_cli(*args)
        assert result.returncode == EXIT_PARSE_ERROR, args
        assert result.stdout == ""
        error, shown, caret = result.stderr.splitlines()
        assert error.startswith("error: ") and error.endswith(f"(at position {position})")
        assert (shown, caret) == (argument, " " * position + "^")


def test_noninvertible_substitution_exits_3():
    result = run_cli("subs", "X", "x", "1+y")
    assert result.returncode == EXIT_EVAL_ERROR
    # 1/1e-320 is not a finite float
    result = run_cli("subs", "X", "x", "." + "0" * 319 + "1x")
    assert result.returncode == EXIT_EVAL_ERROR
    assert "not finite" in result.stderr


def test_batch_expansion_past_the_limit_exits_3():
    # 1,001 terms of 1,003 symbols, and 2**16 terms of 16 symbols
    for args in (("deriv", "x" * 1001, "x"), ("subs", "x" * 16, "x", "x+y")):
        result = run_cli(*args)
        assert result.returncode == EXIT_EVAL_ERROR, args
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {args[0]} could exceed the limit of 1000000 terms or symbols in all"]
    # a bad replacement is a parse error, not a bad letter
    assert run_cli("subs", "x", "x", "1+").returncode == EXIT_PARSE_ERROR


def test_matcheck_product_past_the_limit_exits_3():
    # 1,001 distinct terms in each argument make 1,002,001 pairs, refused before any evaluation
    words = [format(i, "010b").translate(str.maketrans("01", "xy")) for i in range(1001)]
    argument = " + ".join(words)
    result = run_cli("matcheck", argument, argument, "--seed", "1")
    assert result.returncode == EXIT_EVAL_ERROR
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: product could exceed the limit of 1000000 terms or symbols in all"]
    # a product within the limit whose 140 symbols would each take a dim-100 matrix product:
    # 1.4e8 multiply-adds, past the 5**3 * 10**6 of a limit-sized product at the default dim
    result = run_cli("matcheck", "x" * 70, "y" * 70, "--seed", "1", "--dim", "100")
    assert result.returncode == EXIT_EVAL_ERROR
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: the check could take 140000000 multiply-adds at dim 100, past the limit of 125000000"
    ]


def test_usage_errors_exit_4(tmp_path):
    cases = [
        ("frobnicate",),
        ("deriv", "x"),
        ("deriv", "x", "ab"),
        ("subs", "x", "a"),
        ("subs", "x", "ab", "y"),
        ("rand",),
        ("matcheck", "x", "y"),
        ("rand", "--seed", "1", "--lenmin", "3", "--lenmax", "1"),
        ("rand", "--seed", "1", "--coeffmax", str(2**64 + 1)),
        # without the size cap these draw symbols until memory runs out
        ("rand", "--seed", "1", "--terms", "1", "--lenmin", str(10**12), "--lenmax", str(10**12)),
        ("rand", "--seed", "1", "--terms", str(10**12)),
        ("matcheck", "x", "x", "--seed", "1", "--dim", "0"),
        ("matcheck", "x", "x", "--seed", "1", "--dim", "-2"),
        # dim**3 past POWER_LIMIT: each product would take over 10**6 multiply-adds
        ("matcheck", "x", "y", "--seed", "1", "--dim", "101"),
        ("matcheck", "x", "x", "--seed", "1", "--tol", "nan"),
        ("matcheck", "x", "x", "--seed", "1", "--tol=-1"),
        ("matcheck", "x", "x", "--seed", "1", "--tol", "inf"),
        # a --matrices file that cannot be read: a missing file and a directory
        ("matcheck", "x", "x", "--matrices", str(tmp_path / "missing.json")),
        ("matcheck", "x", "x", "--matrices", str(tmp_path)),
    ]
    for args in cases:
        result = run_cli(*args)
        assert (result.returncode, result.stdout) == (EXIT_USAGE_ERROR, ""), args
        # argparse's own errors print the usage first
        last = result.stderr.splitlines()[-1]
        assert last.startswith("ncpoly") and "error: " in last, args


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
            "x^99999999999",
            "A",
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
    assert out[7].startswith("error:")  # a runaway power is refused at once
    assert out[8] == "+ 1*xxyx + 2*zy"


def test_session_products_are_bounded():
    stdout = io.StringIO()
    assert run_repl(io.StringIO("X = x^600000\nX*X\n[X, X]\n[a, b]\n"), stdout) == EXIT_OK
    refused = "error: product could exceed the limit of 1000000 terms or symbols in all"
    assert stdout.getvalue().splitlines() == [refused, refused, "+ 1*ab - 1*ba"]
    # the sizes of the operands in all count, not their longest words:
    # AA*AA would be 262,144 terms of 1,998 symbols
    stdout = io.StringIO()
    run_repl(io.StringIO("AA = (x+y)^9 * x^990\nAA*AA\n[a, b]\n"), stdout)
    assert stdout.getvalue().splitlines() == [refused, "+ 1*ab - 1*ba"]
    # the library's * is not bounded
    power = evaluate_expression("x^600000")
    assert (power * power).support() == [(24,) * 1_200_000]


def test_session_deriv_and_subs_are_bounded():
    stdout = io.StringIO()
    script = "X = x^600000\nsubs(X, x=Y)\nsubs(X, x=yy)\nderiv(X, x)\nsubs(X, x=x+y)\nsubs(X, x=xx)\n[a, b]\n"
    assert run_repl(io.StringIO(script), stdout) == EXIT_OK
    refused = "error: {} could exceed the limit of 1000000 terms or symbols in all"
    assert stdout.getvalue().splitlines() == [
        "+ 1*" + "Y" * 600000,
        refused.format("subs"),
        refused.format("deriv"),
        refused.format("subs"),
        refused.format("subs"),
        "+ 1*ab - 1*ba",
    ]
    # 1001 terms of 1001 symbols: refused by the session, not by the library
    stdout = io.StringIO()
    run_repl(io.StringIO("deriv(x^1001, x)\n"), stdout)
    assert stdout.getvalue() == refused.format("deriv") + "\n"
    assert len(derivative(evaluate_expression("x^1001"), "x")) == 1001


@pytest.mark.parametrize("depth", [200, 5000])
def test_session_nesting_is_bounded(depth):
    lines = [
        "(" * depth + "x" + ")" * depth,
        "[x, " * depth + "y" + "]" * depth,
        "deriv(" * depth + "x" + ", x)" * depth,
    ]
    # the opener of level MAX_NESTING + 1 is refused
    for line, width in zip(lines, (1, 4, 6)):
        with pytest.raises(ParseError) as excinfo:
            evaluate_expression(line)
        assert excinfo.value.position == MAX_NESTING * width
    stdout = io.StringIO()
    assert run_repl(io.StringIO("\n".join(lines) + "\n[a, b]\n"), stdout) == EXIT_OK
    refused = f"error: expression nests deeper than {MAX_NESTING} levels"
    out = stdout.getvalue().splitlines()
    assert [line.startswith(refused) for line in out] == [True, True, True, False]
    assert out[-1] == "+ 1*ab - 1*ba"
    assert evaluate_expression("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == parse("x")


session_pieces = st.sampled_from([*"xyzXYab12.0 +-*^()[],=", "deriv(", "subs(", "^30", "AA", "\t", "é"])
session_lines = st.lists(session_pieces, max_size=24).map("".join)


@settings(deadline=None)
@given(st.lists(session_lines, min_size=1, max_size=3))
def test_every_session_line_prints_binds_or_gives_one_error(lines):
    session = {}  # a fresh session for each example
    for line in lines:
        try:
            result = run_command(line, session)
        except EVAL_ERRORS:
            continue  # the session prints one error: line and reads on
        assert result is None or isinstance(result, str)


def test_repl_prompts_a_terminal():
    class Terminal(io.StringIO):
        def isatty(self):
            return True

    stdout = io.StringIO()
    assert run_repl(Terminal("[a, b]\n"), stdout) == EXIT_OK
    assert stdout.getvalue() == "ncpoly> + 1*ab - 1*ba\nncpoly> "


def test_repl_subcommand_matches_default():
    result = run_cli("repl", stdin="[a, b]\n")
    assert result.returncode == EXIT_OK
    assert result.stdout.strip() == "+ 1*ab - 1*ba"
