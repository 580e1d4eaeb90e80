"""Command line front end: batch subcommands plus an interactive session.

The session grammar extends the flat element syntax with parentheses,
``*`` products, integer ``^`` powers, ``[a, b]`` commutator brackets,
``deriv(expr, letter)`` and ``subs(expr, letter=expr, ...)`` calls, and
named bindings (``NAME = expr``).  Batch subcommands stick to the flat
element syntax so their output matches the library printer exactly.

Exit codes: 0 success, 1 failed check, 2 parse error, 3 evaluation
error (unbound generator, singular matrix, non-invertible replacement,
degenerate random spec), 4 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import NamedTuple

from . import __version__
from .calculus import NonInvertibleReplacement, derivative, substitute
from .element import Element
from .matrixeval import (
    Matrix,
    MatrixAssignment,
    SingularMatrix,
    UnboundLetter,
    homomorphism_check,
    random_assignment,
)
from .parsing import (
    BAD_NUMBER,
    EMPTY_TERM,
    TRAILING_INPUT,
    UNEXPECTED_CHAR,
    ParseError,
    parse,
)
from .randomgen import DegenerateSpec, RandSpec, random_element
from .textio import canonical_print, to_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_EVAL_ERROR = 3
EXIT_USAGE_ERROR = 4

RESERVED_FUNCTIONS = ("deriv", "subs")

_ASSIGN_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$")


class SessionError(ValueError):
    """Invalid session command, e.g. a binding name that is not allowed."""


class UnknownName(SessionError):
    """A name that is neither bound in the session nor a plain generator word."""


# ----------------------------------------------------------------------
# session expression language


class _Token(NamedTuple):
    kind: str  # "num", "name", "op", "end"
    text: str
    value: float | None
    start: int
    end: int


def _tokenize(text: str, offset: int = 0) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == " ":
            i += 1
            continue
        if ch in "+-*^()[],=":
            tokens.append(_Token("op", ch, None, offset + i, offset + i + 1))
            i += 1
            continue
        if ch in "0123456789.":
            start = i
            digits = 0
            dot = -1
            while i < n and text[i] in "0123456789.":
                if text[i] == ".":
                    if dot >= 0:
                        raise ParseError(offset + i, "number has a second decimal point", BAD_NUMBER)
                    dot = i
                else:
                    digits += 1
                i += 1
            if digits == 0:
                raise ParseError(offset + start, "number has no digits", BAD_NUMBER)
            raw = text[start:i]
            value = float(raw)
            if not math.isfinite(value):
                raise ParseError(offset + start, "number is too large for a float", BAD_NUMBER)
            tokens.append(_Token("num", raw, value, offset + start, offset + i))
            continue
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            start = i
            while i < n and text[i].isascii() and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], None, offset + start, offset + i))
            continue
        raise ParseError(offset + i, f"character {ch!r} is not expression syntax", UNEXPECTED_CHAR)
    tokens.append(_Token("end", "", None, offset + n, offset + n))
    return tokens


def _is_word_name(name: str) -> bool:
    return name.isascii() and name.isalpha()


class _ExpressionParser:
    """Recursive descent over the session grammar::

        expression := product {("+"|"-") product}
        product    := signed {"*" signed}
        signed     := {"+"|"-"} power
        power      := atom {"^" integer}
        atom       := number [adjacent letters]
                    | name                      binding, else generator word
                    | "deriv" "(" expression "," letter ")"
                    | "subs" "(" expression {"," letter "=" expression} ")"
                    | "(" expression ")"
                    | "[" expression "," expression "]"
    """

    def __init__(self, tokens: list[_Token], session: dict):
        self.tokens = tokens
        self.session = session
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def at_op(self, *ops: str) -> bool:
        token = self.peek()
        return token.kind == "op" and token.text in ops

    def expect_op(self, op: str) -> None:
        token = self.advance()
        if token.kind != "op" or token.text != op:
            kind = EMPTY_TERM if token.kind == "end" else UNEXPECTED_CHAR
            raise ParseError(token.start, f"expected {op!r}", kind)

    def parse(self) -> Element:
        value = self.expression()
        token = self.peek()
        if token.kind != "end":
            raise ParseError(token.start, f"unexpected {token.text!r} after the expression", TRAILING_INPUT)
        return value

    def expression(self) -> Element:
        value = self.product()
        while self.at_op("+", "-"):
            op = self.advance().text
            right = self.product()
            value = value + right if op == "+" else value - right
        return value

    def product(self) -> Element:
        value = self.signed()
        while self.at_op("*"):
            self.advance()
            value = value * self.signed()
        return value

    def signed(self) -> Element:
        negate = False
        while self.at_op("+", "-"):
            if self.advance().text == "-":
                negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self) -> Element:
        value = self.atom()
        while self.at_op("^"):
            self.advance()
            token = self.advance()
            if token.kind != "num" or "." in token.text:
                raise ParseError(token.start, "exponent must be a nonnegative integer", BAD_NUMBER)
            value = value ** int(token.text)
        return value

    def atom(self) -> Element:
        token = self.advance()
        if token.kind == "num":
            value = Element.constant(token.value)
            nxt = self.peek()
            if nxt.kind == "name" and nxt.start == token.end:
                if nxt.text in RESERVED_FUNCTIONS:
                    raise ParseError(nxt.start, f"use '*' before {nxt.text!r}", UNEXPECTED_CHAR)
                self.advance()
                value = value * self.resolve(nxt)
            return value
        if token.kind == "name":
            if token.text in RESERVED_FUNCTIONS and self.at_op("("):
                return self.call(token.text)
            return self.resolve(token)
        if token.kind == "op" and token.text == "(":
            value = self.expression()
            self.expect_op(")")
            return value
        if token.kind == "op" and token.text == "[":
            left = self.expression()
            self.expect_op(",")
            right = self.expression()
            self.expect_op("]")
            return left.commutator(right)
        if token.kind == "end":
            raise ParseError(token.start, "expected an expression", EMPTY_TERM)
        raise ParseError(token.start, f"unexpected {token.text!r}", UNEXPECTED_CHAR)

    def resolve(self, token: _Token) -> Element:
        name = token.text
        if name in self.session:
            return self.session[name]
        if _is_word_name(name):
            return Element.from_word(name)
        raise UnknownName(f"'{name}' is not bound and is not a generator word")

    def call(self, function: str) -> Element:
        self.expect_op("(")
        argument = self.expression()
        if function == "deriv":
            self.expect_op(",")
            letter = self.letter_argument()
            self.expect_op(")")
            return derivative(argument, letter)
        pairs = []
        while self.at_op(","):
            self.advance()
            letter = self.letter_argument()
            self.expect_op("=")
            pairs.append((letter, self.expression()))
        self.expect_op(")")
        return substitute(argument, pairs)

    def letter_argument(self) -> str:
        token = self.advance()
        if token.kind != "name" or len(token.text) != 1 or not token.text.islower():
            kind = EMPTY_TERM if token.kind == "end" else UNEXPECTED_CHAR
            raise ParseError(token.start, "expected a single generator letter", kind)
        return token.text


def evaluate_expression(text: str, session: dict | None = None, offset: int = 0) -> Element:
    """Evaluate session expression syntax against the given bindings."""
    tokens = _tokenize(text, offset)
    return _ExpressionParser(tokens, session if session is not None else {}).parse()


def run_command(line: str, session: dict) -> str | None:
    """Execute one session line against (and updating) ``session``.

    ``NAME = expr`` binds quietly and returns None; a bare expression
    evaluates and returns its canonical printed form.  Binding names
    need at least two characters (or a single uppercase letter); single
    lowercase letters stay generator syntax.
    """
    if not line.strip():
        return None
    match = _ASSIGN_RE.match(line)
    if match:
        name = match.group(1)
        if len(name) == 1 and not name.isupper():
            raise SessionError(f"'{name}' cannot be bound: single lowercase letters are generators")
        if name in RESERVED_FUNCTIONS:
            raise SessionError(f"'{name}' is a built-in function and cannot be bound")
        session[name] = evaluate_expression(match.group(2), session, offset=match.start(2))
        return None
    return canonical_print(evaluate_expression(line, session))


def run_repl(stdin=None, stdout=None) -> int:
    """Line loop over stdin; errors are reported and the session continues."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    session: dict[str, Element] = {}
    interactive = hasattr(stdin, "isatty") and stdin.isatty()
    while True:
        if interactive:
            stdout.write("ncpoly> ")
            stdout.flush()
        line = stdin.readline()
        if not line:
            return EXIT_OK
        try:
            output = run_command(line.rstrip("\r\n"), session)
        except (ValueError, LookupError, ArithmeticError) as exc:
            output = f"error: {exc}"
        if output is not None:
            stdout.write(output + "\n")


# ----------------------------------------------------------------------
# batch subcommands


class _ArgumentParser(argparse.ArgumentParser):
    # argparse defaults to exit code 2, which is reserved for parse errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _usage_error(message: str) -> int:
    print(f"ncpoly: error: {message}", file=sys.stderr)
    return EXIT_USAGE_ERROR


def _is_single_lowercase(text: str) -> bool:
    return len(text) == 1 and "a" <= text <= "z"


def _cmd_eval(args) -> int:
    print(canonical_print(parse(args.expr)))
    return EXIT_OK


def _cmd_deriv(args) -> int:
    if not _is_single_lowercase(args.letter):
        return _usage_error(f"LETTER must be a single lowercase letter, got {args.letter!r}")
    print(canonical_print(derivative(parse(args.expr), args.letter)))
    return EXIT_OK


def _cmd_subs(args) -> int:
    if len(args.pairs) % 2 != 0:
        return _usage_error("substitutions come in LETTER REPLACEMENT pairs")
    pairs = []
    for target, replacement in zip(args.pairs[::2], args.pairs[1::2]):
        if not _is_single_lowercase(target):
            return _usage_error(f"LETTER must be a single lowercase letter, got {target!r}")
        pairs.append((target, parse(replacement)))
    print(canonical_print(substitute(parse(args.expr), pairs)))
    return EXIT_OK


def _cmd_rand(args) -> int:
    try:
        spec = RandSpec(
            seed=args.seed,
            n_terms=args.terms,
            alphabet=tuple(args.alphabet),
            word_len=(args.lenmin, args.lenmax),
            coeff_range=(1, args.coeffmax),
            allow_inverse=args.inverse,
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    print(canonical_print(random_element(spec)))
    return EXIT_OK


def _cmd_json(args) -> int:
    print(to_json(parse(args.expr)))
    return EXIT_OK


def _cmd_matcheck(args) -> int:
    a = parse(args.expr_a)
    b = parse(args.expr_b)
    if args.matrices is not None:
        assignment = _load_assignment(args.matrices, args.dim)
    else:
        if args.seed is None:
            return _usage_error("either --seed or --matrices is required")
        letters = sorted(a.letters() | b.letters())
        assignment = random_assignment(letters, args.dim if args.dim else 5, args.seed)
    report = homomorphism_check(a, b, assignment, args.tol)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} max_abs={report.max_abs_residual:.3e} max_rel={report.max_rel_residual:.3e}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _load_assignment(path: str, dim: int | None) -> MatrixAssignment:
    """Read a matrix fixture: {"bindings": {letter: matrix}, "diff_bindings": {...}}
    with each matrix in the {"dim": n, "rows": [[...], ...]} form."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.pos, f"invalid JSON in {path}: {exc.msg}", UNEXPECTED_CHAR) from None
    if not isinstance(obj, dict) or "bindings" not in obj or not isinstance(obj["bindings"], dict):
        raise ParseError(0, f'{path}: expected {{"bindings": {{...}}}}', UNEXPECTED_CHAR)
    try:
        bindings = {name: Matrix.from_jsonable(m) for name, m in obj["bindings"].items()}
        diffs = {
            name: Matrix.from_jsonable(m)
            for name, m in obj.get("diff_bindings", {}).items()
        }
        dims = {m.dim for m in [*bindings.values(), *diffs.values()]}
        if not dims:
            raise ValueError("fixture binds no matrices")
        if len(dims) > 1:
            raise ValueError(f"fixture matrices disagree on dimension: {sorted(dims)}")
        fixture_dim = dims.pop()
        if dim is not None and dim != fixture_dim:
            raise ValueError(f"--dim {dim} does not match fixture dimension {fixture_dim}")
        return MatrixAssignment(fixture_dim, bindings, diffs)
    except ValueError as exc:
        raise ParseError(0, f"{path}: {exc}", UNEXPECTED_CHAR) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ncpoly",
        description="noncommutative polynomial calculator over invertible generators",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_ArgumentParser)

    p = sub.add_parser("eval", help="parse an element and print its canonical form")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("deriv", help="differentiate an element with respect to a letter")
    p.add_argument("expr")
    p.add_argument("letter")
    p.set_defaults(func=_cmd_deriv)

    p = sub.add_parser("subs", help="substitute elements for letters, left to right")
    p.add_argument("expr")
    p.add_argument("pairs", nargs="+", metavar="LETTER REPLACEMENT")
    p.set_defaults(func=_cmd_subs)

    p = sub.add_parser("rand", help="print a seeded random element")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--terms", type=int, default=5)
    p.add_argument("--alphabet", default="abc")
    p.add_argument("--lenmin", type=int, default=1)
    p.add_argument("--lenmax", type=int, default=4)
    p.add_argument("--coeffmax", type=int, default=9)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=_cmd_rand)

    p = sub.add_parser("matcheck", help="numerically verify eval(a) @ eval(b) == eval(a*b)")
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--matrices", default=None, help="JSON fixture with explicit matrix bindings")
    p.set_defaults(func=_cmd_matcheck)

    p = sub.add_parser("json", help="print the JSON form of an element")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_json)

    p = sub.add_parser("repl", help="interactive session (also the default with no arguments)")
    p.set_defaults(func=None)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv:
        return run_repl()
    args = build_parser().parse_args(argv)
    if args.command is None or args.command == "repl":
        return run_repl()
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (UnboundLetter, SingularMatrix, NonInvertibleReplacement, DegenerateSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL_ERROR
