"""Command line front end: batch subcommands plus an interactive session.

The session grammar extends the flat element syntax with parentheses,
``*`` products, integer ``^`` powers, ``[a, b]`` commutator brackets,
``deriv(expr, letter)`` and ``subs(expr, letter=expr, ...)`` calls, and
named bindings (``NAME = expr``).  It reads the tokens of
``parsing.tokenize``, while the flat syntax is read term by term by
``parsing.parse``.  Batch subcommands stick to the flat element syntax
so their output matches the library printer exactly.

A ``^`` power, a session ``*`` product or bracket and a session or batch
``deriv`` or ``subs`` are refused when their result could pass
``element.POWER_LIMIT`` terms or symbols in all (``calculus`` holds the
size rule of ``deriv`` and ``subs``); the session also refuses nesting
deeper than ``MAX_NESTING``.

Exit codes: 0 success, 1 failed check, 2 parse error (a ``--matrices``
fixture too, e.g. one with a repeated key or keys other than ``bindings``
and ``diff_bindings``), 3 evaluation error (unbound generator, singular
matrix, non-invertible replacement, non-finite coefficient or matrix
entry, a result past ``POWER_LIMIT``, a ``matcheck`` whose evaluation
could pass ``DEFAULT_DIM**3 * POWER_LIMIT`` multiply-adds), 4 usage
error (an unreadable ``--matrices`` file, ``--seed`` with
``--matrices``, a ``--dim`` or fixture dimension whose dim**3 is not
within 1..``POWER_LIMIT``, a negative or non-finite ``--tol``, ``rand``
sizes past ``POWER_LIMIT``).
Each usage error prints one ``ncpoly: error:`` line; argparse's own
errors print the usage first.  Only ``main`` maps an exception to a code.
"""

from __future__ import annotations

import argparse
import math
import sys

# calculus, matrixeval and randomgen load on first use, through the package
import ncpoly

from .element import POWER_LIMIT, Element, _bounded_product, _check_product
from .parsing import (
    BAD_NUMBER,
    EMPTY_TERM,
    TRAILING_INPUT,
    UNEXPECTED_CHAR,
    ParseError,
    Token,
    parse,
    tokenize,
)
from .textio import _load_json, canonical_print, to_json
from .words import letter_index

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_EVAL_ERROR = 3
EXIT_USAGE_ERROR = 4

# errors a session line reports and goes past; a batch command exits 3 (2 if ParseError)
EVAL_ERRORS = (ValueError, LookupError, ArithmeticError)

RESERVED_FUNCTIONS = ("deriv", "subs")

# matcheck's matrix dimension when neither --dim nor --matrices gives one
DEFAULT_DIM = 5

# the deepest session nesting of parentheses, brackets and calls; each level
# takes about six Python frames, well inside the default recursion limit
MAX_NESTING = 100


class SessionError(ValueError):
    """Invalid session command, e.g. a binding name that is not allowed."""


class UnknownName(SessionError):
    """A name that is neither bound in the session nor a plain generator word."""


# ----------------------------------------------------------------------
# session expression language


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

    def __init__(self, tokens: list[Token], session: dict):
        self.tokens = tokens
        self.session = session
        self.index = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
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
            value = _bounded_product(value, self.signed())
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
        if token.kind == "name" and not (token.text in RESERVED_FUNCTIONS and self.at_op("(")):
            return self.resolve(token)
        if token.kind == "end":
            raise ParseError(token.start, "expected an expression", EMPTY_TERM)
        if token.kind != "name" and token.text not in ("(", "["):
            raise ParseError(token.start, f"unexpected {token.text!r}", UNEXPECTED_CHAR)
        # a nested expression: parentheses, a bracket or a call
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(token.start, f"expression nests deeper than {MAX_NESTING} levels", UNEXPECTED_CHAR)
        if token.text == "(":
            value = self.expression()
            self.expect_op(")")
        elif token.text == "[":
            left = self.expression()
            self.expect_op(",")
            right = self.expression()
            self.expect_op("]")
            value = _bounded_product(left, right) - _bounded_product(right, left)
        else:
            value = self.call(token.text)
        self.depth -= 1
        return value

    def resolve(self, token: Token) -> Element:
        name = token.text
        if name in self.session:
            return self.session[name]
        try:
            return Element.from_word(name)
        except ValueError:
            raise UnknownName(f"'{name}' is not bound and is not a generator word") from None

    def call(self, function: str) -> Element:
        self.expect_op("(")
        argument = self.expression()
        if function == "deriv":
            self.expect_op(",")
            letter = self.letter_argument()
            self.expect_op(")")
            return ncpoly.calculus._bounded_derivative(argument, letter)
        pairs = []
        while self.at_op(","):
            self.advance()
            letter = self.letter_argument()
            self.expect_op("=")
            pairs.append((letter, self.expression()))
        self.expect_op(")")
        return ncpoly.calculus._bounded_substitution(argument, pairs)

    def letter_argument(self) -> int:
        token = self.advance()
        try:
            return letter_index(token.text)
        except ValueError:
            kind = EMPTY_TERM if token.kind == "end" else UNEXPECTED_CHAR
            raise ParseError(token.start, "expected a single generator letter", kind) from None


def evaluate_expression(text: str, session: dict | None = None) -> Element:
    """Evaluate session expression syntax against the given bindings."""
    return _ExpressionParser(list(tokenize(text)), session if session is not None else {}).parse()


def run_command(line: str, session: dict) -> str | None:
    """Execute one session line against (and updating) ``session``.

    ``NAME = expr`` binds quietly and returns None; a bare expression
    evaluates and returns its canonical printed form.  Binding names
    need at least two characters (or a single uppercase letter); single
    lowercase letters stay generator syntax.
    """
    if not line.strip(" "):
        return None
    # the name of a binding is checked before the rest of the line is tokenized
    tokens = tokenize(line)
    first, second = next(tokens), next(tokens)
    if first.kind == "name" and second.text == "=":
        name = first.text
        if len(name) == 1 and not name.isupper():
            raise SessionError(f"'{name}' cannot be bound: single lowercase letters are generators")
        if name in RESERVED_FUNCTIONS:
            raise SessionError(f"'{name}' is a built-in function and cannot be bound")
        session[name] = _ExpressionParser(list(tokens), session).parse()
        return None
    return canonical_print(_ExpressionParser([first, second, *tokens], session).parse())


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
        except EVAL_ERRORS as exc:
            output = f"error: {exc}"
        if output is not None:
            stdout.write(output + "\n")


# ----------------------------------------------------------------------
# batch subcommands


class UsageError(Exception):
    """A batch argument or ``--matrices`` file that cannot be used; ``main`` exits 4."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse defaults to exit code 2, which is reserved for parse errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _parse(text: str) -> Element:
    """``parse`` of a batch argument; a ParseError carries the argument, for ``main``'s caret."""
    try:
        return parse(text)
    except ParseError as exc:
        exc.argument = text
        raise


def _letter(text: str) -> int:
    """A batch LETTER argument, or UsageError."""
    try:
        return letter_index(text)
    except ValueError:
        raise UsageError(f"LETTER must be a single lowercase letter, got {text!r}") from None


def _cmd_eval(args) -> int:
    print(canonical_print(_parse(args.expr)))
    return EXIT_OK


def _cmd_deriv(args) -> int:
    letter = _letter(args.letter)
    print(canonical_print(ncpoly.calculus._bounded_derivative(_parse(args.expr), letter)))
    return EXIT_OK


def _cmd_subs(args) -> int:
    if len(args.pairs) % 2 != 0:
        raise UsageError("substitutions come in LETTER REPLACEMENT pairs")
    pairs = [(_letter(target), _parse(replacement)) for target, replacement in zip(args.pairs[::2], args.pairs[1::2])]
    print(canonical_print(ncpoly.calculus._bounded_substitution(_parse(args.expr), pairs)))
    return EXIT_OK


def _cmd_rand(args) -> int:
    try:
        spec = ncpoly.RandSpec(
            seed=args.seed,
            n_terms=args.terms,
            alphabet=tuple(args.alphabet),
            word_len=(args.lenmin, args.lenmax),
            coeff_range=(1, args.coeffmax),
            allow_inverse=args.inverse,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(canonical_print(ncpoly.random_element(spec)))
    return EXIT_OK


def _cmd_json(args) -> int:
    print(to_json(_parse(args.expr)))
    return EXIT_OK


def _cmd_matcheck(args) -> int:
    if not 0 <= args.tol < math.inf:
        raise UsageError(f"--tol must be finite and not negative, got {args.tol}")
    a = _parse(args.expr_a)
    b = _parse(args.expr_b)
    assignment = None if args.matrices is None else _load_assignment(args.matrices)
    dim = (DEFAULT_DIM if args.dim is None else args.dim) if assignment is None else assignment.dim
    if args.dim not in (None, dim):
        raise ParseError(0, f"{args.matrices}: the matrices are {dim}x{dim}, not --dim {args.dim}", UNEXPECTED_CHAR)
    # each matrix product takes dim**3 multiply-adds in pure Python, however dim was given
    if not 1 <= dim**3 <= POWER_LIMIT:
        raise UsageError(f"the matrix dimension must be at least 1, with dim**3 at most {POWER_LIMIT}, got {dim}")
    if assignment is None:
        assignment = ncpoly.random_assignment(sorted(a.letters() | b.letters()), dim, args.seed)
    # evaluation takes dim**3 multiply-adds per symbol it folds, most of them in a*b; the
    # limit is a POWER_LIMIT-symbol product at the default dim, so no dim up to it is refused
    work, limit = dim**3 * _check_product(a, b), DEFAULT_DIM**3 * POWER_LIMIT
    if work > limit:
        raise OverflowError(f"the check could take {work} multiply-adds at dim {dim}, past the limit of {limit}")
    report = ncpoly.homomorphism_check(a, b, assignment, args.tol)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} max_abs={report.max_abs_residual:.3e} max_rel={report.max_rel_residual:.3e}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _load_assignment(path: str) -> ncpoly.MatrixAssignment:
    """Read a ``--matrices`` fixture; an OSError is a UsageError, any other error a ParseError naming the path."""
    try:
        with open(path, encoding="utf-8") as handle:
            return ncpoly.MatrixAssignment.from_jsonable(_load_json(handle.read()))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ParseError(0, f"{path} is not UTF-8 text", UNEXPECTED_CHAR) from None
    except ParseError as exc:
        raise ParseError(exc.position, f"{path}: {exc.message}", exc.kind) from None
    except ValueError as exc:
        raise ParseError(0, f"{path}: {exc}", UNEXPECTED_CHAR) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ncpoly",
        description="noncommutative polynomial calculator over invertible generators",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {ncpoly.__version__}")
    parser.set_defaults(func=lambda args: run_repl())  # no subcommand starts the session
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

    p = sub.add_parser("matcheck", help="numerically verify eval(a) @ eval(b) == eval(a*b)", description=(
        "Numerically verify eval(a) @ eval(b) == eval(a*b) on square matrices. A dim-D check cannot see an error "
        "in a*b that is a polynomial identity of D x D matrices. The lowest-degree such identity is the standard "
        "polynomial S_2D (Amitsur-Levitzki, Proc. AMS 1 (1950) 449-463), so the default --dim 5 is blind from "
        "degree 10. This is claimed for inverse-free elements only."))
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--seed", type=int)
    source.add_argument("--matrices", help="JSON fixture with explicit matrix bindings")
    p.set_defaults(func=_cmd_matcheck)

    p = sub.add_parser("json", help="print the JSON form of an element")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_json)

    sub.add_parser("repl", help="interactive session (also the default with no arguments)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if hasattr(exc, "argument"):
            print(exc.argument, " " * exc.position + "^", sep="\n", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except UsageError as exc:
        print(f"ncpoly: error: {exc}", file=sys.stderr)
        return EXIT_USAGE_ERROR
    except EVAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL_ERROR
