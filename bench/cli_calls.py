"""cli_calls: ``python -m ncpoly`` processes, one after another.

One pass launches ``eval`` (twice), ``deriv``, ``subs``, ``json``,
``rand`` and ``matcheck`` on small seeded inputs, and two scripted
``repl`` sessions fed through stdin.  Children run from the checkout
with ``src`` on PYTHONPATH, so the package need not be installed, and
report their own peak memory at exit (see ``child/sitecustomize.py``).
Batch output must be byte-identical to the library printer on the same
input, and session output must match the library's results line by line.
"""

from __future__ import annotations

import os
import random
import subprocess

from ncpoly import (
    Element,
    RandSpec,
    canonical_print,
    derivative,
    parse,
    random_element,
    substitute,
    to_json,
)

from harness import Op, Plan
from inputs import flat_text, session_script, trimmed
from sweep import Subject

PEAK_TAG = "bench-vmhwm-kb "


def setup(seed: int) -> dict:
    rng = random.Random(f"cli_calls:{seed}")
    specs = []

    def draw(k, n_terms, alphabet="xyz", lenmax=4):
        # exactly n_terms terms, so every seed reads the same amount
        spec = RandSpec(seed=100 * seed + k, n_terms=2 * n_terms + 4, alphabet=alphabet, word_len=(1, lenmax), allow_inverse=True)
        specs.append(spec)
        return trimmed(random_element(spec), n_terms, rng)

    def argument(element):
        # a leading space keeps argparse from reading "-3*x" as an option
        return " " + flat_text(element.terms(), rng)

    # b appears only uninverted, so the polynomial "1 + c" may replace it
    subs_input = Element((tuple(abs(s) if s == -2 else s for s in w), c) for w, c in draw(5, 10, "abc").terms())
    sessions = [(draw(8, 5), draw(9, 5), "x"), (draw(10, 5), draw(11, 5), "y")]
    return {
        "eval": [argument(draw(1, 12)), argument(draw(2, 60, lenmax=6))],
        "deriv": argument(draw(3, 10)),
        "subs": argument(subs_input),
        "json": argument(draw(4, 10)),
        "matcheck": [argument(draw(6, 4)), argument(draw(7, 4))],
        "sessions": sessions,
        "specs": specs,
        "seed": seed,
    }


def references(inp: dict) -> dict:
    """Nothing to compute apart: the expected outputs are small library
    results made in ``build``, and the peak memory this workload reports
    is its children's, not this process's."""
    return {}


def build(inp: dict, expected: dict, ctx) -> Plan:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([ctx.src, os.path.join(ctx.bench, "child")]))
    seed = inp["seed"]
    peaks: list[int] = []

    def launch(argv, stdin=None):
        def run():
            return subprocess.run(
                [ctx.python, "-m", "ncpoly", *argv],
                input=stdin,
                capture_output=True,
                text=True,
                env=env,
                cwd=ctx.root,
                timeout=60,
            )

        return run

    def prints(expected: str, prefix: bool = False):
        def check(done) -> bool:
            other = []
            for line in done.stderr.splitlines():
                if line.startswith(PEAK_TAG):
                    peaks.append(int(line[len(PEAK_TAG):]))
                else:
                    other.append(line)
            if done.returncode != 0 or other:
                return False
            return done.stdout.startswith(expected) if prefix else done.stdout == expected

        return check

    launch(["--version"])()  # compile the package's bytecode before timing

    # an operation's terms are the terms its child reads
    ops = []
    for i, text in enumerate(inp["eval"]):
        value = parse(text)
        ops.append(Op(f"eval{i}", "cli.eval", launch(["eval", text]), prints(canonical_print(value) + "\n"), len(value)))

    value = derivative(parse(inp["deriv"]), "x")
    ops.append(
        Op(
            "deriv",
            "cli.deriv",
            launch(["deriv", inp["deriv"], "x"]),
            prints(canonical_print(value) + "\n"),
            len(parse(inp["deriv"])),
        )
    )

    value = substitute(parse(inp["subs"]), [("a", parse("2c")), ("b", parse("1 + c"))])
    ops.append(
        Op(
            "subs",
            "cli.subs",
            launch(["subs", inp["subs"], "a", "2c", "b", "1 + c"]),
            prints(canonical_print(value) + "\n"),
            len(parse(inp["subs"])) + 3,
        )
    )

    value = parse(inp["json"])
    ops.append(Op("json", "cli.json", launch(["json", inp["json"]]), prints(to_json(value) + "\n"), len(value)))

    spec = RandSpec(seed=seed, n_terms=8, alphabet="xyz", word_len=(1, 5), coeff_range=(1, 9), allow_inverse=True)
    value = random_element(spec)
    argv = ["rand", "--seed", str(seed), "--terms", "8", "--alphabet", "xyz", "--lenmax", "5", "--inverse"]
    ops.append(Op("rand", "cli.rand", launch(argv), prints(canonical_print(value) + "\n"), spec.n_terms))

    first, second = inp["matcheck"]
    argv = ["matcheck", first, second, "--seed", str(seed), "--dim", "4"]
    terms = len(parse(first)) + len(parse(second))
    ops.append(Op("matcheck", "cli.matcheck", launch(argv), prints("PASS ", prefix=True), terms))

    rng = random.Random(f"cli_calls-session:{seed}")
    session_lines = []
    for i, (first, second, letter) in enumerate(inp["sessions"]):
        lines, outputs = session_script(first, second, letter, rng)
        session_lines += lines
        script = "".join(line + "\n" for line in lines)
        expected = "".join(line + "\n" for line in outputs)
        ops.append(Op(f"repl{i}", "cli.repl", launch(["repl"], script), prints(expected), len(first) + len(second)))

    small = (parse(inp["eval"][0]), parse(inp["deriv"]))
    big = parse(inp["eval"][1])
    subject = Subject(
        pair=(big, small[0]),
        big=big,
        small=small,
        letter="x",
        seed=seed,
        specs=inp["specs"],
        session=session_lines,
    )
    return Plan(ops, subject, lambda: max(peaks) / 1024)
