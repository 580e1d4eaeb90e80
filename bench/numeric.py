"""numeric: evaluation on seeded standard-normal matrix assignments.

One pass runs ``homomorphism_check`` on inverse-rich pairs over xyz at
dims 3 and 8, ``evaluate`` on a product and on a derivative output
(with its differential token bound), and a batch of small 3-term
checks at dim 3.  Every evaluation is checked against a numpy
reference, every homomorphism check must pass at ``tol=1e-9``.
"""

from __future__ import annotations

import random

from ncpoly import RandSpec, derivative, evaluate, homomorphism_check, random_assignment, random_element

import reference as ref
from harness import Op, Plan
from inputs import session_script, trimmed
from sweep import Subject, flops

PAIRS = 2
PAIR_TERMS = 35  # products of about 1.1k terms
DERIVED_TERMS = 1500
TINY = 48
TOL = 1e-9


def setup(seed: int) -> dict:
    rng = random.Random(f"numeric:{seed}")
    specs, pairs = [], []
    for i in range(PAIRS):
        pair = []
        for j in range(2):
            spec = RandSpec(seed=1000 * seed + 2 * i + j, n_terms=72, alphabet="xyz", word_len=(1, 6), allow_inverse=True)
            specs.append(spec)
            pair.append(trimmed(random_element(spec), PAIR_TERMS, rng))
        pairs.append(tuple(pair))
    tiny = []
    for k in range(TINY):
        pair = []
        for j in range(2):
            spec = RandSpec(seed=1000 * seed + 100 + 2 * k + j, n_terms=3, alphabet="xyz", word_len=(1, 4), allow_inverse=True)
            specs.append(spec)
            pair.append(random_element(spec))
        tiny.append(tuple(pair))
    a, b = pairs[0]
    product = a * b
    return {
        "pairs": pairs,
        "tiny": tiny,
        "product": product,
        "derived": trimmed(derivative(product, "x"), DERIVED_TERMS, rng),
        "dim3": random_assignment("xyz", 3, 10 * seed + 1),
        "dim8": random_assignment("xyz", 8, 10 * seed + 2),
        "diff": random_assignment("xyz", 3, 10 * seed + 3, diff_letters="x"),
        "specs": specs,
        "seed": seed,
    }


def evaluations(inp: dict) -> list:
    """The evaluated elements: (operation name, element, assignment)."""
    return [
        ("evaluate_product_dim3", inp["product"], inp["dim3"]),
        ("evaluate_derivative_dim3", inp["derived"], inp["diff"]),
    ]


def references(inp: dict) -> dict:
    """numpy values of the evaluations, as nested lists, with the scale
    their tolerance is relative to.  Run in a child process, so numpy
    is never loaded in the measuring one."""
    import numpy as np

    out = {}
    for name, element, assignment in evaluations(inp):
        bindings = {i: np.array(m.rows) for i, m in assignment.bindings.items()}
        diffs = {i: np.array(m.rows) for i, m in assignment.diff_bindings.items()}
        value = ref.numpy_evaluate(dict(element.terms()), bindings, diffs, assignment.dim)
        out[name] = (value.tolist(), max(1.0, float(np.abs(value).max())))
    return out


def build(inp: dict, expected: dict, ctx) -> Plan:
    def passes(report) -> bool:
        return report.passed and report.max_rel_residual <= TOL

    def homcheck(name, a, b, assignment) -> Op:
        return Op(
            name,
            "matrixeval.homomorphism_check",
            lambda: homomorphism_check(a, b, assignment, TOL),
            passes,
            len(a) + len(b) + len(a * b),
        )

    def evaluation(name, element, assignment) -> Op:
        value, scale = expected[name]

        def matches(out) -> bool:
            worst = max(abs(x - y) for row, want in zip(out.rows, value) for x, y in zip(row, want))
            shape = [len(row) for row in out.rows] == [len(row) for row in value]
            return shape and worst <= TOL * scale

        return Op(
            name,
            "matrixeval.evaluate",
            lambda: evaluate(element, assignment),
            matches,
            len(element),
            {"flops": flops(element, assignment.dim)},
        )

    ops = []
    for i, (a, b) in enumerate(inp["pairs"]):
        ops.append(homcheck(f"homcheck{i}_dim3", a, b, inp["dim3"]))
        ops.append(homcheck(f"homcheck{i}_dim8", a, b, inp["dim8"]))
    ops += [evaluation(*args) for args in evaluations(inp)]
    for k, (a, b) in enumerate(inp["tiny"]):
        ops.append(homcheck(f"tiny{k}", a, b, inp["dim3"]))

    rng = random.Random(f"numeric-session:{inp['seed']}")
    a, b = inp["pairs"][0]
    lines, _ = session_script(trimmed(a, 6, rng), trimmed(b, 6, rng), "x", rng)
    matrices = [
        m
        for key in ("dim3", "dim8", "diff")
        for m in inp[key].bindings.values()
    ]
    subject = Subject(
        pair=(a, b),
        big=inp["product"],
        small=(trimmed(a, 20, rng), trimmed(b, 20, rng)),
        letter="x",
        seed=inp["seed"],
        specs=inp["specs"],
        matrices=matrices,
        session=lines,
    )
    return Plan(ops, subject)
