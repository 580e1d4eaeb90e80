"""algebra: ring arithmetic and calculus on seeded inverse-rich elements.

One pass: ``A*B``, ``B*A``, the commutator, a three-term power
``(c1*x + c2*y + c3*z)**10``, a single-term power with a large
exponent, the derivative of ``A*B``, substitution with a polynomial and
with a single-term (inverse) replacement, and the equal-inputs product
that fails today.  No parsing or printing.  Integer and dyadic
coefficients keep every expected value exact.
"""

from __future__ import annotations

import random

from ncpoly import Element, RandSpec, commutator, derivative, random_element, substitute

import reference as ref
from harness import Op, Plan, digest, once
from inputs import session_script, trimmed
from sweep import Subject

N_TERMS = 110  # of A and B; their product has about 12k terms
POWER = 10
SINGLE_POWER = 20001
SUBS_TERMS = 40


def setup(seed: int) -> dict:
    rng = random.Random(f"algebra:{seed}")
    spec_a = RandSpec(seed=10 * seed + 1, n_terms=170, alphabet="abcd", word_len=(1, 8), allow_inverse=True)
    spec_b = RandSpec(seed=10 * seed + 2, n_terms=170, alphabet="abcd", word_len=(1, 8), allow_inverse=True)
    a = trimmed(random_element(spec_a), N_TERMS, rng)
    b = trimmed(random_element(spec_b), N_TERMS, rng)

    # c1*x + c2*y + c3*z: 3**10 distinct words, none cancelling.  The letters
    # are fixed: the cost of a dict of words depends on which symbols they
    # hold (hash(-1) == hash(-2) in CPython), and a seeded choice made the
    # pass time of some seeds twice that of others.
    base = Element(((sym,), rng.randint(1, 3)) for sym in (24, 25, 26))

    # u v u^-1 with v cyclically reduced: the power cancels at every seam
    while True:
        u = tuple(rng.choice((1, 2, 3, 4, -1, -2, -3, -4)) for _ in range(2))
        v = tuple(rng.choice((1, 2, 3, 4, -1, -2, -3, -4)) for _ in range(3))
        word = u + v + tuple(-s for s in reversed(u))
        if ref.naive_reduce(word) == word and v[0] + v[-1] != 0:
            break
    single = Element([(word, -1.0)])

    # d appears only uninverted, so a polynomial may replace it
    spec_s1 = RandSpec(seed=10 * seed + 3, n_terms=72, alphabet="abcd", word_len=(1, 6), allow_inverse=True)
    spec_s2 = RandSpec(seed=10 * seed + 4, n_terms=72, alphabet="abcd", word_len=(1, 6), allow_inverse=True)
    s1, s2 = (
        trimmed(Element((tuple(abs(s) if s == -4 else s for s in w), c) for w, c in random_element(spec).terms()), SUBS_TERMS, rng)
        for spec in (spec_s1, spec_s2)
    )

    # the known fault: fixed inputs, not drawn from the seed
    f = random_element(RandSpec(seed=1, n_terms=60, alphabet="abcd", word_len=(1, 4), allow_inverse=True)) * 0.1
    g = random_element(RandSpec(seed=2, n_terms=60, alphabet="abcd", word_len=(1, 4), allow_inverse=True))
    return {
        "A": a,
        "B": b,
        "P": a * b,
        "base": base,
        "single": single,
        "S1": s1,
        "S2": s2,
        "SS": s1 * s2,
        "poly": Element([((2,), 2), ((-3,), -1)]),  # 2b - C
        "unit": Element([((2, -3), 2)]),  # 2bC
        "F": f,
        "F_reversed": Element(list(reversed(f.terms()))),
        "G": g,
        "specs": [spec_a, spec_b, spec_s1, spec_s2],
        "seed": seed,
    }


def references(inp: dict) -> dict:
    """Digests of every expected output.  Run in a child process: the
    naive expansions hold more terms than the program's outputs."""
    a, b = inp["A"], inp["B"]
    ta, tb = dict(a.terms()), dict(b.terms())
    ab = ref.naive_product(ta, tb)
    ba = ref.naive_product(tb, ta)
    ((word, coeff),) = inp["single"].terms()
    leibniz = derivative(a, "a") * b + a * derivative(b, "a")
    s1, s2 = inp["S1"], inp["S2"]
    poly = [("d", inp["poly"])]
    unit = [("a", inp["unit"])]
    exact = {
        "A*B": ab,
        "B*A": ba,
        "commutator": ref.naive_sum((ab, 1), (ba, -1)),
        "-[B,A]": dict((-commutator(b, a)).terms()),
        "power": ref.naive_power(dict(inp["base"].terms()), POWER),
        "single_power": {ref.closed_power(word, SINGLE_POWER): coeff**SINGLE_POWER},
        "derivative": dict(leibniz.terms()),
        "substitute_poly": dict((substitute(s1, poly) * substitute(s2, poly)).terms()),
        "substitute_unit": dict((substitute(s1, unit) * substitute(s2, unit)).terms()),
    }
    return {name: (len(terms), digest(terms)) for name, terms in exact.items()}


def build(inp: dict, expected: dict, ctx) -> Plan:
    a, b, p = inp["A"], inp["B"], inp["P"]
    ss = inp["SS"]
    poly = [("d", inp["poly"])]
    unit = [("a", inp["unit"])]
    f, f_rev, g = inp["F"], inp["F_reversed"], inp["G"]

    def equals(*names):
        return once(lambda out: all(digest(out.terms()) == expected[n][1] for n in names))

    def size(name) -> int:
        return expected[name][0]

    def same_product(out) -> bool:
        left, right = out
        return f == f_rev and left == right

    ops = [
        Op("A*B", "element.mul", lambda: a * b, equals("A*B"), size("A*B"), {"pairs": len(a) * len(b)}),
        Op("B*A", "element.mul", lambda: b * a, equals("B*A"), size("B*A"), {"pairs": len(a) * len(b)}),
        Op(
            "commutator",
            "element.commutator",
            lambda: commutator(a, b),
            equals("commutator", "-[B,A]"),
            size("commutator"),
        ),
        Op("power", "element.pow", lambda: inp["base"] ** POWER, equals("power"), size("power")),
        Op(
            "single_power",
            "element.pow",
            lambda: inp["single"] ** SINGLE_POWER,
            equals("single_power"),
            size("single_power"),
        ),
        Op("derivative", "calculus.derivative", lambda: derivative(p, "a"), equals("derivative"), size("derivative")),
        Op(
            "substitute_poly",
            "calculus.substitute",
            lambda: substitute(ss, poly),
            equals("substitute_poly"),
            size("substitute_poly"),
        ),
        Op(
            "substitute_unit",
            "calculus.substitute",
            lambda: substitute(ss, unit),
            equals("substitute_unit"),
            size("substitute_unit"),
        ),
        Op(
            "equal_inputs_product",
            "element.mul",
            lambda: (f * g, f_rev * g),
            same_product,
            len(f * g) + len(f_rev * g),
            {"pairs": 2 * len(f) * len(g)},
            known_fault=True,
        ),
    ]
    rng = random.Random(f"algebra-session:{inp['seed']}")
    small = (trimmed(a, 30, rng), trimmed(b, 30, rng))
    lines, _ = session_script(trimmed(a, 6, rng), trimmed(b, 6, rng), "a", rng)
    subject = Subject(
        pair=(a, b),
        big=p,
        small=small,
        letter="a",
        seed=inp["seed"],
        specs=inp["specs"],
        session=lines,
    )
    return Plan(ops, subject)
