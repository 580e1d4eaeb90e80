"""The traced run: direct calls into every layer, and the per-layer metrics.

A traced pass runs the workload's operations under spans and then this
sweep, which calls each layer's public functions on inputs taken from
the same workload.  Every layer therefore has spans on every workload;
which workload a layer metric speaks for is set out in the README.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from ncpoly import (
    Element,
    canonical_print,
    derivative,
    evaluate,
    from_json,
    homomorphism_check,
    parse,
    random_assignment,
    random_element,
    reduce_word,
    substitute,
    to_json,
)
from ncpoly.words import word_sort_key

from harness import Tracer, summary


@dataclass
class Subject:
    """What a workload hands to the sweep.

    ``pair``: the factors behind the workload's main product, whose raw
    concatenations feed ``reduce_word`` and ``Element``.  ``big``: the
    workload's main output, for ``terms`` and ``word_sort_key``.
    ``small``: two short elements, free of differential tokens so their
    product prints as parseable text, for the remaining layers.  ``specs``:
    the RandSpecs the workload's inputs were drawn from.  ``matrices``:
    bound matrices to invert besides the sweep's own assignment.
    ``session``: lines for ``cli.run_command``.
    """

    pair: tuple[Element, Element]
    big: Element
    small: tuple[Element, Element]
    letter: str
    seed: int
    specs: list = field(default_factory=list)
    matrices: list = field(default_factory=list)
    session: list[str] = field(default_factory=list)


def make_sweep(subject: Subject):
    from ncpoly.cli import run_command

    # untimed inputs of the sweep, built once per run
    x, y = subject.pair
    raw = [(w1 + w2, c1 * c2) for w1, c1 in x.terms() for w2, c2 in y.terms()]
    words = subject.big.support()
    small_x, small_y = subject.small
    letters = sorted(small_x.letters() | small_y.letters())
    small_flops = flops(small_x, 3)
    single = Element([((2, -3), 2.0)])  # 2bC, invertible

    def reduce_all():
        for word, _ in raw:
            reduce_word(word)

    def sort_keys():
        for word in words:
            word_sort_key(word)

    def sweep(tr: Tracer) -> None:
        for spec in subject.specs:
            tr.call("randomgen.random_element", random_element, spec)
        assignment = tr.call(
            "matrixeval.random_assignment",
            random_assignment,
            letters,
            3,
            subject.seed,
            letters,
        )
        for matrix in [*assignment.bindings.values(), *subject.matrices]:
            tr.call("matrixeval.Matrix.inverse", matrix.inverse)
        tr.call("matrixeval.evaluate", evaluate, small_x, assignment, flops=small_flops)
        tr.call("matrixeval.homomorphism_check", homomorphism_check, small_x, small_y, assignment)
        tr.call("words.reduce_word", reduce_all, calls=len(raw))
        tr.call("element.Element", Element, raw, calls=len(raw))
        product = tr.call(
            "element.mul", operator.mul, small_x, small_y, pairs=len(small_x) * len(small_y)
        )
        tr.call("element.add", operator.add, small_x, small_y)
        tr.call("element.pow", operator.pow, small_x, 2)
        tr.call("element.terms", subject.big.terms)
        tr.call("words.word_sort_key", sort_keys, calls=len(words))
        text = tr.call("textio.canonical_print", canonical_print, product)
        tr.call("parsing.parse", parse, text, chars=len(text))
        document = tr.call("textio.to_json", to_json, product)
        tr.call("textio.from_json", from_json, document)
        tr.call("calculus.derivative", derivative, product, subject.letter)
        tr.call("calculus.substitute", substitute, small_x, [(subject.letter, single)])
        session: dict = {}
        for line in subject.session:
            tr.call("cli.run_command", run_command, line, session)

    return sweep


def flops(element: Element, dim: int) -> int:
    """Schoolbook ``2*dim**3`` flops per symbol matrix in every word."""
    return 2 * dim**3 * sum(len(word) for word in element.support())


# per-layer metric -> span name whose time per traced pass it reports
LAYER_SPANS = {
    "words.reduce_s": "words.reduce_word",
    "words.sort_key_s": "words.word_sort_key",
    "element.construct_s": "element.Element",
    "element.mul_s": "element.mul",
    "element.pow_s": "element.pow",
    "element.add_s": "element.add",
    "element.terms_s": "element.terms",
    "parsing.parse_s": "parsing.parse",
    "textio.print_s": "textio.canonical_print",
    "textio.to_json_s": "textio.to_json",
    "textio.from_json_s": "textio.from_json",
    "calculus.derivative_s": "calculus.derivative",
    "calculus.substitute_s": "calculus.substitute",
    "randomgen.random_element_s": "randomgen.random_element",
    "randomgen.random_assignment_s": "matrixeval.random_assignment",
    "matrixeval.evaluate_s": "matrixeval.evaluate",
    "matrixeval.homcheck_s": "matrixeval.homomorphism_check",
    "matrixeval.inverse_s": "matrixeval.Matrix.inverse",
}

# rate metric -> (count field on the spans, span name, scale)
LAYER_RATES = {
    "element.pairs_per_s": ("pairs", "element.mul", 1.0),
    "parsing.chars_per_s": ("chars", "parsing.parse", 1.0),
    "matrixeval.gflops_computed": ("flops", "matrixeval.evaluate", 1e-9),
}


def layer_metrics(spans: list[dict], probe: dict) -> dict:
    """Per-layer samples: each time metric is the span time per traced
    pass, each rate a count over that time; cli metrics come from the
    import probe and the per-line session spans."""
    per_pass: dict = {}
    for span in spans:
        slot = per_pass.setdefault(span["pass"], {})
        name = span["name"]
        slot[name] = slot.get(name, 0.0) + span["end"] - span["start"]
        for count in ("pairs", "chars", "flops"):
            if count in span:
                key = (name, count)
                slot[key] = slot.get(key, 0) + span[count]
    passes = list(per_pass.values())
    samples = {}
    for metric, name in LAYER_SPANS.items():
        samples[metric] = [p.get(name, 0.0) for p in passes]
    for metric, (count, name, scale) in LAYER_RATES.items():
        samples[metric] = [
            scale * p[(name, count)] / p[name] for p in passes if p.get(name)
        ]
    lines = [s["end"] - s["start"] for s in spans if s["name"] == "cli.run_command"]
    samples["cli.import_ms"] = probe["import_ms"]
    samples["cli.modules_loaded"] = probe["modules_loaded"]
    samples["cli.repl_line_ms"] = [1000 * t for t in lines]
    return {metric: summary(values) for metric, values in samples.items()}
