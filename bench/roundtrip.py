"""roundtrip: the text and JSON boundary, no products.

Inputs are written by the benchmark itself from seeded reduced words
with non-dyadic, non-integer coefficients: element text in varied
spacing, with a cancelling pair spliced into some words, and JSON
documents whose words also carry ``(da)`` differential tokens.  One
pass runs, per document, ``parse`` then ``canonical_print`` on the
result, and ``from_json`` then ``to_json`` on the result.
"""

from __future__ import annotations

import json
import random

from ncpoly import Element, RandSpec, canonical_print, from_json, parse, random_element, to_json

import reference as ref
from harness import Op, Plan, digest, once, text_digest
from inputs import flat_text, session_script, trimmed
from sweep import Subject

DOCS = 2  # per format
DOC_TERMS = 12_500
ALPHABET = "abcdefgh"


def coefficient(rng: random.Random) -> float:
    """Signed decimal with three odd, non-dyadic decimals, e.g. ``-37.519``."""
    while True:
        frac = rng.randrange(1, 1000, 2)
        if frac % 125:
            break
    return float(f"{rng.choice('+-')}{rng.randrange(0, 100)}.{frac:03d}")


def spliced(word: tuple, rng: random.Random) -> tuple:
    """The word with a letter/inverse pair inserted; it reduces back."""
    sym = rng.choice((1, 2, 3, 4, 5, 6, 7, 8))
    at = rng.randrange(len(word) + 1)
    return word[:at] + (sym, -sym) + word[at:]


def setup(seed: int) -> dict:
    rng = random.Random(f"roundtrip:{seed}")
    spec = RandSpec(seed=10 * seed + 5, n_terms=34_000, alphabet=ALPHABET, word_len=(3, 8), allow_inverse=True)
    words = rng.sample([w for w, _ in random_element(spec).terms()], DOCS * DOC_TERMS)
    texts, text_terms, documents, json_terms = [], [], [], []
    for i in range(DOCS):
        chunk = words[i * DOC_TERMS : (i + 1) * DOC_TERMS]
        terms = [(spliced(w, rng) if rng.random() < 0.1 else w, coefficient(rng)) for w in chunk]
        texts.append(flat_text(terms, rng))
        text_terms.append(terms)

        entries, terms = [], []
        for word in chunk:
            if rng.random() < 0.3:
                at = rng.randrange(len(word) + 1)
                word = word[:at] + (ref.DIFF_BASE + rng.randint(1, len(ALPHABET)),) + word[at:]
            raw = spliced(word, rng) if rng.random() < 0.1 else word
            c = coefficient(rng)
            symbols = ",".join(json.dumps(ref.json_symbol(s)) for s in raw)
            entries.append(f'{{"word":[{symbols}],"coeff":{c!r}}}')
            terms.append((raw, c))
        documents.append('{"terms":[' + ",".join(entries) + "]}")
        json_terms.append(terms)
    return {
        "texts": texts,
        "text_terms": text_terms,
        "documents": documents,
        "json_terms": json_terms,
        "spec": spec,
        "seed": seed,
    }


def reduced_terms(raw_terms) -> dict:
    """Term dict of what the benchmark wrote, words reduced naively.  The
    words are distinct once reduced, so no coefficients are summed."""
    terms = {ref.naive_reduce(word): coeff for word, coeff in raw_terms}
    if len(terms) != len(raw_terms):
        raise ValueError("input words collide after reduction")
    return terms


def strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def references(inp: dict) -> dict:
    """Digests of the expected terms, printed text and JSON document of
    every input document.  Run in a child process."""
    out = {}
    for i, raw in enumerate(inp["text_terms"]):
        terms = reduced_terms(raw)
        out[f"text{i}"] = (digest(terms), text_digest(ref.canonical_text(terms)))
    for i, raw in enumerate(inp["json_terms"]):
        terms = reduced_terms(raw)
        document = json.dumps(ref.json_document(terms), sort_keys=True)
        out[f"json{i}"] = (digest(terms), text_digest(document))
    return out


def build(inp: dict, expected: dict, ctx) -> Plan:
    ops = []
    state: dict = {}
    for i, text in enumerate(inp["texts"]):
        key = f"text{i}"
        terms, printed = expected[key]
        n = len(inp["text_terms"][i])

        def read(text=text, key=key):
            state[key] = parse(text)
            return state[key]

        def reads_back(out, terms=terms) -> bool:
            return digest(out.terms()) == terms and parse(canonical_print(out)) == out

        ops.append(Op(f"parse{i}", "parsing.parse", read, once(reads_back), n, {"chars": len(text)}))
        ops.append(
            Op(
                f"print{i}",
                "textio.canonical_print",
                lambda key=key: canonical_print(state[key]),
                lambda out, printed=printed: text_digest(out) == printed,
                n,
            )
        )
    for i, document in enumerate(inp["documents"]):
        key = f"json{i}"
        terms, written = expected[key]
        n = len(inp["json_terms"][i])

        def load(document=document, key=key):
            state[key] = from_json(document)
            return state[key]

        def loads_back(out, terms=terms) -> bool:
            return digest(out.terms()) == terms and from_json(to_json(out)) == out

        def dumps_right(out, written=written) -> bool:
            return text_digest(json.dumps(strict_json(out), sort_keys=True)) == written

        ops.append(Op(f"from_json{i}", "textio.from_json", load, once(loads_back), n))
        ops.append(
            Op(
                f"to_json{i}",
                "textio.to_json",
                lambda key=key: to_json(state[key]),
                once(dumps_right),
                n,
            )
        )

    rng = random.Random(f"roundtrip-session:{inp['seed']}")
    text_element = parse(inp["texts"][0])
    json_element = from_json(inp["documents"][0])
    plain = Element((w, c) for w, c in json_element.terms() if all(s < ref.DIFF_BASE for s in w))
    lines, _ = session_script(trimmed(text_element, 6, rng), trimmed(plain, 6, rng), "a", rng)
    subject = Subject(
        pair=(trimmed(text_element, 150, rng), trimmed(json_element, 150, rng)),
        big=json_element,
        small=(trimmed(text_element, 30, rng), trimmed(plain, 30, rng)),
        letter="a",
        seed=inp["seed"],
        specs=[inp["spec"]],
        session=lines,
    )
    return Plan(ops, subject)
