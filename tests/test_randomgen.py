import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ncpoly import DegenerateSpec, RandSpec, SplitMix64, commutator, random_element
from ncpoly.element import POWER_LIMIT

from oracles import assert_normalized

FIXTURES = Path(__file__).parent / "fixtures"


def test_splitmix64_reference_streams():
    payload = json.loads((FIXTURES / "prng.json").read_text())
    assert payload["algorithm"] == "splitmix64"
    for stream in payload["streams"]:
        rng = SplitMix64(stream["seed"])
        expected = [int(v) for v in stream["first_outputs"]]
        assert [rng.next_uint64() for _ in expected] == expected


def test_below_bounds_and_errors():
    rng = SplitMix64(5)
    assert all(rng.below(1) == 0 for _ in range(5))
    assert all(0 <= rng.below(7) < 7 for _ in range(200))
    with pytest.raises(ValueError):
        rng.below(0)
    assert 0 <= rng.below(2**64) < 2**64


def test_below_rejects_bounds_past_64_bits():
    # the rejection cutoff is 0 there, so without the check below() never returns
    code = (
        "from ncpoly import SplitMix64\n"
        "try:\n"
        "    SplitMix64(1).below(2**64 + 1)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.stdout == "bound must be at most 2**64\n", result.stderr


def test_uniform_range():
    rng = SplitMix64(5)
    values = [rng.uniform() for _ in range(200)]
    assert all(0.0 <= v < 1.0 for v in values)


def test_normal_is_deterministic():
    a = SplitMix64(17)
    b = SplitMix64(17)
    assert [a.normal() for _ in range(8)] == [b.normal() for _ in range(8)]

    class FirstUniformZero(SplitMix64):
        calls = 0

        def uniform(self):
            self.calls += 1
            return 0.0 if self.calls == 1 else super().uniform()

    # log(0.0) has no value, so a zero first uniform is drawn again from the stream
    assert FirstUniformZero(17).normal() == SplitMix64(17).normal()


def test_random_element_determinism():
    spec = RandSpec(seed=7)
    assert random_element(spec) == random_element(spec)
    # alphabet is a set; listing it in another order does not change the draw
    assert random_element(RandSpec(seed=7, alphabet="cab")) == random_element(
        RandSpec(seed=7, alphabet="abc")
    )
    # pinned stream output; a change here means the documented draws moved
    assert str(random_element(spec)) == "+ 5*a + 4*aaab + 3*abc + 2*acc + 3*b"
    # with inverses: a letter, then its flip, per symbol; the constant is a word that cancelled
    assert str(random_element(spec._replace(allow_inverse=True))) == "+ 2 + 3*Cb + 6*aa + 8*bbAC + 1*c"


def test_default_spec_bounds_over_many_seeds():
    for seed in range(1000):
        element = random_element(RandSpec(seed=seed))
        assert element
        assert_normalized(element)
        for word, coeff in element.terms():
            assert 1 <= len(word) <= 4
            assert set(word) <= {1, 2, 3}
            assert coeff == int(coeff)
            assert coeff >= 1


def test_allow_inverse_draws_signed_symbols():
    seen_negative = False
    for seed in range(100):
        element = random_element(RandSpec(seed=seed, allow_inverse=True))
        assert_normalized(element)
        for word, _ in element.terms():
            assert {abs(s) for s in word} <= {1, 2, 3}
            seen_negative = seen_negative or any(s < 0 for s in word)
    assert seen_negative


def test_spec_validation():
    with pytest.raises(ValueError):
        RandSpec(seed=1, alphabet=())
    with pytest.raises(ValueError):
        RandSpec(seed=1, n_terms=0)
    with pytest.raises(ValueError):
        RandSpec(seed=1, word_len=(3, 2))
    with pytest.raises(ValueError):
        RandSpec(seed=1, word_len=(-1, 2))
    with pytest.raises(ValueError):
        RandSpec(seed=1, coeff_range=(5, 4))
    with pytest.raises(ValueError):
        RandSpec(seed=1, alphabet="a1")
    # wrong types fail here, not inside random_element, and a range end is never truncated
    for fields in (
        {"seed": "x"},
        {"seed": True},
        {"n_terms": 2.5},
        {"n_terms": True},
        {"allow_inverse": "no"},
        {"allow_inverse": 1},
        {"word_len": (1, "4")},
        {"coeff_range": (None, 9)},
        {"coeff_range": (1, True)},
    ):
        with pytest.raises(TypeError):
            RandSpec(**{"seed": 1, **fields})
    for fields in ({"word_len": (1.9, 4)}, {"coeff_range": (1, float("inf"))}, {"coeff_range": (float("nan"), 9)}):
        with pytest.raises(ValueError, match="whole numbers"):
            RandSpec(**{"seed": 1, **fields})
    # below() draws at most 2**64 values
    with pytest.raises(ValueError, match="coeff_range spans more than"):
        RandSpec(seed=1, coeff_range=(0, 2**64))
    with pytest.raises(ValueError, match="word_len spans more than"):
        RandSpec(seed=1, word_len=(0, 2**64))
    assert RandSpec(seed=1, coeff_range=(1, 2**64)).coeff_range == (1, 2**64)
    # every term and symbol costs a draw, so their counts are capped
    for n_terms, word_len in ((POWER_LIMIT + 1, (0, 0)), (1, (0, POWER_LIMIT + 1)), (1000, (1, 1001))):
        with pytest.raises(ValueError, match=str(POWER_LIMIT)):
            RandSpec(seed=1, n_terms=n_terms, word_len=word_len)
    assert RandSpec(seed=1, n_terms=POWER_LIMIT, word_len=(0, 1)).n_terms == POWER_LIMIT


def test_spec_is_a_validated_named_tuple():
    spec = RandSpec(seed=1, alphabet="ba", word_len=[2, 3.0])
    assert repr(spec) == (
        "RandSpec(seed=1, n_terms=5, alphabet=(1, 2), word_len=(2, 3), coeff_range=(1, 9), allow_inverse=False)"
    )
    assert spec == (1, 5, (1, 2), (2, 3), (1, 9), False)
    assert pickle.loads(pickle.dumps(spec)) == spec == copy.deepcopy(spec)
    assert spec._replace(alphabet="xy").alphabet == (24, 25)
    with pytest.raises(ValueError, match="n_terms must be at least 1"):
        spec._replace(n_terms=0)


def test_degenerate_spec_raises():
    # coefficient range {0} can only ever produce the zero element
    with pytest.raises(DegenerateSpec):
        random_element(RandSpec(seed=3, coeff_range=(0, 0)))


def test_jacobi_identity_on_random_triples():
    for seed in range(50):
        x = random_element(RandSpec(seed=10_000 + 3 * seed))
        y = random_element(RandSpec(seed=10_001 + 3 * seed))
        z = random_element(RandSpec(seed=10_002 + 3 * seed))
        total = (
            commutator(x, commutator(y, z))
            + commutator(y, commutator(z, x))
            + commutator(z, commutator(x, y))
        )
        assert not total
