"""Noncommutative polynomials over words of invertible generators.

Elements are finite real combinations of reduced words.  Lowercase
letters are generators, uppercase letters their group inverses, and
``(da)``-style tokens mark differentials.  The package provides the
ring arithmetic, a text parser and canonical printer, JSON interchange,
substitution and differentiation, seeded random elements, and numerical
evaluation on square-matrix assignments.

``import ncpoly`` loads no submodule: each exported name, and each
submodule, is imported on first access.
"""

import importlib

__version__ = "0.1.0"

# every submodule, with the names the package exports from it
_EXPORTS = {
    "calculus": ("NonInvertibleReplacement", "derivative", "substitute"),
    "cli": (),
    "element": ("Element", "NonFiniteCoefficient", "commutator"),
    "matrixeval": (
        "HomomorphismReport", "Matrix", "MatrixAssignment", "SingularMatrix", "UnboundLetter",
        "evaluate", "homomorphism_check", "random_assignment", "standard_normal_matrix",
    ),
    "parsing": ("ParseError", "parse"),
    "randomgen": ("DegenerateSpec", "RandSpec", "SplitMix64", "random_element"),
    "textio": ("canonical_print", "from_json", "to_json"),
    "words": ("differential", "inverse", "invert_word", "letter", "reduce_word", "word_from_text"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
