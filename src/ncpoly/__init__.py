"""Noncommutative polynomials over words of invertible generators.

Elements are finite real combinations of reduced words.  Lowercase
letters are generators, uppercase letters their group inverses, and
``(da)``-style tokens mark differentials.  The package provides the
ring arithmetic, a text parser and canonical printer, JSON interchange,
substitution and differentiation, seeded random elements, and numerical
evaluation on square-matrix assignments.
"""

__version__ = "0.1.0"

from .calculus import NonInvertibleReplacement, derivative, substitute
from .element import Element, NonFiniteCoefficient, commutator
from .matrixeval import (
    HomomorphismReport,
    Matrix,
    MatrixAssignment,
    SingularMatrix,
    UnboundLetter,
    evaluate,
    homomorphism_check,
    random_assignment,
    standard_normal_matrix,
)
from .parsing import ParseError, parse
from .randomgen import DegenerateSpec, RandSpec, SplitMix64, random_element
from .textio import canonical_print, from_json, to_json
from .words import (
    differential,
    inverse,
    invert_word,
    letter,
    reduce_word,
    word_from_text,
)

__all__ = [
    "DegenerateSpec",
    "Element",
    "HomomorphismReport",
    "Matrix",
    "MatrixAssignment",
    "NonFiniteCoefficient",
    "NonInvertibleReplacement",
    "ParseError",
    "RandSpec",
    "SingularMatrix",
    "SplitMix64",
    "UnboundLetter",
    "canonical_print",
    "commutator",
    "derivative",
    "differential",
    "evaluate",
    "from_json",
    "homomorphism_check",
    "inverse",
    "invert_word",
    "letter",
    "parse",
    "random_assignment",
    "random_element",
    "reduce_word",
    "standard_normal_matrix",
    "substitute",
    "to_json",
    "word_from_text",
]
