"""Numerics for Holder-smoothness trace problems on scattered data: moduli of
continuity, jet/field seminorms, McShane and Hermite extension operators,
Jackson-kernel smoothing with finite-rank approximants, predual atomic norms
via LP duality, and weak Markov ratios."""

__version__ = "0.1.0"

from . import cutoff, extension, jackson, markov, modulus, predual, simplex, whitney
from .errors import InputError, NumericalError
from .fields import Jet, NormContext, WhitneyField, jet, multi_indices

__all__ = [
    "InputError",
    "Jet",
    "NormContext",
    "NumericalError",
    "WhitneyField",
    "cutoff",
    "extension",
    "jackson",
    "jet",
    "markov",
    "modulus",
    "multi_indices",
    "predual",
    "simplex",
    "whitney",
]
