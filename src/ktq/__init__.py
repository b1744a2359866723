"""Exact arithmetic in generalized power series fields k((t^Q)).

Series carry finitely many known terms plus a certification cap: every
coefficient at an exponent strictly below the cap is exactly known.  All
arithmetic is exact over Q or over finite fields F_q.
"""

from .errors import (ExpHomError, FieldError, KtqError, NoSolutionError,
                     OrbitError, ParseError, PrecisionError, SeriesError)
from .fields import (EXHAUSTIVE_BOUND, MAX_EXTENSION_DEGREE, AdditivePoly,
                     FFElement, FieldCtx, FiniteField, HypothesisAVerdict,
                     RationalField, hypothesis_a_check, make_field)
from .morphisms import (ExpHom, Invert, OrbitClass, Rescale, ScaleExp,
                        SubstDiagnostics, Substitute, SubstResult, Transform,
                        Translate, classify_orbit, orbit_transform, rescale,
                        scale_exponents, standard_endomorphism, substitute)
from .parsing import (EvalEnv, eval_expression, format_expr,
                      parse_additive_poly, parse_coefficient, parse_expression,
                      parse_modulus)
from .powers import frobenius_map, nth_root, pow_rat, rat_binomial
from .series import (INF, Series, UnknownAtLeast, cap_add, cap_mul,
                     format_series, series_from_json)
from .solvers import (NEGATIVE, POSITIVE, ImageEntry, ImageReport,
                      apply_additive, artin_schreier, check_additive_images,
                      norm_leading, solve_additive, trace,
                      valuation_sign_via_trace)

__version__ = "0.1.0"

__all__ = [
    "AdditivePoly", "EXHAUSTIVE_BOUND", "EvalEnv", "ExpHom", "ExpHomError",
    "FFElement", "FieldCtx", "FieldError", "FiniteField", "HypothesisAVerdict",
    "INF", "ImageEntry", "ImageReport", "Invert", "KtqError",
    "MAX_EXTENSION_DEGREE", "NEGATIVE", "NoSolutionError", "OrbitClass",
    "OrbitError", "POSITIVE", "ParseError", "PrecisionError", "RationalField",
    "Rescale", "ScaleExp", "Series", "SeriesError", "SubstDiagnostics",
    "SubstResult", "Substitute", "Transform", "Translate", "UnknownAtLeast",
    "apply_additive", "artin_schreier", "cap_add", "cap_mul",
    "check_additive_images", "classify_orbit", "eval_expression",
    "format_expr", "format_series", "frobenius_map", "hypothesis_a_check",
    "make_field", "norm_leading", "nth_root", "orbit_transform",
    "parse_additive_poly", "parse_coefficient", "parse_expression",
    "parse_modulus", "pow_rat", "rat_binomial", "rescale", "scale_exponents",
    "series_from_json", "solve_additive", "standard_endomorphism",
    "substitute", "trace", "valuation_sign_via_trace",
]
