"""Exact arithmetic: rationals, Gaussian rationals, bivariate polynomials,
rational functions, truncated power series, closed-form expansion and
characteristic polynomials."""

from .charpoly import char_poly, char_poly_squarefree, is_squarefree
from .gaussian import GaussRational, I
from .poly import Poly1, Poly2, poly2_divexact, poly2_from_text, poly2_gcd, poly2_to_text
from .qexpr import expand_q_closed_form
from .ratfunc import RatFunc2, ratfunc_from_text, ratfunc_to_text
from .series import TruncSeries

__all__ = [
    "GaussRational",
    "I",
    "Poly1",
    "Poly2",
    "RatFunc2",
    "TruncSeries",
    "char_poly",
    "char_poly_squarefree",
    "expand_q_closed_form",
    "is_squarefree",
    "poly2_divexact",
    "poly2_from_text",
    "poly2_gcd",
    "poly2_to_text",
    "ratfunc_from_text",
    "ratfunc_to_text",
]
