"""Exact characteristic polynomials and squarefreeness certificates."""

from __future__ import annotations

from ..errors import RealnessViolationError
from .gaussian import GaussRational
from .poly import Poly1


def char_poly(matrix) -> Poly1:
    """Characteristic polynomial det(xI - M) of a square matrix of rationals or
    Gaussian rationals, by Faddeev-LeVerrier over Q(i) on the lifted entries.

    A nonreal coefficient raises RealnessViolationError.
    """
    n = len(matrix)
    matrix = [[GaussRational.lift(x) for x in row] for row in matrix]
    if any(len(row) != n for row in matrix):
        raise ValueError("characteristic polynomial needs a square matrix")
    zero, one = GaussRational(0), GaussRational(1)
    aux = [[one if i == j else zero for j in range(n)] for i in range(n)]
    coeffs = [zero] * (n + 1)
    coeffs[n] = one  # coefficient of x^n
    for k in range(1, n + 1):
        prod = [
            [
                sum((matrix[i][m] * aux[m][j] for m in range(n)), zero)
                for j in range(n)
            ]
            for i in range(n)
        ]
        trace = sum((prod[i][i] for i in range(n)), zero)
        ck = -trace / k
        coeffs[n - k] = ck
        aux = [
            [prod[i][j] + (ck if i == j else zero) for j in range(n)]
            for i in range(n)
        ]
    if not all(c.is_real() for c in coeffs):
        raise RealnessViolationError("characteristic polynomial has a nonreal coefficient")
    return Poly1([c.re for c in coeffs])


def is_squarefree(p: Poly1) -> bool:
    if p.is_zero():
        return False
    return p.gcd(p.derivative()).degree() == 0


def char_poly_squarefree(matrix) -> tuple[Poly1, bool]:
    """Exact characteristic polynomial and whether gcd(p, p') is constant."""
    p = char_poly(matrix)
    return p, is_squarefree(p)
