"""Student-t distribution via the regularized incomplete beta function.

No statistics dependency: I_x(a, b) is evaluated with the standard
continued-fraction expansion

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * 1/(1 + d1/(1 + d2/(1 + ...)))

    d_{2m+1} = -(a+m)(a+b+m) x / ((a+2m)(a+2m+1))
    d_{2m}   =       m (b-m) x / ((a+2m-1)(a+2m))

computed with the modified Lentz algorithm. The expansion converges
quickly for x < (a+1)/(a+b+2); outside that region the symmetry
I_x(a, b) = 1 - I_{1-x}(b, a) is applied first.

The t distribution with df degrees of freedom then follows from
P(|T| > t) = I_x(df/2, 1/2) with x = df/(df + t^2).
"""

from __future__ import annotations

import math

_MAX_ITERATIONS = 300
_EPS = 1e-15
_TINY = 1e-300


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b)."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for I_x(a, b), evaluated by modified Lentz."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITERATIONS + 1):
        m2 = 2 * m
        # even step with numerator d_{2m}, then odd step with d_{2m+1}
        for numerator in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                          -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + numerator * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + numerator / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and 0 <= x <= 1."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_tailed(t: float, df: float) -> float:
    """P(|T| >= |t|) for a Student-t variable with df degrees of freedom."""
    if df <= 0.0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def student_t_cdf(t: float, df: float) -> float:
    """F(t) for a Student-t variable with df degrees of freedom."""
    tail = 0.5 * student_t_two_tailed(t, df)
    return 1.0 - tail if t >= 0.0 else tail
