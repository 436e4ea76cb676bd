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
P(|T| > t) = I_x(df/2, 1/2) with x = df/(df + t^2). There 1 - x is formed as
t^2/(df + t^2), not by subtraction, since x rounds towards 1 for small t and
1 - x would lose most of its digits.
"""

from __future__ import annotations

import math

_MAX_ITERATIONS = 300
_EPS = 1e-15
_TINY = 1e-300


def _stirling_tail(x: float) -> float:
    """c(x) = ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi) / 2, to within 1/(1188 x^9)."""
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / x


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b).

    lgamma's absolute error grows with its result, about eps * lgamma(a + b), so once the larger
    argument a passes 20 the difference ln Gamma(a) - ln Gamma(a + b) is taken from Stirling's
    series instead, where the large terms cancel before anything is rounded:
    -(a - 1/2) log1p(b / a) - b ln(a + b) + b + c(a) - c(a + b).
    """
    if a < b:
        a, b = b, a
    if a < 20.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (math.lgamma(b) - (a - 0.5) * math.log1p(b / a) - b * math.log(a + b) + b
            + _stirling_tail(a) - _stirling_tail(a + b))


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
    return _incomplete_beta(a, b, x, 1.0 - x)


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) given y = 1 - x, each to full precision: the logarithms and the symmetric
    branch read the smaller of the two, so neither is taken from the other's rounding."""
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    if x < 0.5:
        log_x, log_y = math.log(x), math.log1p(-x)
    else:
        log_x, log_y = math.log1p(-y), math.log(y)
    front = math.exp(a * log_x + b * log_y - log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, y) / b


def student_t_two_tailed(t: float, df: float) -> float:
    """P(|T| >= |t|) for a Student-t variable with df degrees of freedom."""
    if df <= 0.0:
        raise ValueError("degrees of freedom must be positive")
    if math.isnan(t):
        raise ValueError("t must be a number, got nan")
    t2 = t * t
    s = df + t2
    return _incomplete_beta(df / 2.0, 0.5, df / s, t2 / s)


def student_t_cdf(t: float, df: float) -> float:
    """F(t) for a Student-t variable with df degrees of freedom."""
    tail = 0.5 * student_t_two_tailed(t, df)
    return 1.0 - tail if t >= 0.0 else tail
