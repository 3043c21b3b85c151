"""Real roots of low-degree polynomials: all on an interval, or the nearest.

:func:`real_roots` isolates every root. Roots of the derivative (found
recursively) split [lo, hi] into monotone pieces; each piece with a sign
change is refined by bisection with safeguarded Newton steps. Critical points
where the polynomial itself (nearly) vanishes are kept as even-multiplicity
touch roots. Degrees here are tiny (<= 7), so no eigenvalue machinery is
used.

A caller that knows a point x0 close to the root it wants
(``real_roots(..., near=x0)``) is first offered :func:`nearest_root`:
Newton's method from x0, then a certificate that p' has no zero on the
interval [x0 - h, x0 + h] that reaches past the Newton root r. There p is
strictly monotone, so r is its only root and every other root, and every
critical point that the isolation could report as a touch root, lies farther
from x0 than r. When Newton stalls or the certificate fails, every root is
isolated as without ``near``.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

from .model import Polynomial

_MAX_ITER = 120
_NEWTON_ITER = 8
_EPS = 2.0 ** -52
# relative root tolerance: bracket width, Newton step and duplicate spacing
_TOL = 1e-12


def _magnitude(poly: Polynomial, x: float) -> float:
    """Sum |c_i| |x|^i, a conservative evaluation scale at x."""
    ax = abs(x)
    total = 0.0
    p = 1.0
    for c in poly.coeffs:
        total += abs(c) * p
        p *= ax
    return max(total, 1e-300)


def _refine(poly: Polynomial, deriv: Polynomial, a: float, b: float,
            fa: float, fb: float) -> float:
    """Root in [a, b] with sign(fa) != sign(fb): Newton inside a shrinking
    bisection bracket."""
    x = 0.5 * (a + b)
    for _ in range(_MAX_ITER):
        fx = poly(x)
        if fx == 0.0 or (b - a) <= _TOL * max(1.0, abs(x)):
            return x
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        d = deriv(x)
        if d != 0.0:
            xn = x - fx / d
            if a < xn < b:
                x = xn
                continue
        x = 0.5 * (a + b)
    return x


def real_roots(poly: Polynomial, lo: float, hi: float, *,
               near: float | None = None) -> list[float]:
    """Sorted real roots of ``poly`` in [lo, hi]; even-multiplicity roots
    appear once. The zero polynomial returns no roots.

    With ``near``, a polynomial of degree >= 2 whose root nearest ``near``
    is certified by :func:`nearest_root` and lies in [lo, hi] returns that
    root alone: the list then holds the nearest root, not every root.
    """
    if hi < lo:
        return []
    if poly.degree <= 0:
        return []
    if near is not None and poly.degree >= 2:
        r = nearest_root(poly.coeffs, near)
        if r is not None and lo <= r <= hi:
            return [r]
    if poly.degree == 1:
        c0, c1 = poly.coeffs
        x = -c0 / c1
        return [x] if lo <= x <= hi else []

    deriv = poly.derivative()
    cuts = [lo] + [c for c in real_roots(deriv, lo, hi) if lo < c < hi] + [hi]
    fvals = [poly(c) for c in cuts]
    touch_tol = 1e-10

    cands: list[float] = []
    for i, (c, fc) in enumerate(zip(cuts, fvals)):
        interior = 0 < i < len(cuts) - 1
        if fc == 0.0 or (interior and abs(fc) <= touch_tol * _magnitude(poly, c)):
            cands.append(c)
    for (a, b), (fa, fb) in zip(zip(cuts[:-1], cuts[1:]), zip(fvals[:-1], fvals[1:])):
        if fa == 0.0 or fb == 0.0:
            continue  # monotone piece anchored at an exact root: no interior root
        if (fa < 0.0) != (fb < 0.0):
            cands.append(_refine(poly, deriv, a, b, fa, fb))

    cands.sort()
    roots: list[float] = []
    for x in cands:
        if not roots or abs(x - roots[-1]) > _TOL * max(1.0, abs(x)):
            roots.append(x)
    return roots


def nearest_root(coeffs: Sequence[float], x0: float) -> float | None:
    """The root of ``sum(coeffs[k] x**k)`` nearest x0, certified, or None.

    ``coeffs`` are those of a polynomial of degree >= 2, lowest power
    first, so the last one is nonzero.

    Newton's method from x0 (p and p' from one Horner loop) stops once
    |step| <= tol max(1, |x|), with tol = ``_TOL``, and returns
    r = x - step. The certificate Taylor-expands p' at x0 by repeated
    synthetic division, p'(x0 + t) = sum_k q_k t^k, and requires

        |q_0| - sum_{k>=1} |q_k| h^k > rounding allowance,

    with h = |r - x0| + |step| + tol max(1, |r|). Then p' keeps its sign on
    [x0 - h, x0 + h], so r is the only root there and no other root lies
    within |r - x0| of x0. The allowance bounds the rounding of the q_k by
    a multiple of eps times sum_k |c_k'| (|x0| + h)^k over the coefficients
    c_k' of p', an upper bound of sum_k |q_k| h^k computed without
    cancellation.

    Returns None, never a guess, when Newton does not converge within a few
    steps, p' is 0 or a value is not finite on the way, or the certificate
    fails.
    """
    deg = len(coeffs) - 1
    lead = coeffs[-1]
    low = coeffs[-2::-1]
    x = x0
    for _ in range(_NEWTON_ITER):
        p, dp = lead, 0.0
        for c in low:
            dp = dp * x + p
            p = p * x + c
        if dp == 0.0 or not (math.isfinite(p) and math.isfinite(dp)):
            return None
        step = p / dp
        x -= step
        if not math.isfinite(x):
            return None
        if abs(step) <= _TOL * max(1.0, abs(x)):
            break
    else:
        return None
    h = abs(x - x0) + abs(step) + _TOL * max(1.0, abs(x))
    # Taylor coefficients of p' at x0: q[k] = p'^(k)(x0) / k!
    q = [k * c for k, c in enumerate(coeffs) if k]
    m = len(q) - 1
    for j in range(m):
        for k in range(m - 1, j - 1, -1):
            q[k] += x0 * q[k + 1]
    tail = 0.0
    for c in q[:0:-1]:
        tail = (tail + abs(c)) * h
    scale = 0.0
    y = abs(x0) + h
    for k in range(deg, 0, -1):
        scale = scale * y + k * abs(coeffs[k])
    if not abs(q[0]) - tail > 4.0 * (deg + 2) * _EPS * scale:
        return None
    return x
