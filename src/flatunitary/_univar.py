"""Dense univariate polynomial helpers over exact rationals.

A polynomial is a tuple of Fraction coefficients, ascending powers, with no
trailing zeros; the zero polynomial is the empty tuple. These back both the
rational-function scalar domain and the T-coefficients of family polynomials.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = ()
ONE = (Fraction(1),)


def _exact(c) -> Fraction:
    # exactcore.DomainMismatchError is a TypeError; this module sits below it
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"{c!r} is not an exact rational coefficient")


def pnorm(coeffs) -> tuple:
    """Trim trailing zeros; entries must be Fractions or ints (converted)."""
    cs = [_exact(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pconst(c) -> tuple:
    c = _exact(c)
    return (c,) if c != 0 else ZERO


def pdeg(a) -> int:
    # degree of the zero polynomial reported as -1
    return len(a) - 1


def plc(a) -> Fraction:
    if not a:
        raise ValueError("zero polynomial has no leading coefficient")
    return a[-1]


def padd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pneg(a) -> tuple:
    return tuple(-c for c in a)


def psub(a, b) -> tuple:
    return padd(a, pneg(b))


def pmul(a, b) -> tuple:
    if not a or not b:
        return ZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pdivmod(a, b) -> tuple:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    if len(a) < len(b):
        return ZERO, tuple(rem)
    quo = [Fraction(0)] * (len(a) - len(b) + 1)
    inv_lc = 1 / b[-1]
    for k in range(len(quo) - 1, -1, -1):
        coef = rem[k + len(b) - 1] * inv_lc
        if coef != 0:
            quo[k] = coef
            for j, cb in enumerate(b):
                rem[k + j] -= coef * cb
    while rem and rem[-1] == 0:
        rem.pop()
    while quo and quo[-1] == 0:
        quo.pop()
    return tuple(quo), tuple(rem)


def pdivexact(a, b) -> tuple:
    q, r = pdivmod(a, b)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def pmonic(a) -> tuple:
    if not a:
        return ZERO
    lc = a[-1]
    if lc == 1:
        return a
    return tuple(c / lc for c in a)


def pgcd(a, b) -> tuple:
    # monic gcd; remainders kept monic each step to bound coefficient growth
    a, b = pmonic(a), pmonic(b)
    while b:
        _, r = pdivmod(a, b)
        a, b = b, pmonic(r)
    return a


def pderiv(a) -> tuple:
    return tuple(Fraction(i) * a[i] for i in range(1, len(a)))


def peval(a, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ptaylor(a, c, n: int) -> tuple:
    """First n coefficients of a(c + s) as a polynomial in s (not trimmed)."""
    c = Fraction(c)
    out = [Fraction(0)] * n
    # Horner in (c + s), truncating at order n
    for coef in reversed(a):
        prev = out
        out = [Fraction(0)] * n
        for i in range(n - 1):
            out[i + 1] += prev[i]
        for i in range(n):
            out[i] += prev[i] * c
        out[0] += coef
    return tuple(out)


# ---------------------------------------------------------------------------
# Z[t]: the same conventions over Python ints. Fraction-free elimination
# over Q(t) runs on these, so no step needs a rational coefficient.


def zmul(a, b) -> tuple:
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def zsub(a, b) -> tuple:
    if len(a) >= len(b):
        out = list(a)
        for i, c in enumerate(b):
            out[i] -= c
    else:
        out = [-c for c in b]
        for i, c in enumerate(a):
            out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def zdivexact(a, b) -> tuple:
    """a / b in Z[t]; ArithmeticError unless b divides a there."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ZERO
    nb = len(b)
    lc = b[-1]
    rem = list(a)
    quo = [0] * (len(a) - nb + 1)
    for k in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[k + nb - 1], lc)
        if r:
            raise ArithmeticError("inexact polynomial division in Z[t]")
        if q:
            quo[k] = q
            for j, cb in enumerate(b):
                rem[k + j] -= q * cb
    if any(rem[: nb - 1]):  # also catches a divisor of higher degree than a
        raise ArithmeticError("inexact polynomial division in Z[t]")
    return tuple(quo)
