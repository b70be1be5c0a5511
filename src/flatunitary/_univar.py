"""Dense univariate polynomial helpers over exact rationals.

A polynomial is a tuple of Fraction coefficients, ascending powers, with no
trailing zeros; the zero polynomial is the empty tuple. These back both the
rational-function scalar domain and the T-coefficients of family polynomials.

The Z[t] section at the end holds the same conventions over Python ints,
for fraction-free elimination over Q(t), and the gcd: pgcd and pcancel
work on the primitive Z[t] parts of their inputs with a verified
heuristic gcd, and fall back to Euclid over Q only when it fails.
"""

from __future__ import annotations

import math
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
    """Monic gcd; ZERO when both are zero."""
    if not a or not b:
        return pmonic(a or b)
    if len(a) == 1 or len(b) == 1:
        return ONE
    G = _zgcd(_primitive(a)[1], _primitive(b)[1])[0]
    return tuple(Fraction(c, G[-1]) for c in G)


def pcancel(a, b) -> tuple:
    """a / b in lowest terms: (a / h, b / h) with h the gcd of a and b
    scaled so that b / h is monic; b must be nonzero. With a and b both
    monic, h is their monic gcd and the two are its cofactors."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ZERO, ONE
    if len(b) == 1:
        lc = b[0]
        return (a if lc == 1 else tuple(c / lc for c in a)), ONE
    ca, A = _primitive(a)
    cb, B = _primitive(b)
    if len(a) > 1:
        _, A, B = _zgcd(A, B)
    s = ca / (cb * B[-1])
    return tuple(s * c for c in A), tuple(Fraction(c, B[-1]) for c in B)


def _euclid_gcd(a, b) -> tuple:
    # monic gcd; remainders kept monic each step to bound coefficient growth
    a, b = pmonic(a), pmonic(b)
    while b:
        _, r = pdivmod(a, b)
        a, b = b, pmonic(r)
    return a


def pderiv(a) -> tuple:
    return tuple(Fraction(i) * a[i] for i in range(1, len(a)))


def peval(a, x) -> Fraction:
    x = _exact(x)
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ptaylor(a, c, n: int) -> tuple:
    """First n coefficients of a(c + s) as a polynomial in s (not trimmed)."""
    c = _exact(c)
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
# over Q(t) runs on these, so no step needs a rational coefficient, and so
# does the gcd behind pgcd and pcancel.


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


def zeval(a, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _primitive(a):
    """(c, A) with a = c * A, A primitive in Z[t] with a positive leading
    coefficient and c a Fraction; a must be nonzero."""
    q = math.lcm(*(c.denominator for c in a))
    ints = [c.numerator * (q // c.denominator) for c in a]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return Fraction(g, q), tuple(x // g for x in ints)


# Heuristic gcd (Char, Geddes and Gonnet, "GCDHEU", J. Symb. Comp. 1989):
# the gcd of A(xi) and B(xi), read back in balanced xi-adic digits, is
# G(xi) times a spurious integer factor; for xi large against that factor
# the digits are its coefficients times it. A candidate is kept only once
# verified, so xi and the tries bound the cost, not the correctness.
_HEU_TRIES = 6
_GCD_PRIME = (1 << 61) - 1


def _zgcd(A, B):
    """(G, A / G, B / G) for primitive A, B in Z[t] of positive degree,
    G their gcd, primitive with a positive leading coefficient."""
    xi = 2 * min(max(map(abs, A)), max(map(abs, B))) + 2
    for _ in range(_HEU_TRIES):
        h = math.gcd(zeval(A, xi), zeval(B, xi))
        if h:
            hit = _accept_gcd(A, B, _balanced_digits(h, xi))
            if hit is not None:
                return hit
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011  # about 2.73 xi^(5/4)
    g = _euclid_gcd(tuple(map(Fraction, A)), tuple(map(Fraction, B)))
    G = _primitive(g)[1]
    return G, zdivexact(A, G), zdivexact(B, G)


def _balanced_digits(h: int, xi: int) -> tuple:
    """The primitive part of the polynomial whose balanced base-xi digits
    (each in (-xi/2, xi/2]) spell h > 0."""
    digits = []
    half = xi // 2
    while h:
        d = h % xi
        if d > half:
            d -= xi
        digits.append(d)
        h = (h - d) // xi
    g = math.gcd(*digits)
    return tuple(d // g for d in digits)


def _accept_gcd(A, B, G):
    """(G, A / G, B / G) when G is the gcd of A and B, else None.

    G divides both exactly in Z[t], so it divides their gcd. A common
    factor of the cofactors would be a primitive Z[t] polynomial of
    positive degree whose leading coefficient divides theirs; with those
    nonzero modulo the prime it stays of positive degree there, so
    cofactors coprime modulo the prime have no common factor over Q."""
    try:
        a, b = zdivexact(A, G), zdivexact(B, G)
    except ArithmeticError:
        return None
    p = _GCD_PRIME
    if a[-1] % p == 0 or b[-1] % p == 0 or not _coprime_modp(a, b, p):
        return None
    return G, a, b


def _coprime_modp(a, b, p) -> bool:
    """Whether a and b, of full degree modulo p, are coprime there."""
    a = [c % p for c in a]
    b = [c % p for c in b]
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        nb = len(b)
        for k in range(len(a) - nb, -1, -1):
            q = a[k + nb - 1] * inv % p
            if q:
                for j in range(nb):
                    a[k + j] = (a[k + j] - q * b[j]) % p
        del a[nb - 1 :]
        while a and a[-1] == 0:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True
