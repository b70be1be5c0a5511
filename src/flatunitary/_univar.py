"""Dense univariate polynomial helpers over exact rationals and over Z[t].

A polynomial is a tuple of coefficients, ascending powers, with no
trailing zeros; the zero polynomial is the empty tuple. The p-functions
take Fraction coefficients and back the T-coefficients of family
polynomials.

The Z[t] section at the end holds the same conventions over Python ints.
It backs the rational-function scalar domain (RatFun keeps a coprime
pair of Z[t] polynomials, put in lowest terms by zcancel) and
fraction-free elimination over Q(t). The gcd behind zcancel is a
verified heuristic gcd, with a primitive remainder sequence as the
fallback when it fails.
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


def padd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


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
# Z[t]: the same conventions over Python ints. RatFun and fraction-free
# elimination over Q(t) run on these, so no step needs a rational
# coefficient.

ZONE = (1,)


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


# padd makes no coefficient of its own, so it adds in Z[t] as it is
zadd = padd


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


def zcancel(a, b) -> tuple:
    """a / b in lowest terms: (a / h, b / h) with h the gcd of a and b in
    Z[t], content included, signed so that b / h has a positive leading
    coefficient; b must be nonzero. The zero fraction is (ZERO, ZONE)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) > 1 and len(b) > 1:
        ca, cb = math.gcd(*a), math.gcd(*b)
        _, A, B = _zgcd(_zquo(a, ca), _zquo(b, cb))
        g = math.gcd(ca, cb)
        a, b = zscale(A, ca // g), zscale(B, cb // g)
        return (a, b) if b[-1] > 0 else (tuple(-x for x in a), tuple(-x for x in b))
    return zreduce(a, b)


def zreduce(a, b) -> tuple:
    """a / b with the integer content of the pair divided out, signed so
    that b has a positive leading coefficient; b must be nonzero. These
    are lowest terms whenever a and b have no common factor of positive
    degree: when either is a constant, or when a / b is a fraction in
    lowest terms multiplied by a ratio of integers."""
    if not a:
        return ZERO, ZONE
    g = math.gcd(*a, *b)
    if b[-1] < 0:
        g = -g
    if g == 1:
        return a, b
    return tuple(x // g for x in a), tuple(x // g for x in b)


def _zquo(a, c) -> tuple:
    return a if c == 1 else tuple(x // c for x in a)


def zscale(a, c) -> tuple:
    return a if c == 1 else tuple(x * c for x in a)


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
    G = _euclid_gcd(A, B)
    return G, zdivexact(A, G), zdivexact(B, G)


def _euclid_gcd(A, B) -> tuple:
    """The gcd of primitive A, B in Z[t], primitive with a positive
    leading coefficient, by the primitive remainder sequence: each
    pseudo-remainder is divided by its content to bound coefficient
    growth."""
    if len(A) < len(B):
        A, B = B, A
    while B:
        r = _zprem(A, B)
        A, B = B, _zquo(r, math.gcd(*r)) if r else r
    return A if A[-1] > 0 else tuple(-x for x in A)


def _zprem(a, b) -> tuple:
    """A pseudo-remainder of a by b: a nonzero integer multiple of a,
    minus a Z[t] multiple of b, of degree below b's."""
    rem = list(a)
    lc = b[-1]
    nb = len(b)
    while len(rem) >= nb:
        q = rem.pop()
        if lc != 1:
            rem = [x * lc for x in rem]
        off = len(rem) - nb + 1
        for j in range(nb - 1):
            rem[off + j] -= q * b[j]
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)


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
