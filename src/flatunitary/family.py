"""One-parameter families of plane curves and their basepoints.

A family is a homogeneous degree-d polynomial in Y0, Y1, Y2 whose
coefficients are polynomials in one parameter T over the rationals. The
text grammar is a sum of terms `coef*Y0^a*Y1^b*Y2^c`: each factor is a
rational literal `p/q`, `T` (optionally `T^k`), or a `Y` power; `^1` may be
omitted, whitespace is insignificant, and terms are joined by `+`/`-`.

Specialization (T = t0), the generic fibre over the rational-function
field, jet expansion T = t0 + s truncated at a chosen order, and T-
derivatives all live here. pick_basepoint draws candidate rational t0
values (integers and half-integers of height at most 100) in a seeded
deterministic shuffle and returns the first one whose fibre passes the
exact smoothness certificate, together with the rejection log.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import _univar as up
from .exactcore import RATFUN, RATIONAL, ExactCoreError, Jet, JetDomain, RatFun, _as_fraction
from .jacobian import (
    JacobianFiber,
    SingularFibreError,
    genus_of_degree,
    make_fiber,
)
from .polyring import HomPoly, monomial_sort_key


class FamilyParseError(ExactCoreError, ValueError):
    """Input text is not a valid family; carries the offending position."""

    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


class NoSmoothFibreError(ExactCoreError, ValueError):
    """Every candidate basepoint produced a singular fibre."""

    def __init__(self, rejected):
        self.rejected = tuple(rejected)
        super().__init__(
            f"no smooth fibre found among {len(self.rejected)} candidate basepoints"
        )


class FamilySpec:
    """Homogeneous Y-polynomial with T-polynomial coefficients.

    terms maps exponent triples to dense T-coefficient tuples (ascending
    powers of T, trimmed). The zero family is representable (derivatives of
    T-free families produce it); the parser rejects it.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms):
        if degree < 0:
            raise ValueError("family degree must be >= 0")
        clean = {}
        for e, cs in terms.items():
            e = tuple(e)
            if len(e) != 3 or any(x < 0 for x in e):
                raise ValueError(f"bad exponent triple {e}")
            if sum(e) != degree:
                raise ValueError(f"term {e} is not homogeneous of degree {degree}")
            cs = up.pnorm(cs)
            if cs:
                clean[e] = cs
        self.degree = degree
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def genus(self) -> int:
        return genus_of_degree(self.degree)

    def __eq__(self, other):
        if not isinstance(other, FamilySpec):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"FamilySpec(degree {self.degree}, {print_family(self)!r})"


# ---------------------------------------------------------------------------
# text form

_VAR_INDEX = {"Y0": 0, "Y1": 1, "Y2": 2}


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            tokens.append((ch, None, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            num = int(text[start:i])
            if i < n and text[i] == "/":
                i += 1
                dstart = i
                while i < n and text[i].isdigit():
                    i += 1
                if dstart == i:
                    raise FamilyParseError("expected digits after '/'", dstart)
                den = int(text[dstart:i])
                if den == 0:
                    raise FamilyParseError("zero denominator", dstart)
                tokens.append(("num", Fraction(num, den), start))
            else:
                tokens.append(("num", Fraction(num), start))
            continue
        if ch == "Y":
            if i + 1 < n and text[i + 1] in "012":
                tokens.append(("var", "Y" + text[i + 1], i))
                i += 2
                continue
            raise FamilyParseError("expected Y0, Y1, or Y2", i)
        if ch == "T":
            tokens.append(("var", "T", i))
            i += 1
            continue
        raise FamilyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def parse_family(text: str) -> FamilySpec:
    """Parse the family grammar; errors carry the offending position."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_exponent(default=1) -> int:
        nonlocal pos
        if peek()[0] == "^":
            advance()
            kind, value, p = advance()
            if kind != "num" or value.denominator != 1 or value < 0:
                raise FamilyParseError("exponent must be a nonnegative integer", p)
            return int(value)
        return default

    raw_terms = []
    sign = 1
    kind, _, p = peek()
    if kind in "+-":
        sign = -1 if kind == "-" else 1
        advance()
    while True:
        coef = Fraction(sign)
        tpow = 0
        exps = [0, 0, 0]
        saw_factor = False
        term_pos = peek()[2]
        while True:
            kind, value, p = peek()
            if kind == "num":
                advance()
                coef *= value
                saw_factor = True
            elif kind == "var":
                advance()
                k = parse_exponent()
                if value == "T":
                    tpow += k
                else:
                    exps[_VAR_INDEX[value]] += k
                saw_factor = True
            else:
                break
            if peek()[0] == "*":
                advance()
                if peek()[0] not in ("num", "var"):
                    raise FamilyParseError("expected a factor after '*'", peek()[2])
            else:
                break
        if not saw_factor:
            raise FamilyParseError("expected a term", term_pos)
        raw_terms.append((tuple(exps), tpow, coef))
        kind, _, p = advance()
        if kind == "end":
            break
        if kind == "+":
            sign = 1
        elif kind == "-":
            sign = -1
        else:
            raise FamilyParseError(f"unexpected {kind!r}", p)

    degrees = {sum(e) for e, _, _ in raw_terms}
    if len(degrees) > 1:
        raise FamilyParseError(
            f"non-homogeneous input: term degrees {sorted(degrees)}", 0
        )
    degree = degrees.pop()
    if degree < 3:
        raise FamilyParseError(f"curve degree must be >= 3, got {degree}", 0)
    acc = {}
    for e, tpow, coef in raw_terms:
        bucket = acc.setdefault(e, {})
        bucket[tpow] = bucket.get(tpow, Fraction(0)) + coef
    terms = {}
    for e, bucket in acc.items():
        width = max(bucket) + 1
        cs = [bucket.get(k, Fraction(0)) for k in range(width)]
        cs = up.pnorm(cs)
        if cs:
            terms[e] = cs
    fam = FamilySpec(degree, terms)
    if fam.is_zero:
        raise FamilyParseError("the terms cancel to the zero polynomial", 0)
    return fam


def _format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _format_monomial(e) -> str:
    parts = []
    for name, k in zip(("Y0", "Y1", "Y2"), e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def print_family(fam: FamilySpec) -> str:
    """Canonical text form: monomials in graded order, T-powers ascending.
    parse_family(print_family(f)) == f exactly."""
    if fam.is_zero:
        return "0"
    chunks = []
    for e in sorted(fam.terms, key=monomial_sort_key):
        cs = fam.terms[e]
        for k, c in enumerate(cs):
            if c == 0:
                continue
            factors = []
            if abs(c) != 1:
                factors.append(_format_fraction(abs(c)))
            if k == 1:
                factors.append("T")
            elif k > 1:
                factors.append(f"T^{k}")
            mono = _format_monomial(e)
            if mono:
                factors.append(mono)
            if not factors:
                factors.append(_format_fraction(abs(c)))
            chunks.append((c < 0, "*".join(factors)))
    out = []
    for i, (neg, body) in enumerate(chunks):
        if i == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


# ---------------------------------------------------------------------------
# calculus and evaluation


def t_derivative(fam: FamilySpec, order: int = 1) -> FamilySpec:
    """Derivative with respect to T (order 1 or 2); may be zero."""
    if order not in (1, 2):
        raise ValueError("derivative order must be 1 or 2")
    terms = fam.terms
    for _ in range(order):
        terms = {e: up.pderiv(cs) for e, cs in terms.items()}
    return FamilySpec(fam.degree, terms)


def specialize(fam: FamilySpec, t0) -> HomPoly:
    """The fibre polynomial at T = t0, over the rationals; t0 is a
    Fraction or an int."""
    t0 = _as_fraction(t0)
    return HomPoly(
        fam.degree,
        {e: up.peval(cs, t0) for e, cs in fam.terms.items()},
        domain=RATIONAL,
    )


def generic_fibre(fam: FamilySpec) -> HomPoly:
    """The family as a polynomial over the rational-function field in t."""
    return HomPoly(
        fam.degree,
        {e: RatFun.from_poly(cs) for e, cs in fam.terms.items()},
        domain=RATFUN,
    )


def jet_expand(fam: FamilySpec, t0, order: int) -> HomPoly:
    """Expand T = t0 + s and truncate at jet precision `order`.

    order = 1 is specialization to the fibre at t0, carried as jets."""
    if order < 1:
        raise ValueError("jet order must be >= 1")
    t0 = _as_fraction(t0)
    domain = JetDomain(order)
    return HomPoly(
        fam.degree,
        {e: Jet._of(up.ptaylor(cs, t0, order)) for e, cs in fam.terms.items()},
        domain=domain,
    )


# ---------------------------------------------------------------------------
# basepoints


@dataclass(frozen=True)
class Basepoint:
    """A certified-smooth rational parameter value with its search log."""

    t0: Fraction
    fiber: JacobianFiber
    rejected: tuple


def candidate_basepoints(seed: int):
    """Integers and half-integers of height <= 100 in a seeded shuffle."""
    values = [Fraction(0)]
    for n in range(1, 101):
        values.append(Fraction(n))
        values.append(Fraction(-n))
    for k in range(1, 100, 2):
        values.append(Fraction(k, 2))
        values.append(Fraction(-k, 2))
    random.Random(seed).shuffle(values)
    return values


def iter_basepoints(fam: FamilySpec, seed: int = 0, _rejected=None, _skip=()):
    """Yield certified-smooth basepoints in seeded candidate order.

    Each yielded Basepoint carries the rejections seen so far; pass a list
    as _rejected to also observe them after exhaustion. Candidates in
    _skip are passed over before they are certified. A certificate and
    its failure text depend on the fibre alone, so a fibre already
    rejected in this search (every t0 of a T-free family, -t0 after t0
    of one even in T) is rejected again with the stored reason."""
    rejected = _rejected if _rejected is not None else []
    reasons = {}  # fibre terms -> rejection reason
    for t0 in candidate_basepoints(seed):
        if t0 in _skip:
            continue
        F = specialize(fam, t0)
        key = frozenset(F.terms.items())
        if key not in reasons:
            if F.is_zero:
                reasons[key] = "fibre is the zero polynomial"
            else:
                try:
                    fiber = make_fiber(F)
                except SingularFibreError as exc:
                    reasons[key] = str(exc)
                else:
                    yield Basepoint(t0=t0, fiber=fiber, rejected=tuple(rejected))
                    continue
        rejected.append((t0, reasons[key]))


def pick_basepoint(fam: FamilySpec, seed: int = 0) -> Basepoint:
    """First certified-smooth candidate; raises NoSmoothFibreError after
    exhausting all candidates, each distinct fibre certified once (a
    T-free singular family is refused after one certificate)."""
    rejected = []
    for bp in iter_basepoints(fam, seed, _rejected=rejected):
        return bp
    raise NoSmoothFibreError(rejected)
