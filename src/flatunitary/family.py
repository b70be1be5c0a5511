"""One-parameter families of plane curves and their basepoints.

A family is a homogeneous degree-d polynomial in Y0, Y1, Y2 whose
coefficients are polynomials in one parameter T over the rationals. The
text grammar is a sum of terms `coef*Y0^a*Y1^b*Y2^c`: each factor is a
rational literal `p/q` (ASCII digits, no space around `/`), `T`
(optionally `T^k`), or a `Y` power; `^1` may be omitted, whitespace
elsewhere is insignificant, and terms are joined by `+`/`-`. A term's
T power is at most 1000.

Specialization (T = t0), the generic fibre over the rational-function
field, jet expansion T = t0 + s truncated at a chosen order, and T-
derivatives all live here. pick_basepoint draws candidate rational t0
values (integers and half-integers of height at most 100) in a seeded
deterministic shuffle and returns the first one whose fibre passes the
exact smoothness certificate, together with the rejection log; given a
t0, it certifies that fibre alone.
"""

from __future__ import annotations

import random
import re
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

_MAX_T_POWER = 1000  # T coefficients are stored densely
_TOKEN = re.compile(r"([0-9]+)(/[0-9]*)?|(Y[012]|T)|([-+*^])|(\S)")


def _tokenize(text: str):
    """(kind, value, pos) tokens ending in ("end", None, len(text)); a var
    token's value indexes Y0, Y1, Y2, T in that order."""
    tokens = []
    for m in _TOKEN.finditer(text):
        num, den, var, op, other = m.groups()
        pos = m.start()
        if other is not None:
            if other == "Y":
                raise FamilyParseError("expected Y0, Y1, or Y2", pos)
            raise FamilyParseError(f"unexpected character {other!r}", pos)
        if op is not None:
            tokens.append((op, None, pos))
        elif var is not None:
            tokens.append(("var", 3 if var == "T" else int(var[1]), pos))
        elif den == "/":
            raise FamilyParseError("expected digits after '/'", m.end())
        else:
            try:
                value = Fraction(int(num), int(den[1:]) if den else 1)
            except ValueError:  # past the int string limit
                raise FamilyParseError("number has too many digits", pos) from None
            except ZeroDivisionError:
                raise FamilyParseError("zero denominator", m.start(2) + 1) from None
            tokens.append(("num", value, pos))
    tokens.append(("end", None, len(text)))
    return tokens


def parse_family(text: str) -> FamilySpec:
    """Parse the family grammar; errors carry the offending position."""
    tokens = iter(_tokenize(text))
    kind, value, pos = next(tokens)
    acc = {}  # Y exponents -> {T power: coefficient}
    degrees = set()
    while True:  # at a sign (optional before the first term) or a term
        sign = -1 if kind == "-" else 1
        if kind in ("+", "-"):
            kind, value, pos = next(tokens)
        if kind not in ("num", "var"):
            raise FamilyParseError("expected a term", pos)
        coef, exps, start = Fraction(sign), [0, 0, 0, 0], pos
        while True:
            if kind == "num":
                coef *= value
                kind, value, pos = next(tokens)
            else:
                var, (kind, value, pos) = value, next(tokens)
                k = 1
                if kind == "^":
                    kind, k, pos = next(tokens)
                    if kind != "num" or k.denominator != 1:
                        raise FamilyParseError(
                            "exponent must be a nonnegative integer", pos
                        )
                    kind, value, pos = next(tokens)
                exps[var] += int(k)
            if kind != "*":
                break
            kind, value, pos = next(tokens)
            if kind not in ("num", "var"):
                raise FamilyParseError("expected a factor after '*'", pos)
        e, tpow = tuple(exps[:3]), exps[3]
        if tpow > _MAX_T_POWER:
            raise FamilyParseError(f"T power {tpow} is above {_MAX_T_POWER}", start)
        degrees.add(sum(e))
        bucket = acc.setdefault(e, {})
        bucket[tpow] = bucket.get(tpow, 0) + coef
        if kind == "end":
            break
        if kind not in ("+", "-"):
            raise FamilyParseError(f"unexpected {kind!r}", pos)

    if len(degrees) > 1:
        raise FamilyParseError(
            f"non-homogeneous input: term degrees {sorted(degrees)}", 0
        )
    (degree,) = degrees
    if degree < 3:
        raise FamilyParseError(f"curve degree must be >= 3, got {degree}", 0)
    fam = FamilySpec(
        degree,
        {e: [b.get(k, 0) for k in range(max(b) + 1)] for e, b in acc.items()},
    )
    if fam.is_zero:
        raise FamilyParseError("the terms cancel to the zero polynomial", 0)
    return fam


def print_family(fam: FamilySpec) -> str:
    """Canonical text form: monomials in graded order, T-powers ascending.
    parse_family(print_family(f)) == f exactly."""
    if fam.is_zero:
        return "0"
    out = []
    for e in sorted(fam.terms, key=monomial_sort_key):
        mono = "*".join(
            f"{name}^{k}" if k > 1 else name
            for name, k in zip(("Y0", "Y1", "Y2"), e)
            if k
        )
        for k, c in enumerate(fam.terms[e]):
            if c:
                t = "" if k == 0 else "T" if k == 1 else f"T^{k}"
                factors = (str(abs(c)) if abs(c) != 1 else "", t, mono)
                out.append(" - " if c < 0 else " + ")
                out.append("*".join(f for f in factors if f) or "1")
    text = "".join(out)
    return text[3:] if text[1] == "+" else "-" + text[3:]


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


# 0, 1, -1, .., 100, -100, 1/2, -1/2, .., -99/2: the list a seed's shuffle starts from
_CANDIDATES = (Fraction(0), *(
    Fraction(s * n, q) for q in (1, 2) for n in range(1, 101, q) for s in (1, -1)))


def candidate_basepoints(seed: int):
    """Integers and half-integers of height <= 100 in a seeded shuffle."""
    values = list(_CANDIDATES)
    random.Random(seed).shuffle(values)
    return values


def pick_basepoint(fam: FamilySpec, seed: int = 0, t0=None) -> Basepoint:
    """The certified fibre at t0, rejected = () (SingularFibreError when it
    is singular); when t0 is None, the first certified-smooth candidate in
    seeded order with the rejections before it, or NoSmoothFibreError
    after all candidates. A certificate and its failure text depend on the
    fibre alone, so a fibre already rejected in the search (every t0 of a
    T-free family, -t0 after t0 of one even in T) is rejected again with
    the stored reason: each distinct fibre is certified once."""
    if t0 is not None:
        t0 = _as_fraction(t0)
        return Basepoint(t0, make_fiber(specialize(fam, t0)), ())
    rejected, reasons = [], {}  # fibre terms -> rejection reason
    for t0 in candidate_basepoints(seed):
        F = specialize(fam, t0)
        key = frozenset(F.terms.items())
        if key not in reasons:
            if F.is_zero:
                reasons[key] = "fibre is the zero polynomial"
            else:
                try:
                    return Basepoint(t0, make_fiber(F), tuple(rejected))
                except SingularFibreError as exc:
                    reasons[key] = str(exc)
        rejected.append((t0, reasons[key]))
    raise NoSmoothFibreError(rejected)
