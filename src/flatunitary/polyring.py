"""Homogeneous polynomials in Y0, Y1, Y2 over a pluggable scalar domain.

The monomial order is graded lexicographic with Y0 > Y1 > Y2: inside one
degree, exponent triples sort lexicographically descending. graded_basis(k)
lists the C(k+2, 2) degree-k monomials in exactly that order, and every
dense coefficient vector in the package is indexed against it.

A polynomial is a degree tag plus a term map; the zero polynomial keeps its
degree tag explicitly. Coefficients of value zero are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactcore import (
    RATIONAL,
    DomainMismatchError,
    _infer_domain,
    _is_zero,
    domain_of,
)


@lru_cache(maxsize=None)
def graded_basis(k: int):
    """Degree-k exponent triples in graded-lex order (Y0 > Y1 > Y2)."""
    if k < 0:
        return ()
    return tuple(
        (a, b, k - a - b) for a in range(k, -1, -1) for b in range(k - a, -1, -1)
    )


def monomial_index(e) -> int:
    """Position of the exponent triple e in graded_basis(sum(e)): the
    triples before it have a larger Y0 exponent, or the same one and a
    larger Y1 exponent."""
    r = e[1] + e[2]
    return r * (r + 1) // 2 + e[2]


def monomial_sort_key(e):
    """Sort key realizing the graded-lex order within one degree."""
    return (-e[0], -e[1])


def monomial_count(k: int) -> int:
    return len(graded_basis(k))


class HomPoly:
    """Homogeneous trivariate polynomial with exact scalar coefficients."""

    __slots__ = ("degree", "terms", "domain")

    def __init__(self, degree: int, terms, domain=None):
        if degree < 0:
            raise ValueError("polynomial degree must be >= 0")
        clean = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != 3 or any(x < 0 for x in e):
                raise ValueError(f"bad exponent triple {e}")
            if sum(e) != degree:
                raise ValueError(
                    f"term {e} is not homogeneous of degree {degree}"
                )
            clean[e] = c
        if domain is None:
            domain = _infer_domain(list(clean.values())) if clean else RATIONAL
        self.domain = domain
        self.terms = {}
        for e, c in clean.items():
            c = domain.coerce(c)
            if not _is_zero(c):
                self.terms[e] = c
        self.degree = degree

    @classmethod
    def _of(cls, degree: int, terms, domain) -> "HomPoly":
        """Trusted builder: terms already valid in degree and domain; drops zeros."""
        p = object.__new__(cls)
        p.degree = degree
        p.terms = {e: c for e, c in terms.items() if not _is_zero(c)}
        p.domain = domain
        return p

    @classmethod
    def zero(cls, degree: int, domain=RATIONAL) -> "HomPoly":
        return cls(degree, {}, domain=domain)

    @classmethod
    def monomial(cls, e, c=1, domain=None) -> "HomPoly":
        return cls(sum(e), {tuple(e): c}, domain=domain)

    @classmethod
    def from_vector(cls, degree: int, vec, domain=None) -> "HomPoly":
        basis = graded_basis(degree)
        if len(vec) != len(basis):
            raise ValueError(
                f"vector length {len(vec)} does not match degree {degree}"
            )
        return cls(degree, dict(zip(basis, vec)), domain=domain)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def to_vector(self):
        zero = self.domain.zero()
        return tuple(self.terms.get(e, zero) for e in graded_basis(self.degree))

    def map_coefficients(self, fn, domain=None) -> "HomPoly":
        return HomPoly(
            self.degree, {e: fn(c) for e, c in self.terms.items()}, domain=domain
        )

    def _check_compatible(self, other: "HomPoly"):
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        if self.domain != other.domain:
            raise DomainMismatchError(
                f"domain mismatch: {self.domain} vs {other.domain}"
            )

    def __add__(self, other: "HomPoly") -> "HomPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return HomPoly._of(self.degree, out, self.domain)

    def __neg__(self) -> "HomPoly":
        return HomPoly._of(self.degree, {e: -c for e, c in self.terms.items()}, self.domain)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def scale(self, c) -> "HomPoly":
        c = self.domain.coerce(c)
        return HomPoly(
            self.degree, {e: c * v for e, v in self.terms.items()}, domain=self.domain
        )

    def __eq__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if self.is_zero:
            return f"HomPoly(deg {self.degree}, 0)"
        body = " + ".join(
            f"({c!r})*Y^{e}" for e, c in sorted(self.terms.items(), key=lambda t: monomial_sort_key(t[0]))
        )
        return f"HomPoly({body})"


def poly_mul(p: HomPoly, q: HomPoly) -> HomPoly:
    """Product; the result degree is the sum of the operand degrees."""
    if p.domain != q.domain:
        raise DomainMismatchError(f"domain mismatch: {p.domain} vs {q.domain}")
    out = {}
    for ep, cp in p.terms.items():
        for eq, cq in q.terms.items():
            e = (ep[0] + eq[0], ep[1] + eq[1], ep[2] + eq[2])
            c = cp * cq
            if e in out:
                out[e] = out[e] + c
            else:
                out[e] = c
    return HomPoly._of(p.degree + q.degree, out, p.domain)


def poly_partial(p: HomPoly, i: int) -> HomPoly:
    """Partial derivative with respect to Y_i; drops the degree by one."""
    if i not in (0, 1, 2):
        raise ValueError("variable index must be 0, 1, or 2")
    if p.degree == 0:
        raise ValueError("cannot differentiate a degree-0 polynomial")
    out = {}
    for e, c in p.terms.items():
        if e[i] == 0:
            continue
        ne = list(e)
        ne[i] -= 1
        out[tuple(ne)] = c * Fraction(e[i])
    return HomPoly(p.degree - 1, out, domain=p.domain)
