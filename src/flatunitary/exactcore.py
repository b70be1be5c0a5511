"""Exact scalar domains and deterministic linear algebra.

Three scalar domains, all exact: arbitrary-precision rationals
(fractions.Fraction), rational functions of one variable t with rational
coefficients (RatFun, a coprime pair of Z[t] polynomials kept in lowest
terms at every step by _univar.zcancel, a verified heuristic gcd on
Z[t]), and truncated power-series jets in s with a fixed precision (Jet;
a jet of precision N stores exactly N coefficients).

Linear algebra is pinned down to the last bit:

* rref scans columns left to right, picks the first nonzero entry at or
  below the next pivot position, swaps it up and never reorders otherwise;
  leading entries are normalized to 1.
* Every field elimination is fraction-free on one integral ring, chosen
  from the domain by a private table: Z for Q and Z[t] for Q(t). rref and
  kernel_basis scale each row into the ring by the lcm of its
  denominators (an integer, or a Z[t] polynomial), which keeps the RREF,
  and reduce the rows by a kernel from flatunitary._kernels instead of
  gcd-heavy fraction arithmetic: over Z on primitive rows, each divided
  by its content and so never larger than the Bareiss row it stands for;
  over Z[t] by Bareiss steps, exact divisions that keep entries minors of
  the input. rref_rows reduces rows already in the ring (as Jacobian
  fibres build them); afterwards every pivot row carries one common pivot
  value. The results divide in the field only for the entries returned.
* Both solvers run on one column form (_Columns): column j of M is ring
  entries over a scale L_j, the lcm of that column's denominators, so M =
  A L^-1 and M x = b is A y = b with x = L y. Scaling columns keeps the
  pivots and the particular solution up to L. LinearSolver keeps A's
  elimination in the ring: its transform rows are ring elements over one
  pivot value, its residual rows ring elements, and a solve clears the
  right-hand side to the ring once, so a query costs ring products and
  one division per solution entry (one cancel on Z[t] over Q(t)).
* kernel_basis emits one vector per free column, in increasing column
  order, with 1 at that free column and 0 at the other free columns, read
  straight off the fraction-free echelon rows.
* JetSystemSolver solves M(s) x(s) = b(s) over jets order by order on
  integers: M(s) is cleared once into integer blocks, one scale per column
  over every s-order, the order-0 block is eliminated over Z by the core
  LinearSolver uses, the higher blocks are kept sparse, and each
  order's solution is integer numerators over one reduced denominator.
  It reports the first inconsistent order on failure.
* full_column_rank_int certifies full column rank modulo one prime,
  eliminating on the nonzero entries of the rows only.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from itertools import compress, repeat
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import _univar as up
from ._kernels import ff_gauss_jordan_int, ff_gauss_jordan_ring


class ExactCoreError(Exception):
    """Base class for exact-arithmetic errors."""


class DomainMismatchError(ExactCoreError, TypeError):
    """Scalars from different domains (or different jet precisions) mixed."""


class PrecisionExhaustedError(ExactCoreError, ValueError):
    """An operation needed more jet precision than is available."""


# ---------------------------------------------------------------------------
# scalars

_ZERO = Fraction(0)


def _as_fraction(x) -> Fraction:
    """x as an exact rational: a Fraction as it is, an int converted; a
    float or a string is refused rather than read approximately."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise DomainMismatchError(f"cannot place {x!r} in the rational domain")


class RatFun:
    """Rational function in t over the rationals.

    Stored as a numerator and a denominator in Z[t] (int coefficient
    tuples, ascending powers) with no common factor in Z[t], content
    included, and a positive leading coefficient on the denominator. Equal
    values therefore have equal representations, and == and hash are
    structural. Every operation ends in one cancel on Z[t]: an integer
    content gcd (_univar.zreduce) where only integers can cancel, as in a
    product with a constant, and otherwise _univar.zcancel, a heuristic
    gcd (GCDHEU) accepted only once it divides both parts exactly and
    leaves cofactors coprime modulo a prime, with a primitive remainder
    sequence as the fallback. A derivative takes its one gcd between the
    denominator and the denominator's derivative. num and den read the
    value back as Fraction tuples over a monic denominator.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=up.ONE):
        num, den = up.pnorm(num), up.pnorm(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        # num / den = (A / qa) / (B / qb) with A, B in Z[t]
        qa = math.lcm(*(c.denominator for c in num))
        qb = math.lcm(*(c.denominator for c in den))
        self._n, self._d = up.zcancel(
            tuple(c.numerator * (qa // c.denominator) * qb for c in num),
            tuple(c.numerator * (qb // c.denominator) * qa for c in den),
        )

    @classmethod
    def _of(cls, n, d) -> "RatFun":
        """The RatFun of a Z[t] pair already in lowest terms."""
        r = object.__new__(cls)
        r._n = n
        r._d = d
        return r

    @classmethod
    def _from_z(cls, n, d) -> "RatFun":
        """n / d for Z[t] polynomials n and d != 0."""
        return cls._of(*up.zcancel(n, d))

    @classmethod
    def from_fraction(cls, q) -> "RatFun":
        q = _as_fraction(q)
        return cls._of((q.numerator,) if q else up.ZERO, (q.denominator,))

    @classmethod
    def from_poly(cls, coeffs) -> "RatFun":
        coeffs = up.pnorm(coeffs)
        q = math.lcm(*(c.denominator for c in coeffs))
        return cls._of(*up.zreduce(
            tuple(c.numerator * (q // c.denominator) for c in coeffs), (q,)
        ))

    @property
    def num(self) -> tuple:
        """The numerator over the monic denominator, as Fractions."""
        lc = self._d[-1]
        return tuple(Fraction(c, lc) for c in self._n)

    @property
    def den(self) -> tuple:
        """The monic denominator, as Fractions."""
        lc = self._d[-1]
        return tuple(Fraction(c, lc) for c in self._d)

    @property
    def is_zero(self) -> bool:
        return not self._n

    def _scaled(self, p, q) -> "RatFun":
        # self * p / q for nonzero ints p and q: the primitive parts stay
        # coprime, so only integers can cancel
        return RatFun._of(*up.zreduce(up.zscale(self._n, p), up.zscale(self._d, q)))

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self._n, self._d, other._n, other._d
        if not c:
            return self
        if not a:
            return other
        if b == d:
            return RatFun._from_z(up.zadd(a, c), b)
        return RatFun._from_z(up.zadd(up.zmul(a, d), up.zmul(c, b)), up.zmul(b, d))

    __radd__ = __add__

    def __neg__(self):
        return RatFun._of(tuple(-x for x in self._n), self._d)

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self._n, self._d, other._n, other._d
        if not a or not c:
            return _RZERO
        if len(c) == 1 and len(d) == 1:
            return self._scaled(c[0], d[0])
        if len(a) == 1 and len(b) == 1:
            return other._scaled(a[0], b[0])
        return RatFun._from_z(up.zmul(a, c), up.zmul(b, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        a, b, c, d = self._n, self._d, other._n, other._d
        if len(c) == 1 and len(d) == 1:
            return self._scaled(d[0], c[0])
        return RatFun._from_z(up.zmul(a, d), up.zmul(b, c))

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def derivative(self) -> "RatFun":
        # With d = h u and d' = h v for h = gcd(d, d'), (n / d)' is
        # (n' u - n v) / (d u) in lowest terms up to integers: u has every
        # prime factor p of d once and v none of them (d' holds p once
        # less than d), and n none, so p never divides n' u - n v.
        n, d = self._n, self._d
        if len(d) == 1:
            return RatFun._of(*up.zreduce(_zderiv(n), d))
        u, v = up.zcancel(d, _zderiv(d))
        num = up.zsub(up.zmul(_zderiv(n), u), up.zmul(n, v))
        return RatFun._of(*up.zreduce(num, up.zmul(d, u)))

    def evaluate(self, t0) -> Fraction:
        d = up.peval(self._d, t0)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {t0}")
        return up.peval(self._n, t0) / d

    def __eq__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        # a constant hashes as its Fraction, which it equals
        if len(self._d) == 1 and len(self._n) <= 1:
            return hash(Fraction(self._n[0] if self._n else 0, self._d[0]))
        return hash((self._n, self._d))

    def __repr__(self):
        return f"RatFun({_poly_repr(self.num)} / {_poly_repr(self.den)})"


def _zderiv(a) -> tuple:
    return tuple(i * a[i] for i in range(1, len(a)))


_RZERO = RatFun._of(up.ZERO, up.ZONE)


def _poly_repr(coeffs) -> str:
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*t")
        else:
            parts.append(f"{c}*t^{i}")
    return " + ".join(parts)


def _as_ratfun(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFun.from_fraction(x)
    return NotImplemented


class Jet:
    """Truncated power series in s: exactly `precision` coefficients.

    Binary operations require matching precision; rationals broadcast to
    constant jets. Arithmetic truncates at the shared precision.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(map(_as_fraction, coeffs))
        if not cs:
            raise ValueError("jet needs at least one coefficient")
        self.coeffs = cs

    @classmethod
    def _of(cls, coeffs: tuple) -> "Jet":
        """The Jet of a nonempty tuple of Fractions, taken as it is."""
        j = object.__new__(cls)
        j.coeffs = coeffs
        return j

    @classmethod
    def from_fraction(cls, q, precision: int) -> "Jet":
        if precision < 1:
            raise ValueError("jet precision must be >= 1")
        return cls._of((_as_fraction(q),) + (_ZERO,) * (precision - 1))

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    @property
    def order0(self) -> Fraction:
        return self.coeffs[0]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _match(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.precision != self.precision:
                raise DomainMismatchError(
                    f"jet precision mismatch: {self.precision} vs {other.precision}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Jet.from_fraction(other, self.precision)
        return NotImplemented

    def __add__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet._of(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Jet._of(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet._of(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.precision
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return Jet._of(tuple(out))

    __rmul__ = __mul__

    def derivative(self) -> "Jet":
        """d/ds, dropping the precision by exactly one."""
        if self.precision == 1:
            raise PrecisionExhaustedError("cannot differentiate a precision-1 jet")
        return Jet._of(tuple(k * self.coeffs[k] for k in range(1, self.precision)))

    def truncate(self, n: int) -> "Jet":
        if not 1 <= n <= self.precision:
            raise ValueError(f"cannot truncate precision {self.precision} jet to {n}")
        return Jet._of(self.coeffs[:n])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Jet.from_fraction(other, self.precision)
        if not isinstance(other, Jet):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a jet with no higher terms hashes as its Fraction, which it equals
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __repr__(self):
        return f"Jet({list(self.coeffs)})"


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class RationalDomain:
    name = "rational"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        return _as_fraction(x)


@dataclass(frozen=True)
class RatFunDomain:
    name = "ratfun"

    def zero(self):
        return RatFun.from_fraction(0)

    def one(self):
        return RatFun.from_fraction(1)

    def coerce(self, x):
        if isinstance(x, RatFun):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFun.from_fraction(x)
        raise DomainMismatchError(f"cannot place {x!r} in the rational-function domain")


@dataclass(frozen=True)
class JetDomain:
    precision: int
    name = "jet"

    def zero(self):
        return Jet.from_fraction(0, self.precision)

    def one(self):
        return Jet.from_fraction(1, self.precision)

    def coerce(self, x):
        if isinstance(x, Jet):
            if x.precision != self.precision:
                raise DomainMismatchError(
                    f"jet precision mismatch: expected {self.precision}, got {x.precision}"
                )
            return x
        if isinstance(x, (int, Fraction)):
            return Jet.from_fraction(x, self.precision)
        raise DomainMismatchError(f"cannot place {x!r} in the jet domain")


RATIONAL = RationalDomain()
RATFUN = RatFunDomain()


def domain_of(x):
    if isinstance(x, (int, Fraction)):
        return RATIONAL
    if isinstance(x, RatFun):
        return RATFUN
    if isinstance(x, Jet):
        return JetDomain(x.precision)
    raise DomainMismatchError(f"{x!r} is not a supported scalar")


def _infer_domain(entries):
    domain = RATIONAL
    for e in entries:
        d = domain_of(e)
        if isinstance(d, RationalDomain):
            continue
        if isinstance(domain, RationalDomain):
            domain = d
        elif domain != d:
            raise DomainMismatchError(f"mixed scalar domains: {domain} vs {d}")
    return domain


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable rectangular matrix over one scalar domain.

    Integers and Fractions are coerced into the matrix domain; genuinely
    mixed domains (or mixed jet precisions) are rejected.
    """

    __slots__ = ("nrows", "ncols", "domain", "rows")

    def __init__(self, rows, *, ncols: Optional[int] = None, domain=None):
        rows = [tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} but rows have width {width}")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit ncols")
        flat = [e for r in rows for e in r]
        if domain is None:
            domain = _infer_domain(flat) if flat else RATIONAL
        self.domain = domain
        self.rows = tuple(tuple(domain.coerce(e) for e in r) for r in rows)
        self.nrows = len(rows)
        self.ncols = ncols

    def mul_vec(self, v: Sequence):
        if len(v) != self.ncols:
            raise ValueError("vector length does not match ncols")
        zero = self.domain.zero()
        out = []
        for row in self.rows:
            acc = zero
            for a, b in zip(row, v):
                acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {self.domain.name})"


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    pivots: tuple
    rank: int


def _clear_rational_rows(rows, scales=None):
    """Scale each Fraction row to integers (row scaling preserves the RREF).

    When `scales` is a list, the per-row multipliers are appended to it;
    solvers need them to express results against the original matrix."""
    out = []
    for row in rows:
        lcm = math.lcm(*(e.denominator for e in row))
        if scales is not None:
            scales.append(lcm)
        out.append([e.numerator * (lcm // e.denominator) for e in row])
    return out


def _clear_ratfun_rows(rows, scales=None):
    """Scale each RatFun row to Z[t] entries (tuples of ints) by the Z[t]
    lcm of its denominators (row scaling preserves the RREF).

    When `scales` is a list, each row's multiplier, a Z[t] polynomial with
    a positive leading coefficient, is appended to it."""
    out = []
    for row in rows:
        lcm = up.ZONE
        mults = {lcm: lcm}  # denominator -> lcm / denominator
        for e in row:
            if e._d not in mults:
                # lcm / e._d in lowest terms: lcm grows by the second
                # part, and every multiplier with it
                mult, grow = up.zcancel(lcm, e._d)
                if grow != up.ZONE:
                    lcm = up.zmul(lcm, grow)
                    mults = {d: up.zmul(m, grow) for d, m in mults.items()}
                mults[e._d] = mult
        if scales is not None:
            scales.append(lcm)
        out.append([  # lcm is up.ZONE when every denominator is 1
            e._n if lcm is up.ZONE else up.zmul(e._n, mults[e._d]) for e in row
        ])
    return out


def _int_dot(row, vec):
    return sum(map(operator.mul, row, vec))


def _zdot(row, vec):
    """Dot product of two Z[t] vectors, trimmed."""
    out = []
    for a, b in zip(row, vec):
        if a and b:
            if len(out) < len(a) + len(b) - 1:
                out.extend([0] * (len(a) + len(b) - 1 - len(out)))
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _eliminate_int(rows, ncols):
    # the kernel is looked up when called, so a rebinding of this module's
    # name (a tracing wrapper) is seen
    return ff_gauss_jordan_int(rows, ncols)


def _eliminate_zpoly(rows, ncols):
    return ff_gauss_jordan_ring(rows, ncols, up.zmul, up.zsub, up.zdivexact, operator.not_)


# The integral ring that a field domain's fraction-free elimination runs
# on: Z for Q, Z[t] for Q(t). frac(n, d) is n / d in the field; clear(rows,
# scales) scales field rows into the ring (see _clear_rational_rows);
# eliminate(rows, ncols) is the in-place fraction-free kernel, returning
# the pivots. Over Z it leaves a positive pivot value and primitive rows
# past the rank, so _Elimination takes its rows as they are.
_Ring = namedtuple("_Ring", "zero one mul sub add dot frac clear eliminate")


# Z keeps the C-level int operations: the jet solver's order-0 products
# run on them
_RINGS = {
    RationalDomain: _Ring(
        0, 1, operator.mul, operator.sub, operator.add, _int_dot, Fraction,
        _clear_rational_rows, _eliminate_int,
    ),
    RatFunDomain: _Ring(
        up.ZERO, up.ZONE, up.zmul, up.zsub, up.zadd, _zdot, RatFun._from_z,
        _clear_ratfun_rows, _eliminate_zpoly,
    ),
}


def _ring(domain) -> _Ring:
    """The ring of a field domain; jets have none."""
    try:
        return _RINGS[type(domain)]
    except KeyError:
        raise DomainMismatchError(
            f"no elimination over the {domain.name} domain; use JetSystemSolver"
        ) from None


def rref_rows(rows, ncols, ring):
    """Fraction-free reduced echelon form of rows over ring, in place.

    Returns (pivots, pivot value). Row k < rank has its pivot at
    pivots[k] and zeros in every other pivot column; rows past the rank
    are zero in the first ncols columns. Every pivot row ends with the
    same pivot entry, the pivot value, so row k over it is row k of the
    RREF: over Z the least common denominator of the reduced rows (the
    kernel keeps rows primitive and scales the pivot rows to it at the
    end), over Z[t] the last Bareiss pivot. With no pivots the pivot value
    is the ring's 1."""
    pivots = ring.eliminate(rows, ncols)
    return pivots, rows[len(pivots) - 1][pivots[-1]] if pivots else ring.one


def rref(matrix: Matrix) -> RrefResult:
    """Reduced row echelon form over a field domain (rationals or t-rational
    functions). Same shape, zero rows at the bottom, leading entries 1."""
    ring = _ring(matrix.domain)
    work = ring.clear(matrix.rows)
    pivots, pv = rref_rows(work, matrix.ncols, ring)
    out = [tuple(ring.frac(x, pv) for x in work[k]) for k in range(len(pivots))]
    out.extend([(matrix.domain.zero(),) * matrix.ncols] * (matrix.nrows - len(pivots)))
    reduced = Matrix(out, ncols=matrix.ncols, domain=matrix.domain)
    return RrefResult(matrix=reduced, pivots=tuple(pivots), rank=len(pivots))


def kernel_basis(matrix: Matrix):
    """Right-kernel basis, one vector per free column in increasing column
    order, normalized to 1 at its own free column and 0 at the others."""
    ring = _ring(matrix.domain)
    work = ring.clear(matrix.rows)
    pivots = ring.eliminate(work, matrix.ncols)
    pivot_set = set(pivots)
    return tuple(
        tuple(_kernel_vector(work, pivots, f, matrix.ncols, ring))
        for f in range(matrix.ncols)
        if f not in pivot_set
    )


def _kernel_vector(rows, pivots, f, width, ring):
    """The canonical kernel vector of free column f, read off the
    fraction-free echelon rows over ring: 1 at f, -rows[k][f] / rows[k][c]
    at each pivot column c = pivots[k], 0 elsewhere."""
    v = [ring.frac(ring.zero, ring.one)] * width
    v[f] = ring.frac(ring.one, ring.one)
    for row, c in zip(rows, pivots):
        if row[f]:
            v[c] = ring.frac(ring.sub(ring.zero, row[f]), row[c])
    return v


def _is_zero(x) -> bool:
    if isinstance(x, Fraction):
        return x == 0
    return x.is_zero


# ---------------------------------------------------------------------------
# solvers


class _Columns:
    """A matrix cleared into a ring column by column, the form both
    solvers run on: column j of M is entries[j] over scales[j], the lcm of
    that column's denominators (an integer over Q and over jets, where it
    covers every s-order; a Z[t] polynomial over Q(t)). entries[j] lists
    the column's nonzero rows as (row, entry) pairs: a ring element over Q
    and Q(t), integer s-coefficients over jets, where a coefficient list
    may stop short of the precision, the missing orders being zero."""

    __slots__ = ("nrows", "domain", "scales", "entries")

    def __init__(self, nrows, domain, scales, entries):
        self.nrows, self.domain, self.scales, self.entries = nrows, domain, scales, entries


def _clear_jet_rows(rows, scales):
    """Each jet row as integer s-coefficient tuples over the lcm of every
    denominator in it, appended to scales."""
    out = []
    for row in rows:
        lcm = math.lcm(*(c.denominator for e in row for c in e.coeffs))
        scales.append(lcm)
        out.append([tuple(c.numerator * (lcm // c.denominator) for c in e.coeffs) for e in row])
    return out


def _column_form(matrix) -> _Columns:
    """matrix in column form, each column cleared by its lcm; a _Columns
    is returned as it is."""
    if isinstance(matrix, _Columns):
        return matrix
    if isinstance(matrix.domain, JetDomain):
        clear = _clear_jet_rows
    else:
        clear = _ring(matrix.domain).clear
    cols = list(zip(*matrix.rows)) if matrix.rows else [()] * matrix.ncols
    scales = []
    cleared = clear(cols, scales)
    return _Columns(matrix.nrows, matrix.domain, tuple(scales), tuple(
        tuple((r, x) for r, (e, x) in enumerate(zip(col, xs)) if not _is_zero(e))
        for col, xs in zip(cols, cleared)
    ))


class _Elimination:
    """One fraction-free Gauss-Jordan pass on rows [A | I] over a field's
    ring (Z or Z[t]): the core of LinearSolver, and over Z of
    JetSystemSolver's order 0.

    Every pivot row ends on one pivot value (see rref_rows), so A y = c
    with c over the ring is solved, free variables 0, by y[pivots[k]] =
    (T c)_k / pv, T the transform rows and pv that pivot value; each
    residual row r with r . c != 0 proves it inconsistent. pv and the
    rows are kept as the kernel leaves them, zero residual rows dropped:
    over Z, pv > 0 is the least common denominator of the reduced rows
    [A | I] and the residual rows are primitive. T and the residual rows
    are kept by columns, so a product reads only c's nonzero entries: a
    jet order's right-hand side has few of them. The rows are consumed.
    """

    __slots__ = ("pivots", "rank", "pv", "_ring", "_tcols", "_rcols", "_nres")

    def __init__(self, rows, ncols, ring):
        nrows = len(rows)
        for i, row in enumerate(rows):
            row.extend(ring.one if j == i else ring.zero for j in range(nrows))
        pivots, pv = rref_rows(rows, ncols, ring)
        self.pivots = tuple(pivots)
        self.rank = len(pivots)
        self.pv = pv
        transform = [row[ncols:] for row in rows[: self.rank]]
        residual = [tail for row in rows[self.rank :] if any(tail := row[ncols:])]
        self._ring = ring
        self._nres = len(residual)
        self._tcols = tuple(zip(*transform)) if transform else ((),) * nrows
        self._rcols = tuple(zip(*residual)) if residual else ((),) * nrows

    def solve(self, c):
        """The pivot coordinates' numerators over pv, or None."""
        if self._nres and any(_combine(self._rcols, c, self._nres, self._ring)):
            return None
        return _combine(self._tcols, c, self.rank, self._ring)


def _combine(cols, c, width, ring):
    """Sum_r c[r] * cols[r], a width-long list, over the nonzero c[r]."""
    add, mul = ring.add, ring.mul
    acc = [ring.zero] * width
    for r in compress(range(len(c)), c):
        acc = list(map(add, acc, map(mul, cols[r], repeat(c[r]))))
    return acc


class LinearSolver:
    """Reusable exact solver for one field matrix M.

    M is taken in column form (_Columns; a Matrix is cleared column by
    column): M = A L^-1 with A over the field's ring, Z for Q and Z[t] for
    Q(t), and L the diagonal of column scales. One fraction-free
    Gauss-Jordan pass (_Elimination) on [A | I] answers any number of
    solve queries. A solve clears b to c / s over the ring, by the lcm s
    of its denominators (an integer over Q, a Z[t] polynomial over Q(t)),
    solves A y = c by ring products and makes each solution entry x[j] =
    L_j y[j] / s by one division in the field (one cancel on Z[t] over
    Q(t)). Scaling columns keeps the pivots, and particular solutions set
    every free variable to zero, which (with the pinned pivot rule) makes
    results deterministic.
    """

    def __init__(self, matrix):
        self._ring = _ring(matrix.domain)
        cols = _column_form(matrix)
        self.domain = cols.domain
        self.nrows = cols.nrows
        self.ncols = len(cols.scales)
        self._scales = cols.scales
        rows = [[self._ring.zero] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(cols.entries):
            for r, x in col:
                rows[r][j] = x
        self._core = _Elimination(rows, self.ncols, self._ring)
        self.pivots, self.rank = self._core.pivots, self._core.rank

    def try_solve(self, b: Sequence):
        """Particular solution of M x = b with free variables 0, or None."""
        if len(b) != self.nrows:
            raise ValueError("rhs length does not match nrows")
        ring, scales = self._ring, []
        (c,) = ring.clear([[self.domain.coerce(e) for e in b]], scales)
        nums = self._core.solve(c)
        if nums is None:
            return None
        den = ring.mul(self._core.pv, scales[0])
        x = [self.domain.zero()] * self.ncols
        for col, num in zip(self.pivots, nums):
            if num:
                scale = self._scales[col]  # mostly 1: skip a Z[t] product there
                x[col] = ring.frac(num if scale == ring.one else ring.mul(num, scale), den)
        return tuple(x)


class JetSystemSolver:
    """Order-by-order solver for M(s) x(s) = b(s), M over one jet domain.

    M(s) is taken in column form (_Columns), one integer scale L_j per
    column over every s-order: M_k = A_k L^-1 with integer blocks A_k, and
    x = L y where A(s) y(s) = b(s). Scaling columns scales every minor by
    a nonzero factor, so A_0 has M_0's pivots and the same particular
    solution up to L. A_0 is eliminated once over Z by _Elimination, the
    core of LinearSolver; A_1..A_{N-1} keep only their
    nonzero rows, each as its nonzero columns and entries. Each order's
    y_k is kept as integer numerators over one gcd-reduced denominator, so
    order k solves A_0 y_k = b_k - Sum_i A_i y_{k-i} with that right-hand
    side as sparse integer products over one common denominator, and
    Fractions are made only for the coordinates returned. A solve runs to
    the precision m of its right-hand side, up to N: the precision-m
    system is the prefix A_0..A_{m-1}, so one solver serves every lower
    precision.

    The constructor takes a jet Matrix, or its _Columns built directly
    (as Jacobian fibres do from their integer jet partials).
    """

    def __init__(self, matrix):
        if not isinstance(matrix.domain, JetDomain):
            raise DomainMismatchError("JetSystemSolver needs a jet matrix")
        cols = _column_form(matrix)
        self.precision = cols.domain.precision
        self.nrows = cols.nrows
        self.ncols = len(cols.scales)
        self._scales = cols.scales
        rows0 = [[0] * self.ncols for _ in range(self.nrows)]
        higher = {}  # order -> row -> (columns, entries) of A_order
        for j, col in enumerate(cols.entries):
            for r, coeffs in col:
                rows0[r][j] = coeffs[0]
                for k in range(1, len(coeffs)):
                    if coeffs[k]:
                        js, vals = higher.setdefault(k, {}).setdefault(r, ([], []))
                        js.append(j)
                        vals.append(coeffs[k])
        self._higher = tuple(
            (k, tuple((r, js, vals) for r, (js, vals) in higher[k].items()))
            for k in sorted(higher)
        )
        self.order0 = _Elimination(rows0, self.ncols, _ring(RATIONAL))

    def try_solve(self, b: Sequence, *, _columns=None, _terms=None):
        """Solve to the precision of b: jets of one precision m <= N.

        Returns (solution, None) on success, (None, failing_order) on
        failure; raises DomainMismatchError when b mixes precisions and
        PrecisionExhaustedError when m exceeds the solver's precision.
        _columns, a range of coordinates, is private: only those are
        returned, so only they are made into Fractions. _terms, private,
        stands for b as (m, pairs), pairs holding (row, jet) for b's
        nonzero entries, so its zero entries are never read.
        """
        if _terms is None:
            if len(b) != self.nrows:
                raise ValueError("rhs length does not match nrows")
            precisions = {e.precision for e in b}
            if len(precisions) > 1:
                raise DomainMismatchError(f"rhs mixes jet precisions {sorted(precisions)}")
            _terms = precisions.pop() if precisions else self.precision, enumerate(b)
        n, pairs = _terms
        if n > self.precision:
            raise PrecisionExhaustedError(
                f"right-hand side has precision {n}; solver has {self.precision}"
            )
        el, sols = self.order0, []
        nonzero = [(r, e.coeffs) for r, e in pairs if any(e.coeffs)]
        for k in range(n):
            b_k = [(r, cs[k].as_integer_ratio()) for r, cs in nonzero if cs[k]]
            c, den = self._rhs(k, b_k, sols)
            nums = el.solve(c)
            if nums is None:
                return None, k
            den *= el.pv
            g = math.gcd(den, *nums)
            y = [0] * self.ncols
            for j, num in zip(el.pivots, nums):
                y[j] = num // g
            sols.append((y, den // g))
        cols = range(self.ncols) if _columns is None else _columns
        return tuple(self._jet(sols, j) for j in cols), None

    def _rhs(self, k, b_k, sols):
        """b_k - Sum_{i=1..k} A_i y_{k-i} as integers over one denominator;
        b_k holds (row, integer ratio) for b's nonzero order-k coefficients."""
        terms = [(rows, sols[k - i]) for i, rows in self._higher if i <= k]
        den = math.lcm(*(q for _, (_, q) in b_k), *(d for _, (_, d) in terms))
        c = [0] * self.nrows
        for r, (p, q) in b_k:
            c[r] = p * (den // q)
        for rows, (y, d) in terms:
            f = den // d
            for r, js, vals in rows:
                dot = sum(map(operator.mul, vals, map(y.__getitem__, js)))
                if dot:
                    c[r] -= f * dot
        return c, den

    def _jet(self, sols, j):
        """Coordinate j of x = L y as a jet."""
        s = self._scales[j]
        return Jet._of(tuple(Fraction(s * y[j], d) if y[j] else _ZERO for y, d in sols))


# ---------------------------------------------------------------------------
# sound one-sided full-rank certificates

_CERT_PRIME = (1 << 61) - 1


def full_column_rank_int(rows, ncols) -> bool:
    """The certificate below on integer rows: True when the rows have
    full column rank modulo one fixed prime, hence over Q. Only their
    nonzero entries are reduced and eliminated, each row held as a dict of
    them, and the scan stops at the first column no remaining row reaches."""
    if ncols == 0:
        return True
    if len(rows) < ncols:
        return False
    p = _CERT_PRIME
    work = [{j: x for j in compress(range(len(row)), row) if (x := row[j] % p)} for row in rows]
    for c in range(ncols):
        for r, row in enumerate(work):
            if c in row:
                break
        else:
            return False
        prow = work.pop(r)
        inv = pow(prow.pop(c), -1, p)
        for row in work:
            f = row.pop(c, 0)
            if f:
                f = f * inv % p
                for j, v in prow.items():
                    w = (row.get(j, 0) - f * v) % p
                    if w:
                        row[j] = w
                    else:
                        row.pop(j, None)
    return True


def full_column_rank_certificate(matrix: Matrix) -> bool:
    """True certifies that a rational matrix has full column rank (exactly:
    rank over Q never falls below rank modulo the one fixed prime p). False
    means "inconclusive": fall back to exact elimination. Never wrong when
    True.
    """
    if not isinstance(matrix.domain, RationalDomain):
        raise DomainMismatchError("certificate needs a rational matrix")
    return full_column_rank_int(_clear_rational_rows(matrix.rows), matrix.ncols)
