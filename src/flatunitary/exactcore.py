"""Exact scalar domains and deterministic linear algebra.

Three scalar domains, all exact: arbitrary-precision rationals
(fractions.Fraction), rational functions of one variable t with rational
coefficients (RatFun, kept coprime with monic denominator at every step
by _univar.pcancel, a verified heuristic gcd on Z[t]), and truncated
power-series jets in s with a fixed precision (Jet; a jet of precision N
stores exactly N coefficients).

Linear algebra is pinned down to the last bit:

* rref scans columns left to right, picks the first nonzero entry at or
  below the next pivot position, swaps it up and never reorders otherwise;
  leading entries are normalized to 1.
* Elimination over the rationals runs only on integer rows, in two cores:
  rref_int, a fraction-free (integer-preserving) Gauss-Jordan after which
  every pivot row carries one common pivot value, and full_column_rank_int,
  the two-prime rank certificate. rref and full_column_rank_certificate
  over Q clear each row's denominators and call them; Jacobian fibres over
  Q build their generator rows as integers and hand them to the cores
  directly. Rational-function matrices run the same elimination over
  Z[t], each row scaled by the lcm of its denominators and then by an
  integer, so every Bareiss quotient is an exact division of integer
  polynomials (rref_zpoly, the Z[t] twin of rref_int, which Jacobian
  fibres over Q(t) call on their Z[t] generator rows). This keeps
  intermediate entries polynomial-sized instead of letting gcd-heavy
  fraction arithmetic dominate.
* LinearSolver keeps that elimination integral. Over Q each transform row
  is a list of ints with one integer denominator (its pivot value), each
  residual row a list of ints, and a solve scales the right-hand side to
  integers once, so a query costs integer dot products and one Fraction
  per solution entry. Over Q(t) the same holds with Z[t] in place of Z:
  a transform row is a list of Z[t] numerators over one Z[t] denominator,
  a solve brings b to one denominator, and each solution entry is one
  RatFun normalization.
* kernel_basis emits one vector per free column, in increasing column
  order, with 1 at that free column and 0 at the other free columns.
* JetSystemSolver solves M(s) x(s) = b(s) over jets order by order through
  the order-0 LinearSolver, with the higher coefficient blocks of M kept
  sparse, and reports the first inconsistent order on failure.
"""

from __future__ import annotations

import math
import operator
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

    Stored as coprime dense numerator/denominator coefficient tuples with a
    monic denominator, so equal values have equal representations. The gcd
    is taken eagerly after every operation, by _univar.pcancel: a
    heuristic gcd of the primitive Z[t] parts (GCDHEU), accepted only once
    it divides both exactly and leaves cofactors coprime modulo a prime,
    with Euclid over Q as the fallback.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=up.ONE, *, _trusted=False):
        if _trusted:
            self.num = num
            self.den = den
            return
        den = up.pnorm(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = up.pcancel(up.pnorm(num), den)

    @classmethod
    def from_fraction(cls, q) -> "RatFun":
        return cls(up.pconst(q), up.ONE, _trusted=True)

    @classmethod
    def from_poly(cls, coeffs) -> "RatFun":
        return cls(up.pnorm(coeffs), up.ONE, _trusted=True)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        num = up.padd(up.pmul(self.num, other.den), up.pmul(other.num, self.den))
        return RatFun(num, up.pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFun(up.pneg(self.num), self.den, _trusted=True)

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
        return RatFun(up.pmul(self.num, other.num), up.pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(up.pmul(self.num, other.den), up.pmul(self.den, other.num))

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def derivative(self) -> "RatFun":
        num = up.psub(
            up.pmul(up.pderiv(self.num), self.den),
            up.pmul(self.num, up.pderiv(self.den)),
        )
        return RatFun(num, up.pmul(self.den, self.den))

    def evaluate(self, t0) -> Fraction:
        d = up.peval(self.den, t0)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {t0}")
        return up.peval(self.num, t0) / d

    def __eq__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFun({_poly_repr(self.num)} / {_poly_repr(self.den)})"


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
        return RatFun.from_fraction(Fraction(x))
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
    def from_fraction(cls, q, precision: int) -> "Jet":
        if precision < 1:
            raise ValueError("jet precision must be >= 1")
        return cls((_as_fraction(q),) + (_ZERO,) * (precision - 1))

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
        return Jet(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

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
        return Jet(out)

    __rmul__ = __mul__

    def derivative(self) -> "Jet":
        """d/ds, dropping the precision by exactly one."""
        if self.precision == 1:
            raise PrecisionExhaustedError("cannot differentiate a precision-1 jet")
        return Jet(tuple(Fraction(k) * self.coeffs[k] for k in range(1, self.precision)))

    def truncate(self, n: int) -> "Jet":
        if not 1 <= n <= self.precision:
            raise ValueError(f"cannot truncate precision {self.precision} jet to {n}")
        return Jet(self.coeffs[:n])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Jet.from_fraction(other, self.precision)
        if not isinstance(other, Jet):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
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
    """Scale each RatFun row to Z[t] entries (tuples of ints): by the monic
    lcm of its denominators, then by the integer lcm of the coefficient
    denominators that leaves (row scaling preserves the RREF).

    When `scales` is a list, each row's whole multiplier, a Q[t] polynomial,
    is appended to it."""
    out = []
    for row in rows:
        lcm = up.ONE
        mults = {up.ONE: lcm}  # denominator -> lcm / denominator
        for e in row:
            if e.den not in mults:
                # lcm and e.den are monic, so these are the cofactors of
                # their monic gcd: lcm grows by the second, and every
                # multiplier with it
                mult, grow = up.pcancel(lcm, e.den)
                if len(grow) > 1:
                    lcm = up.pmul(lcm, grow)
                    mults = {d: up.pmul(m, grow) for d, m in mults.items()}
                mults[e.den] = mult
        polys = [  # lcm is up.ONE when every denominator is 1
            e.num if lcm is up.ONE else up.pmul(e.num, mults[e.den])
            for e in row
        ]
        zpolys, c = _split_content(polys)
        if scales is not None:
            scales.append(tuple(x * c for x in lcm))
        out.append(zpolys)
    return out


def _split_content(polys):
    """Q[t] polynomials as Z[t] numerators over one positive int denominator."""
    q = math.lcm(*(x.denominator for poly in polys for x in poly))
    return [
        tuple(x.numerator * (q // x.denominator) for x in poly) for poly in polys
    ], q


def _jordan_poly(rows, pivot_width):
    return ff_gauss_jordan_ring(
        rows, pivot_width, up.zmul, up.zsub, up.zdivexact, operator.not_
    )


def rref_int(rows, ncols):
    """Fraction-free reduced echelon form of integer rows, in place.

    Returns (pivots, pivot value). Row k < rank has its pivot at
    pivots[k] and zeros in every other pivot column; rows past the rank
    are zero in the first ncols columns. Every pivot row ends with the
    same pivot entry, the last pivot: each step multiplies the earlier
    pivot rows by the new pivot and divides them by the old one. So row k
    over the pivot value is row k of the RREF."""
    pivots = ff_gauss_jordan_int(rows, ncols)
    return pivots, rows[len(pivots) - 1][pivots[-1]] if pivots else 1


def rref_zpoly(rows, ncols):
    """rref_int over Z[t]: rows of Z[t] polynomials (int tuples), reduced
    in place; the pivot value is a Z[t] polynomial, (1,) with no pivots."""
    pivots = _jordan_poly(rows, ncols)
    return pivots, rows[len(pivots) - 1][pivots[-1]] if pivots else (1,)


def rref(matrix: Matrix) -> RrefResult:
    """Reduced row echelon form over a field domain (rationals or t-rational
    functions). Same shape, zero rows at the bottom, leading entries 1."""
    if isinstance(matrix.domain, JetDomain):
        raise DomainMismatchError("rref over jets is not defined; use JetSystemSolver")
    if isinstance(matrix.domain, RationalDomain):
        work = _clear_rational_rows(matrix.rows)
        pivots, pv = rref_int(work, matrix.ncols)
        out = [tuple(Fraction(x, pv) for x in work[k]) for k in range(len(pivots))]
        zero_row = (_ZERO,) * matrix.ncols
    else:
        work = _clear_ratfun_rows(matrix.rows)
        pivots = _jordan_poly(work, matrix.ncols)
        out = []
        for k, c in enumerate(pivots):
            pv = work[k][c]
            out.append(tuple(RatFun(x, pv) for x in work[k]))
        zero_row = (RatFun.from_fraction(0),) * matrix.ncols
    out.extend([zero_row] * (matrix.nrows - len(pivots)))
    reduced = Matrix(out, ncols=matrix.ncols, domain=matrix.domain)
    return RrefResult(matrix=reduced, pivots=tuple(pivots), rank=len(pivots))


def kernel_basis(matrix: Matrix):
    """Right-kernel basis, one vector per free column in increasing column
    order, normalized to 1 at its own free column and 0 at the others."""
    res = rref(matrix)
    return _kernel_from_rref(res, matrix.domain, matrix.ncols)


def _kernel_from_rref(res: RrefResult, domain, ncols):
    pivots = res.pivots
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    zero = domain.zero()
    one = domain.one()
    basis = []
    rows = res.matrix.rows
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for k, c in enumerate(pivots):
            coeff = rows[k][f]
            if not _is_zero(coeff):
                v[c] = -coeff
        basis.append(tuple(v))
    return tuple(basis)


def _is_zero(x) -> bool:
    if isinstance(x, Fraction):
        return x == 0
    return x.is_zero


# ---------------------------------------------------------------------------
# field solver


class LinearSolver:
    """Reusable exact solver for one field matrix M.

    Runs one fraction-free Gauss-Jordan pass on [D M | I], D the diagonal
    row scaling that clears denominators, and answers any number of solve
    queries. Over Q every row stays integral: a transform row is a list of
    ints over one integer denominator, its pivot value, and a residual row
    is a list of ints; a solve scales b to integers once, by the lcm of its
    denominators, and takes integer dot products. Over Q(t) every row stays
    in Z[t]: a transform row is a list of Z[t] numerators over one Z[t]
    denominator, its pivot polynomial times the row's integer content
    denominator, and a residual row is a list of Z[t] numerators; a solve
    brings b to one denominator D (the polynomial lcm of its denominators
    times an integer), takes Z[t] dot products and normalizes each entry
    once, as RatFun(row . Db, den * D). Particular solutions set every free
    variable to zero, which (with the pinned pivot rule) makes results
    deterministic.
    """

    def __init__(self, matrix: Matrix):
        if isinstance(matrix.domain, JetDomain):
            raise DomainMismatchError("LinearSolver needs a field domain")
        self.domain = matrix.domain
        self.nrows = matrix.nrows
        self.ncols = matrix.ncols
        rational = isinstance(matrix.domain, RationalDomain)
        scales = []
        if rational:
            work = _clear_rational_rows(matrix.rows, scales)
            for i, row in enumerate(work):
                row.extend(1 if j == i else 0 for j in range(matrix.nrows))
            pivots = ff_gauss_jordan_int(work, matrix.ncols)
        else:
            work = _clear_ratfun_rows(matrix.rows, scales)
            for i, row in enumerate(work):
                row.extend((1,) if j == i else up.ZERO for j in range(matrix.nrows))
            pivots = _jordan_poly(work, matrix.ncols)
        self.pivots = tuple(pivots)
        self.rank = len(pivots)
        n = matrix.ncols
        # the elimination ran on the row-scaled matrix D M, so the identity
        # block holds combinations against D M; fold D back in so transform
        # and residual rows apply to the caller's b directly. Residual rows
        # are the combinations proving inconsistency when row.b != 0.
        if rational:
            self._transform = tuple(
                (work[k][c], [x * s for x, s in zip(work[k][n:], scales)])
                for k, c in enumerate(pivots)
            )
            self._residual = tuple(
                [x * s for x, s in zip(row[n:], scales)] for row in work[self.rank:]
            )
        else:
            split = [_split_content([s]) for s in scales]

            def fold(row):
                # Z[t] numerators of row * scales over one integer denominator
                d = math.lcm(*(q for x, (_, q) in zip(row, split) if x))
                return d, [
                    up.zmul(x, tuple(v * (d // q) for v in z))
                    for x, ([z], q) in zip(row, split)
                ]

            self._transform = []
            for k, c in enumerate(pivots):
                d, row = fold(work[k][n:])
                self._transform.append((up.zmul(work[k][c], (d,)), row))
            self._residual = tuple(fold(row[n:])[1] for row in work[self.rank:])
        self._rational = rational

    def try_solve(self, b: Sequence):
        """Particular solution of M x = b with free variables 0, or None."""
        if len(b) != self.nrows:
            raise ValueError("rhs length does not match nrows")
        zero = self.domain.zero()
        x = [zero] * self.ncols
        if self._rational:
            try:
                scale = math.lcm(*(e.denominator for e in b))
            except AttributeError:
                raise DomainMismatchError("rhs is not rational") from None
            b = [e.numerator * (scale // e.denominator) for e in b]
            if any(_int_dot(row, b) for row in self._residual):
                return None
            for c, (pv, row) in zip(self.pivots, self._transform):
                x[c] = Fraction(_int_dot(row, b), pv * scale)
            return tuple(x)
        scales = []
        (b,) = _clear_ratfun_rows([[self.domain.coerce(e) for e in b]], scales)
        if any(_zdot(row, b) for row in self._residual):
            return None
        for c, (den, row) in zip(self.pivots, self._transform):
            num = _zdot(row, b)
            if num:
                x[c] = RatFun(num, up.pmul(den, scales[0]))
        return tuple(x)


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


# ---------------------------------------------------------------------------
# jet systems


class JetSystemSolver:
    """Order-by-order solver for M(s) x(s) = b(s), M over one jet domain.

    Splits M into rational coefficient blocks M_0..M_{N-1} and prepares the
    order-0 solver once; M_1..M_{N-1} are kept sparse, each row as its
    nonzero (column, entry) pairs. A solve runs to the precision m of its
    right-hand side, up to N, in m back-substitution rounds: the
    precision-m system is the prefix M_0..M_{m-1}, so one solver serves
    every lower precision.
    """

    def __init__(self, matrix: Matrix):
        if not isinstance(matrix.domain, JetDomain):
            raise DomainMismatchError("JetSystemSolver needs a jet matrix")
        self.precision = matrix.domain.precision
        self.nrows = matrix.nrows
        self.ncols = matrix.ncols
        # _blocks[k] holds M_k as rows of (j, m) pairs; M_0 lives in order0
        self._blocks = [None] + [
            [
                [(j, e.coeffs[k]) for j, e in enumerate(row) if e.coeffs[k]]
                for row in matrix.rows
            ]
            for k in range(1, self.precision)
        ]
        self.order0 = LinearSolver(
            Matrix(
                [[e.coeffs[0] for e in row] for row in matrix.rows],
                ncols=matrix.ncols,
                domain=RATIONAL,
            )
        )

    def _conv_rhs(self, order, xs, b_orders):
        """b_order - Sum_{i=1..order} M_i x_{order-i}."""
        rhs = list(b_orders[order])
        for i in range(1, order + 1):
            xprev = xs[order - i]
            for r, pairs in enumerate(self._blocks[i]):
                if pairs:
                    rhs[r] -= sum(m * xprev[j] for j, m in pairs)
        return rhs

    def try_solve(self, b: Sequence, order0_value=None):
        """Solve to the precision of b: jets of one precision m <= N.

        order0_value, when given, is used as the order-0 solution instead of
        solving (the caller asserting M_0 * order0_value = b_0); used for
        lifting prescribed kernel vectors. Its entries are Fractions or ints;
        anything else raises DomainMismatchError. Returns (solution, None) on
        success, (None, failing_order) on failure; raises
        PrecisionExhaustedError when m exceeds the solver's precision.
        """
        n = b[0].precision if b else self.precision
        if order0_value is not None:
            order0_value = [_as_fraction(v) for v in order0_value]
        if n > self.precision:
            raise PrecisionExhaustedError(
                f"right-hand side has precision {n}; solver has {self.precision}"
            )
        b_orders = [[e.coeffs[k] for e in b] for k in range(n)]
        xs = []
        for order in range(n):
            rhs = self._conv_rhs(order, xs, b_orders)
            if order == 0 and order0_value is not None:
                xs.append(order0_value)
                continue
            x = self.order0.try_solve(rhs)
            if x is None:
                return None, order
            xs.append(x)
        jets = tuple(
            Jet(tuple(xs[k][j] for k in range(n))) for j in range(self.ncols)
        )
        return jets, None


# ---------------------------------------------------------------------------
# sound one-sided full-rank certificates

_CERT_PRIMES = ((1 << 61) - 1, 2305843009213693907)


def _rank_modp(int_rows, ncols, p):
    rows = [[x % p for x in row] for row in int_rows]
    rank = 0
    for c in range(ncols):
        if rank == len(rows):
            break
        r = rank
        while r < len(rows) and rows[r][c] == 0:
            r += 1
        if r == len(rows):
            continue
        rows[r], rows[rank] = rows[rank], rows[r]
        prow = rows[rank]
        inv = pow(prow[c], -1, p)
        support = [j for j in range(c, ncols) if prow[j]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                f = f * inv % p
                row = rows[i]
                for j in support:
                    row[j] = (row[j] - f * prow[j]) % p
        rank += 1
    return rank


def full_column_rank_int(rows, ncols) -> bool:
    """The certificate below on integer rows: True when the rows have
    full column rank modulo one of two fixed primes, hence over Q."""
    if ncols == 0:
        return True
    if len(rows) < ncols:
        return False
    return any(_rank_modp(rows, ncols, p) == ncols for p in _CERT_PRIMES)


def full_column_rank_certificate(matrix: Matrix) -> bool:
    """True certifies that a rational matrix has full column rank (exactly:
    rank over Q never falls below rank after reduction mod p). False means
    "inconclusive": fall back to exact elimination. Never wrong when True.
    """
    if not isinstance(matrix.domain, RationalDomain):
        raise DomainMismatchError("certificate needs a rational matrix")
    return full_column_rank_int(_clear_rational_rows(matrix.rows), matrix.ncols)
