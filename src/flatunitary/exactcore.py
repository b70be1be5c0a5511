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
* JetSystemSolver solves M(s) x(s) = b(s) over jets order by order on
  integers: M(s) is cleared once into integer blocks, one scale per column
  over every s-order, the order-0 block is eliminated by the integer core
  LinearSolver uses over Q, the higher blocks are kept sparse, and each
  order's solution is integer numerators over one reduced denominator.
  It reports the first inconsistent order on failure.
* full_column_rank_int certifies full column rank modulo two primes,
  eliminating on the nonzero entries of the rows only.
"""

from __future__ import annotations

import math
import operator
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


class _IntElimination:
    """One fraction-free Gauss-Jordan pass on integer rows [A | I]: the
    order-0 core of LinearSolver over Q and of JetSystemSolver.

    Every pivot row ends on one pivot value (see rref_int), so A x = c
    with integer c is solved, free variables 0, by x[pivots[k]] =
    (T c)_k / pv, T the transform rows and pv > 0 that pivot value, both
    divided by their gcd; each residual row r with r . c != 0 proves it
    inconsistent. When A is D A' for a diagonal row scaling D, passing D's
    entries as scales folds them into both kinds of row, which then apply
    to the right-hand side of A' x = b directly. Both are kept by columns,
    so a product reads only c's nonzero entries: a jet order's right-hand
    side has few of them. The rows are consumed.
    """

    __slots__ = ("pivots", "rank", "pv", "_tcols", "_rcols", "_nres")

    def __init__(self, rows, ncols, scales=None):
        nrows = len(rows)
        for i, row in enumerate(rows):
            row.extend(1 if j == i else 0 for j in range(nrows))
        self.pivots = tuple(ff_gauss_jordan_int(rows, ncols))
        self.rank = len(self.pivots)
        pv = rows[self.rank - 1][self.pivots[-1]] if self.pivots else 1
        if scales is None:
            folded = [row[ncols:] for row in rows]
        else:
            folded = [[x * s for x, s in zip(row[ncols:], scales)] for row in rows]
        # pv and the transform rows share most of their bits; divide out
        # their gcd (signed to leave pv positive), and each residual row's
        # content, which no zero test needs
        g = pv
        for row in folded[: self.rank]:
            g = math.gcd(g, *row)
        g = -g if pv < 0 else g
        self.pv = pv // g
        transform = [[x // g for x in row] for row in folded[: self.rank]]
        residual = [
            [x // h for x in row] for row in folded[self.rank :] if (h := math.gcd(*row))
        ]
        self._nres = len(residual)
        self._tcols = tuple(zip(*transform)) if transform else ((),) * nrows
        self._rcols = tuple(zip(*residual)) if residual else ((),) * nrows

    def solve(self, c):
        """The pivot coordinates' numerators over pv, or None."""
        if self._nres and any(_combine(self._rcols, c, self._nres)):
            return None
        return _combine(self._tcols, c, self.rank)


def _combine(cols, c, width):
    """Sum_r c[r] * cols[r], a width-long list, over the nonzero c[r]."""
    acc = [0] * width
    for r in compress(range(len(c)), c):
        acc = list(map(operator.add, acc, map(operator.mul, cols[r], repeat(c[r]))))
    return acc


class LinearSolver:
    """Reusable exact solver for one field matrix M.

    Runs one fraction-free Gauss-Jordan pass on [D M | I], D the diagonal
    row scaling that clears denominators, and answers any number of solve
    queries. Over Q every row stays integral (_IntElimination): the
    transform rows are lists of ints over one positive integer denominator,
    and a residual row is a list of ints; a solve scales b to integers
    once, by the lcm of its denominators, and takes integer dot products.
    Over Q(t) every row stays in Z[t]: a transform row is a list of Z[t]
    numerators over one Z[t] denominator, its pivot polynomial times the
    row's integer content denominator, and a residual row is a list of Z[t]
    numerators; a solve brings b to one denominator D (the polynomial lcm
    of its denominators times an integer), takes Z[t] dot products and
    normalizes each entry once, as RatFun(row . Db, den * D). Particular
    solutions set every free variable to zero, which (with the pinned
    pivot rule) makes results deterministic.
    """

    def __init__(self, matrix: Matrix):
        if isinstance(matrix.domain, JetDomain):
            raise DomainMismatchError("LinearSolver needs a field domain")
        self.domain = matrix.domain
        self.nrows = matrix.nrows
        self.ncols = matrix.ncols
        self._rational = isinstance(matrix.domain, RationalDomain)
        scales = []
        if self._rational:
            self._core = _IntElimination(
                _clear_rational_rows(matrix.rows, scales), matrix.ncols, scales
            )
            self.pivots, self.rank = self._core.pivots, self._core.rank
        else:
            work = _clear_ratfun_rows(matrix.rows, scales)
            for i, row in enumerate(work):
                row.extend((1,) if j == i else up.ZERO for j in range(matrix.nrows))
            pivots = _jordan_poly(work, matrix.ncols)
            self.pivots = tuple(pivots)
            self.rank = len(pivots)
            n = matrix.ncols
            # as in _IntElimination, fold D back in so transform and
            # residual rows apply to the caller's b directly
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
            nums = self._core.solve([e.numerator * (scale // e.denominator) for e in b])
            if nums is None:
                return None
            den = self._core.pv * scale
            for c, num in zip(self.pivots, nums):
                x[c] = Fraction(num, den)
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


class _JetColumns:
    """A jet matrix cleared to integers column by column, the form
    JetSystemSolver runs on: column j of M(s) is entries[j] over
    scales[j], the lcm of that column's denominators over every s-order.
    entries[j] lists the column's nonzero rows as (row, integer
    s-coefficients) pairs; a coefficient list may stop short of the
    precision, the missing orders being zero."""

    __slots__ = ("nrows", "precision", "scales", "entries")

    def __init__(self, nrows, precision, scales, entries):
        self.nrows, self.precision, self.scales, self.entries = nrows, precision, scales, entries


def _jet_columns(matrix: Matrix) -> _JetColumns:
    if not isinstance(matrix.domain, JetDomain):
        raise DomainMismatchError("JetSystemSolver needs a jet matrix")
    scales, entries = [], []
    for j in range(matrix.ncols):
        col = [row[j] for row in matrix.rows]
        scale = math.lcm(*(c.denominator for e in col for c in e.coeffs))
        scales.append(scale)
        entries.append(tuple(
            (r, [c.numerator * (scale // c.denominator) for c in e.coeffs])
            for r, e in enumerate(col)
            if not e.is_zero
        ))
    return _JetColumns(matrix.nrows, matrix.domain.precision, tuple(scales), tuple(entries))


class JetSystemSolver:
    """Order-by-order solver for M(s) x(s) = b(s), M over one jet domain.

    M(s) is cleared to integers once, one scale L_j per column over every
    s-order (_JetColumns): M_k = A_k L^-1 with integer blocks A_k, and x =
    L y where A(s) y(s) = b(s). Scaling columns scales every minor by a
    nonzero factor, so A_0 has M_0's pivots and the same particular
    solution up to L. A_0 is eliminated once by _IntElimination, the
    integer core of LinearSolver over Q; A_1..A_{N-1} keep only their
    nonzero rows, each as its nonzero columns and entries. Each order's
    y_k is kept as integer numerators over one gcd-reduced denominator, so
    order k solves A_0 y_k = b_k - Sum_i A_i y_{k-i} with that right-hand
    side as sparse integer products over one common denominator, and
    Fractions are made only for the coordinates returned. A solve runs to
    the precision m of its right-hand side, up to N: the precision-m
    system is the prefix A_0..A_{m-1}, so one solver serves every lower
    precision.

    The constructor takes a jet Matrix, or its _JetColumns built directly
    (as Jacobian fibres do from their integer jet partials).
    """

    def __init__(self, matrix):
        cols = matrix if isinstance(matrix, _JetColumns) else _jet_columns(matrix)
        self.precision = cols.precision
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
        self.order0 = _IntElimination(rows0, self.ncols)

    def try_solve(self, b: Sequence, order0_value=None, *, _columns=None):
        """Solve to the precision of b: jets of one precision m <= N.

        order0_value, when given, is used as the order-0 solution instead of
        solving (the caller asserting M_0 * order0_value = b_0); used for
        lifting prescribed kernel vectors. Its entries are Fractions or ints;
        anything else raises DomainMismatchError, and a length other than
        ncols raises ValueError. Returns (solution, None) on success, (None,
        failing_order) on failure; raises DomainMismatchError when b mixes
        precisions and PrecisionExhaustedError when m exceeds the solver's
        precision. _columns, a range of coordinates, is private: only those
        are returned, so only they are made into Fractions.
        """
        if len(b) != self.nrows:
            raise ValueError("rhs length does not match nrows")
        precisions = {e.precision for e in b}
        if len(precisions) > 1:
            raise DomainMismatchError(f"rhs mixes jet precisions {sorted(precisions)}")
        n = precisions.pop() if precisions else self.precision
        if n > self.precision:
            raise PrecisionExhaustedError(
                f"right-hand side has precision {n}; solver has {self.precision}"
            )
        if order0_value is not None:
            if len(order0_value) != self.ncols:
                raise ValueError("order0_value length does not match ncols")
            y0 = [
                Fraction(x.numerator, x.denominator * s)
                for x, s in zip(map(_as_fraction, order0_value), self._scales)
            ]
            den = math.lcm(*(y.denominator for y in y0))
            sols = [([y.numerator * (den // y.denominator) for y in y0], den)]
        else:
            sols = []
        el = self.order0
        for k in range(len(sols), n):
            c, den = self._rhs(k, [e.coeffs[k].as_integer_ratio() for e in b], sols)
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
        b_k holds the order-k coefficients of b as integer ratios."""
        terms = [(rows, sols[k - i]) for i, rows in self._higher if i <= k]
        den = math.lcm(*(q for _, q in b_k), *(d for _, (_, d) in terms))
        c = [p * (den // q) for p, q in b_k]
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
        return Jet(tuple(Fraction(s * y[j], d) if y[j] else _ZERO for y, d in sols))


# ---------------------------------------------------------------------------
# sound one-sided full-rank certificates

_CERT_PRIMES = ((1 << 61) - 1, 2305843009213693907)


def _full_rank_modp(rows, ncols, p):
    """Whether integer rows have rank ncols modulo p. Only their nonzero
    entries are reduced and eliminated, each row held as a dict of them,
    and the scan stops at the first column no remaining row reaches."""
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


def full_column_rank_int(rows, ncols) -> bool:
    """The certificate below on integer rows: True when the rows have
    full column rank modulo one of two fixed primes, hence over Q."""
    if ncols == 0:
        return True
    if len(rows) < ncols:
        return False
    return any(_full_rank_modp(rows, ncols, p) for p in _CERT_PRIMES)


def full_column_rank_certificate(matrix: Matrix) -> bool:
    """True certifies that a rational matrix has full column rank (exactly:
    rank over Q never falls below rank after reduction mod p). False means
    "inconclusive": fall back to exact elimination. Never wrong when True.
    """
    if not isinstance(matrix.domain, RationalDomain):
        raise DomainMismatchError("certificate needs a rational matrix")
    return full_column_rank_int(_clear_rational_rows(matrix.rows), matrix.ncols)
