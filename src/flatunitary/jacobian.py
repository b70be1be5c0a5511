"""Artinian Jacobian rings of plane curves, one graded degree at a time.

For a degree-d form F in Y0, Y1, Y2 with partial derivatives F0, F1, F2,
the degree-k piece of the Jacobian ideal is spanned by the monomial
multiples Y^m * F_i with deg m = k - (d-1); the quotient R_k is presented
by the non-pivot monomials (the cobasis) of the reduced echelon form of
that span. Building a fibre runs only its exact smoothness certificate:
dim R_{3d-5} = 0, which holds exactly when the partials share no projective
zero. On a smooth fibre dim R_{d-3} = dim R_{2d-3} = (d-1)(d-2)/2 and
dim R_{3d-6} = 1; the one-dimensional top piece carries the socle pairing,
read off its echelon data into one table per fibre.
Each graded piece R_k is row-reduced the first time anything reads degree
k (its dimension, cobasis, a normal form, a column solver) and then
cached, so a fibre pays only for the degrees its caller uses.

Fibres work over the rationals, over rational functions of t (the generic
fibre of a family), or over jets at a basepoint. A jet fibre reuses only
its order-0 fibre's cobasis and certificate; the column solver of each
degree eliminates its own order-0 block over Z, so only integer
elimination ever runs.

Over the rationals, over Q(t) and over jets no scalar matrix is built for
a fibre, its normal forms or its column solvers. A fibre over Q or Q(t)
holds the field's fraction-free ring from exactcore's table (Z or Z[t])
and runs one code path on it. Each partial F_i is cleared into the ring once, and every
generator row Y^m * F_i is F_i's cleared coefficients placed at the
monomial indices of Y^m times its terms: the rows a Matrix of generator
vectors would get by scaling each row by the lcm of its denominators. The
certificate and the echelon data come from fraction-free elimination of
these rows (rref_rows); over Q(t) the certificate tests the rows at
integer points of the t-line, by ranks modulo one prime at a few and, when
those fall short, by exact integer ranks at enough points that a nonzero
minor cannot vanish at all of them. A normal form clears p into the ring once
and takes dot products there. Over jets each partial is cleared once over
all its s-coefficients. The column solver of a degree, over every domain,
takes its generator columns from the cleared partials in the same way,
one scale per partial: both solvers take a matrix cleared by columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _univar as up
from .exactcore import (
    RATIONAL,
    DomainMismatchError,
    ExactCoreError,
    JetDomain,
    JetSystemSolver,
    LinearSolver,
    Matrix,
    RationalDomain,
    full_column_rank_int,
    rref,  # unused here; perfbench's binding-site check expects it bound
    rref_rows,
    _Columns,
    _clear_jet_rows,
    _is_zero,
    _ring,
)
from .polyring import (
    HomPoly,
    graded_basis,
    monomial_count,
    monomial_index,
    poly_mul,
    poly_partial,
)


# points of the t-line at which the Z[t] rows of a Q(t) certificate are tested
_CERT_POINTS = (1, -1, 2, -2, 3)


class SingularFibreError(ExactCoreError, ValueError):
    """The smoothness certificate failed; carries the offending degree."""

    def __init__(self, degree: int, detail: str = ""):
        self.degree = degree
        msg = f"singular fibre: certificate failed in degree {degree}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@dataclass(frozen=True)
class RingElement:
    """Coordinates of a residue class over the cobasis of its degree."""

    degree: int
    coords: tuple

    @property
    def is_zero(self) -> bool:
        return all(_is_zero(c) for c in self.coords)


def genus_of_degree(d: int) -> int:
    return (d - 1) * (d - 2) // 2


def standard_degrees(d: int):
    """The graded degrees of the Hodge-theoretic pipeline: d-3, d, 2d-3, 3d-6."""
    return (d - 3, d, 2 * d - 3, 3 * d - 6)


class _DegreeData:
    """Echelon data of one graded piece over a field domain.

    cols[i] lists the entries of the echelon rows in the column of the
    i-th cobasis monomial; the pivot columns are implied. The rows are the
    fraction-free Gauss-Jordan rows (rref_rows) of the generator rows over
    the fibre's ring, and RREF row k is echelon row k over the one
    pivot_value, a ring element: over Z the least common denominator of
    the RREF, so the echelon rows are its numerators over one denominator;
    over Z[t] the last Bareiss pivot; the ring's 1 when there are no
    generators.
    """

    __slots__ = ("degree", "pivots", "cobasis_idx", "dim", "cols", "pivot_value")

    def __init__(self, degree, rows, pivots, ncols, pivot_value):
        self.degree = degree
        self.pivots = tuple(pivots)
        pivot_set = set(pivots)
        self.cobasis_idx = tuple(c for c in range(ncols) if c not in pivot_set)
        self.dim = len(self.cobasis_idx)
        self.cols = tuple([row[j] for row in rows] for j in self.cobasis_idx)
        self.pivot_value = pivot_value


class JacobianFiber:
    """One fibre (or jet/generic-fibre thickening) of a Jacobian ring."""

    def __init__(self, F: HomPoly):
        if isinstance(F.domain, JetDomain):
            raise ValueError("build a jet fibre by thickening its order-0 fibre")
        self._setup(F)
        self.certificate = self._smoothness_certificate(3 * self.d - 5)

    def _setup(self, F: HomPoly):
        if F.degree < 3:
            raise ValueError(f"curve degree must be >= 3, got {F.degree}")
        self.F = F
        self.d = F.degree
        self.genus = genus_of_degree(self.d)
        self.domain = F.domain
        self.partials = tuple(poly_partial(F, i) for i in range(3))
        if isinstance(F.domain, JetDomain):
            self._ring, clear = None, _clear_jet_rows
        else:
            self._ring = _ring(F.domain)
            clear = self._ring.clear
        self._int_partials = tuple(_integer_terms(P, clear) for P in self.partials)
        self._degree_data = {}
        self._column_solvers = {}
        self._socle = None
        self._order0 = None

    def thicken(self, F: HomPoly) -> "JacobianFiber":
        """The jet fibre of F. It shares this rational fibre's certificate
        and its echelon data, which either fibre prepares on first use; F's
        order-0 part must be this fibre's polynomial."""
        if not isinstance(F.domain, JetDomain) or _order0_part(F) != self.F:
            raise ValueError("F is not a jet thickening of this rational fibre")
        jet = JacobianFiber.__new__(JacobianFiber)
        jet._setup(F)
        jet._order0, jet.certificate = self, self.certificate
        return jet

    # -- construction internals ------------------------------------------

    def _generators(self, k: int):
        """Ideal generators of degree k as (i, m) pairs, F0 block first,
        multiplier monomials in graded order inside each block."""
        mult_deg = k - (self.d - 1)
        if mult_deg < 0:
            return ()
        return tuple(
            (i, m) for i in range(3) for m in graded_basis(mult_deg)
        )

    def _int_generator_rows(self, k: int):
        """The generator vectors, each scaled into the fibre's ring by the
        lcm of its denominators, which are its partial's."""
        mult_deg = k - (self.d - 1)
        ncols = monomial_count(k)
        zero = self._ring.zero
        rows = []
        for _, terms in self._int_partials:
            for m0, m1, m2 in graded_basis(mult_deg):
                row = [zero] * ncols
                for (a, b, c), x in terms:
                    row[monomial_index((m0 + a, m1 + b, m2 + c))] = x
                rows.append(row)
        return rows

    def _smoothness_certificate(self, cert_degree: int):
        ncols = monomial_count(cert_degree)
        rows = self._int_generator_rows(cert_degree)
        if isinstance(self.domain, RationalDomain):
            tests = exact = (rows,)
        else:
            # a specialization t = a never has larger rank than the rows over
            # Q(t), so full rank at one point certifies it; and a nonzero
            # minor, of t-degree at most D, is nonzero at one of any D + 1
            # points, so the largest rank there is the rank over Q(t)
            def at(a):
                return [[up.zeval(x, a) for x in row] for row in rows]

            D = ncols * max((len(x) - 1 for row in rows for x in row), default=0)
            tests = map(at, _CERT_POINTS)
            exact = map(at, range(D + 1))
        if any(full_column_rank_int(m, ncols) for m in tests):
            return {"degree": cert_degree, "dim": 0, "method": "reduction"}
        rank = 0
        for m in exact:
            rank = max(rank, len(rref_rows(m, ncols, _ring(RATIONAL))[0]))
            if rank == ncols:
                return {"degree": cert_degree, "dim": 0, "method": "exact"}
        raise SingularFibreError(cert_degree, f"dim R_{cert_degree} = {ncols - rank}")

    def _data(self, k: int) -> _DegreeData:
        """The echelon data of degree k, prepared the first time anything
        reads degree k and then cached; a jet fibre reads its order-0
        fibre's."""
        if self._order0 is not None:
            return self._order0._data(k)
        if k not in self._degree_data:
            self._degree_data[k] = self._prepare_degree(k)
        return self._degree_data[k]

    def _prepare_degree(self, k: int) -> _DegreeData:
        ncols = monomial_count(k)
        if k < self.d - 1:  # no generators
            return _DegreeData(k, (), (), ncols, self._ring.one)
        rows = self._int_generator_rows(k)
        pivots, pivot_value = rref_rows(rows, ncols, self._ring)
        return _DegreeData(k, rows[: len(pivots)], pivots, ncols, pivot_value)

    # -- public queries ---------------------------------------------------

    def dim(self, k: int) -> int:
        return self._data(k).dim

    def cobasis(self, k: int):
        """Exponent triples of the representing monomials of R_k."""
        data = self._data(k)
        basis = graded_basis(k)
        return tuple(basis[i] for i in data.cobasis_idx)

    def normal_form(self, p: HomPoly) -> RingElement:
        """Canonical cobasis coordinates of p's residue class.

        Over jets this is the cobasis part of the degree's column_solver
        solve, and p may have any precision up to the fibre's; the result
        carries p's precision."""
        lower_jet = (
            self._order0 is not None
            and isinstance(p.domain, JetDomain)
            and p.domain.precision <= self.domain.precision
        )
        if p.domain != self.domain and not lower_jet:
            raise DomainMismatchError(
                f"polynomial domain {p.domain} does not match fibre domain {self.domain}"
            )
        data = self._data(p.degree)
        if self._order0 is not None:
            solver = self.column_solver(p.degree)
            n = solver.ncols
            x, _ = solver.try_solve(p.to_vector(), _columns=range(n - data.dim, n))
            return RingElement(p.degree, x)
        # coordinate j is p_j - sum_k p_{pivot k} * (RREF row k)_j, with p
        # cleared to b / scale and RREF row k the echelon row over pv
        ring, pv, scales = self._ring, data.pivot_value, []
        (cleared,) = ring.clear([list(p.terms.values())], scales)
        b = [ring.zero] * monomial_count(p.degree)
        for e, x in zip(p.terms, cleared):
            b[monomial_index(e)] = x
        head = [b[c] for c in data.pivots]
        den = ring.mul(pv, scales[0])
        return RingElement(p.degree, tuple(
            ring.frac(ring.sub(ring.mul(b[j], pv), ring.dot(col, head)), den)
            for j, col in zip(data.cobasis_idx, data.cols)
        ))

    def representative(self, elt: RingElement) -> HomPoly:
        """The canonical polynomial representative, supported on the cobasis."""
        cob = self.cobasis(elt.degree)
        if len(cob) != len(elt.coords):
            raise ValueError("coordinate length does not match the cobasis")
        return HomPoly(elt.degree, dict(zip(cob, elt.coords)), domain=self.domain)

    def column_solver(self, k: int):
        """The one solver of degree k, for writing vectors in the ideal
        generators (columns in the fixed (i, m) order).

        Generator column (i, m) is F_i's cleared terms, over their one
        scale, at the monomial indices of Y^m times those terms. Over field
        domains the solver is a LinearSolver on the generators alone.
        Over jets it is a JetSystemSolver on the generators followed by the
        unit columns of the degree-k cobasis, so every right-hand side
        solves: normal_form reads the cobasis part and membership_witness
        the generator part, and a form leaves the ideal at the first
        s-order where the cobasis part is nonzero; that cobasis is the
        order-0 fibre's, prepared on first use like every degree.
        """
        if k in self._column_solvers:
            return self._column_solvers[k]
        scales, entries = [], []
        for i, (m0, m1, m2) in self._generators(k):
            scale, terms = self._int_partials[i]
            scales.append(scale)
            entries.append(tuple(
                (monomial_index((m0 + a, m1 + b, m2 + c)), x) for (a, b, c), x in terms
            ))
        if self._order0 is None:
            solver = LinearSolver(_Columns(monomial_count(k), self.domain, scales, entries))
        else:
            for r in self._data(k).cobasis_idx:
                scales.append(1)
                entries.append(((r, (1,)),))
            solver = JetSystemSolver(_Columns(monomial_count(k), self.domain, scales, entries))
        self._column_solvers[k] = solver
        return solver

    def delta_class(self, p: HomPoly) -> RingElement:
        """Image of a degree-d form in R_d: the first-order deformation
        class of the fibre in the direction of p."""
        if p.degree != self.d:
            raise ValueError(f"delta_class needs degree {self.d}, got {p.degree}")
        return self.normal_form(p)

    def higgs_matrix(self, xi: RingElement) -> Matrix:
        """Multiplication by xi in R_d as a map R_{d-3} -> R_{2d-3}.

        Columns follow the cobasis of R_{d-3}, rows the cobasis of
        R_{2d-3}."""
        if xi.degree != self.d:
            raise ValueError(f"higgs_matrix needs a degree-{self.d} class")
        rep = self.representative(xi)
        cols = []
        for m in self.cobasis(self.d - 3):
            prod = poly_mul(HomPoly.monomial(m, 1, domain=self.domain), rep)
            cols.append(self.normal_form(prod).coords)
        nrows = self.dim(2 * self.d - 3)
        rows = [tuple(col[r] for col in cols) for r in range(nrows)]
        return Matrix(rows, ncols=len(cols), domain=self.domain)

    def _socle_table(self):
        """S, with S[a][b] over R_{3d-6}'s pivot value pv the socle
        coordinate of m_a * m'_b (cobasis monomials of R_{d-3} and
        R_{2d-3}), built once. It is read off R_{3d-6}'s echelon data: pv
        at the socle monomial (the last cobasis one), minus the socle
        column's entry of echelon row k at row k's pivot, 0 elsewhere."""
        if self._socle is None:
            ring, top = _ring(self.domain), self._data(3 * self.d - 6)
            value = {c: ring.sub(ring.zero, x) for c, x in zip(top.pivots, top.cols[-1])}
            value[top.cobasis_idx[-1]] = top.pivot_value
            self._socle = tuple(
                [value.get(monomial_index((a + x, b + y, c + z)), ring.zero)
                 for x, y, z in self.cobasis(2 * self.d - 3)]
                for a, b, c in self.cobasis(self.d - 3)
            )
        return self._socle

    def socle_pairs(self, ps, q: RingElement) -> tuple:
        """The pairing R_{d-3} x R_{2d-3} -> Q or Q(t) of each p in ps with
        q: the coefficient of the last cobasis monomial of degree 3d-6 in
        the product's normal form, canonical up to one global nonzero
        scalar. It is bilinear, so it is p^T S q / pv with the socle table
        S; over the fibre's ring p and q are cleared, S q is taken once and
        there is one division per p."""
        d, table, scales = self.d, self._socle_table(), []
        if (q.degree, len(q.coords)) != (2 * d - 3, len(table[0])) or any(
            (p.degree, len(p.coords)) != (d - 3, len(table)) for p in ps
        ):
            raise ValueError(f"socle_pairs needs cobasis coordinates in degrees {d - 3}, {2 * d - 3}")
        ring = self._ring
        cq, *cps = ring.clear([list(q.coords)] + [list(p.coords) for p in ps], scales)
        sq = [ring.dot(row, cq) for row in table]
        den = ring.mul(self._data(3 * d - 6).pivot_value, scales[0])
        return tuple(ring.frac(ring.dot(cp, sq), ring.mul(den, s)) for cp, s in zip(cps, scales[1:]))


def _integer_terms(P: HomPoly, clear):
    """(L, terms): P's coefficients cleared as one row by clear (a ring's,
    or the jets' over every s-coefficient), L the lcm of their
    denominators (an int over Q and jets, a Z[t] polynomial over Q(t)) and
    terms P's (exponent, cleared coefficient) pairs."""
    scales = []
    (row,) = clear([list(P.terms.values())], scales)
    return scales[0], tuple(zip(P.terms, row))


def _order0_part(F: HomPoly) -> HomPoly:
    return F.map_coefficients(lambda c: c.order0, domain=RATIONAL)


def make_fiber(F: HomPoly) -> JacobianFiber:
    """Build a fibre: run its smoothness certificate in degree 3d-5 and
    raise SingularFibreError when it fails. No graded degree is prepared
    until it is read. A jet polynomial gets its order-0 fibre built, then
    thickened."""
    if isinstance(F.domain, JetDomain):
        return JacobianFiber(_order0_part(F)).thicken(F)
    return JacobianFiber(F)
