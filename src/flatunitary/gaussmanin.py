"""Differentiating cohomology classes along the parameter.

A degree-d fibre F presents the curve's primitive cohomology through its
Jacobian ring: forms with a pole of order one along the curve give the
holomorphic part (degree d-3 residues), order two gives the rest (degree
2d-3). Differentiating a family of such forms in t raises the pole order
by one, and the pole drops back after writing the numerator in the ideal
of partial derivatives of F:

    [sum_i A_i * dF/dY_i] at pole order k+1  =  (1/k) [sum_i dA_i/dY_i]
                                                at pole order k.

Everything here is that bookkeeping, done exactly: ideal-membership
witnesses, the Higgs action of the deformation class F_T, the derivative
of a section that stays inside the Higgs kernel, and pole reduction from
order three. Scalars may be rationals, rational functions in
t, or jets in s = t - t0; jet inputs lose one order of s-precision per
derivative, which is the honest amount of information present.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactcore import ExactCoreError, JetDomain, RATFUN, RATIONAL
from .jacobian import JacobianFiber, RingElement
from .polyring import HomPoly, monomial_count, monomial_index, poly_mul, poly_partial


class NotKernelSectionError(ExactCoreError, ValueError):
    """The form is not in the ideal of partial derivatives.

    Over jets, `order` is the first s-order at which membership fails;
    over field scalars it is None.
    """

    def __init__(self, detail: str, order=None):
        self.order = order
        where = "" if order is None else f" at jet order {order}"
        super().__init__(f"{detail}{where}")


@dataclass(frozen=True)
class Witness:
    """Coefficients (A_0, A_1, A_2) expressing a form in the partials.

    parts[i] has degree (k - d + 1) and q = sum_i parts[i] * dF/dY_i."""

    degree: int
    parts: tuple

    def divergence(self) -> HomPoly:
        """sum_i d(parts[i])/dY_i, the pole-reduction numerator."""
        out = poly_partial(self.parts[0], 0)
        out = out + poly_partial(self.parts[1], 1)
        out = out + poly_partial(self.parts[2], 2)
        return out


def membership_witness(fiber: JacobianFiber, q: HomPoly) -> Witness:
    """Write q = sum_i A_i * dF/dY_i, or raise NotKernelSectionError.

    The generator order is fixed (dF/dY_0 block, then dF/dY_1, then
    dF/dY_2, multiplier monomials in graded order) and free variables are
    set to zero, so the witness is deterministic. Over jets the witness is
    the generator part of the degree's one column_solver solve, and
    membership fails at the first s-order where its cobasis part is
    nonzero; up to that order the solve agrees with one on the generators
    alone.
    """
    k = q.degree
    mult_deg = k - (fiber.d - 1)
    if mult_deg < 0:
        raise ValueError(f"degree {k} is below the generator degree {fiber.d - 1}")
    block = monomial_count(mult_deg)
    solver = fiber.column_solver(k)
    fail = None
    if isinstance(fiber.domain, JetDomain):
        pairs = [(monomial_index(e), c) for e, c in q.terms.items()]
        x, _ = solver.try_solve(q.domain.precision, pairs)
        fail = min(
            (o for c in x[3 * block :] for o, a in enumerate(c.coeffs) if a),
            default=None,
        )
    else:
        x = solver.try_solve(q.to_vector())
    if x is None or fail is not None:
        raise NotKernelSectionError(
            f"degree-{k} form is not in the partials ideal", order=fail
        )
    parts = tuple(
        HomPoly.from_vector(mult_deg, x[i * block : (i + 1) * block], q.domain)
        for i in range(3)
    )
    return Witness(degree=k, parts=parts)


def theta_eval(fiber: JacobianFiber, Ft: HomPoly, p) -> RingElement:
    """Higgs action of the deformation class: the class of F_T * p.

    p may be a degree-(d-3) polynomial or a RingElement in that degree;
    the result lives in degree 2d-3. Over jets F_T is truncated to the
    precision of p, which may be any up to the fibre's."""
    if isinstance(p, RingElement):
        p = fiber.representative(p)
    if p.degree != fiber.d - 3:
        raise ValueError(f"theta_eval needs degree {fiber.d - 3}, got {p.degree}")
    if Ft.degree != fiber.d:
        raise ValueError(f"deformation form must have degree {fiber.d}")
    return fiber.normal_form(poly_mul(_truncate_poly(Ft, _precision(p)), p))


def _coeff_derivative(p: HomPoly) -> HomPoly:
    """d/dt on coefficients. Rationals are t-constant; jets differentiate
    in s = t - t0 and lose one order of precision."""
    dom = p.domain
    if dom is RATIONAL:
        return HomPoly.zero(p.degree, RATIONAL)
    if dom is RATFUN:
        return p.map_coefficients(lambda r: r.derivative(), RATFUN)
    if isinstance(dom, JetDomain):
        return p.map_coefficients(
            lambda j: j.derivative(), JetDomain(dom.precision - 1)
        )
    raise ExactCoreError(f"no derivative on domain {dom!r}")


def _precision(p: HomPoly):
    """The jet precision of p's coefficients; None over field domains."""
    return p.domain.precision if isinstance(p.domain, JetDomain) else None


def _truncate_poly(p: HomPoly, n) -> HomPoly:
    if n is None or not isinstance(p.domain, JetDomain) or p.domain.precision == n:
        return p
    return p.map_coefficients(lambda j: j.truncate(n), JetDomain(n))


def gm_derivative(fiber: JacobianFiber, Ft: HomPoly, p: HomPoly) -> HomPoly:
    """Derivative along t of a holomorphic section killed by the Higgs
    action: dp/dt - sum_i dA_i/dY_i where F_T * p = sum_i A_i * dF/dY_i.

    Requires F_T * p to lie in the partials ideal (that is what theta = 0
    means); raises NotKernelSectionError otherwise. Over jets p may have
    any precision up to the fibre's, and the result carries one order
    less of s-precision than p.
    """
    if p.degree != fiber.d - 3:
        raise ValueError(f"gm_derivative needs degree {fiber.d - 3}, got {p.degree}")
    prec = _precision(p)
    w = membership_witness(fiber, poly_mul(_truncate_poly(Ft, prec), p))
    div = _truncate_poly(w.divergence(), None if prec is None else prec - 1)
    return _coeff_derivative(p) - div


def reduce_pole(fiber: JacobianFiber, q: HomPoly):
    """Drop a pole-three numerator (degree 3d-3) to pole two.

    Returns (class of (1/2) * divergence in degree 2d-3, the witness
    used). Degree 3d-3 is past the top of the ring, so membership always
    holds; witnesses there are not unique, but any two differ by relations
    whose divergences land in the ideal, so the class is well defined."""
    if q.degree != 3 * fiber.d - 3:
        raise ValueError(f"reduce_pole needs degree {3 * fiber.d - 3}, got {q.degree}")
    w = membership_witness(fiber, q)
    cls = fiber.normal_form(w.divergence().scale(Fraction(1, 2)))
    return cls, w
