"""The library entry points the traced run wraps, and the per-layer
metrics computed from their spans and counters.

Every `*_s` metric is self time in seconds: the entry's span time minus
the time of the wrapped entries it called. Ratios are useful outcomes
over attempts, and 0 when nothing was attempted.
"""

from fractions import Fraction
import weakref


def _entry_bits(x):
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return max((_entry_bits(c) for c in x), default=0)  # polynomial coefficients


def _observe_elimination(prefix):
    def observe(tr, args, result, error):
        rows = args[0]
        if rows:
            tr.counts[prefix + ".cells"] += len(rows) * len(rows[0])
            bits = max(_entry_bits(x) for row in rows for x in row)
            tr.maxima["exactcore.max_entry_bits"] = max(
                tr.maxima["exactcore.max_entry_bits"], bits
            )

    return observe


def _observe_rref(tr, args, result, error):
    matrix = args[0]
    tr.counts["exactcore.rref.cells"] += matrix.nrows * matrix.ncols


def _observe_rank_cert(tr, args, result, error):
    if result:
        tr.counts["exactcore.rank_cert.hits"] += 1


def _observe_jet_solve(tr, args, result, error):
    if result is None:
        return
    solution, fail = result
    solver = args[0]
    if solution is None:
        tr.counts["exactcore.jet_solver.orders"] += fail
    else:
        tr.counts["exactcore.jet_solver.orders"] += solver.precision
        tr.counts["exactcore.jet_solver.ok"] += 1


def _observe_column_solver(seen):
    # the fibre caches one solver per degree; a solver returned before
    # is a cache hit
    def observe(tr, args, result, error):
        if result is None:
            return
        if result in seen:
            tr.counts["jacobian.column_solver.hits"] += 1
        else:
            seen.add(result)

    return observe


def _observe_pick_basepoint(tr, args, result, error):
    source = error if error is not None else result
    tr.counts["family.pick_basepoint.rejected"] += len(getattr(source, "rejected", ()))


def entries(lib):
    """(span name, owner, attribute, observer) for every wrapped entry."""
    fu, cli, kernels = lib.fu, lib.cli, lib.kernels
    ec = fu.exactcore
    return (
        ("kernels.ff_int", kernels, "ff_gauss_jordan_int", _observe_elimination("kernels.ff_int")),
        ("kernels.ff_ring", kernels, "ff_gauss_jordan_ring", _observe_elimination("kernels.ff_ring")),
        ("exactcore.rref", ec, "rref", _observe_rref),
        ("exactcore.rank_cert", ec, "full_column_rank_certificate", _observe_rank_cert),
        ("exactcore.linear_solver.build", ec.LinearSolver, "__init__", None),
        ("exactcore.linear_solver.solve", ec.LinearSolver, "try_solve", None),
        ("exactcore.jet_solver.build", ec.JetSystemSolver, "__init__", None),
        ("exactcore.jet_solver.solve", ec.JetSystemSolver, "try_solve", _observe_jet_solve),
        ("polyring.poly_mul", fu.polyring, "poly_mul", None),
        ("jacobian.make_fiber", fu.jacobian, "make_fiber", None),
        ("jacobian.higgs_matrix", fu.JacobianFiber, "higgs_matrix", None),
        ("jacobian.normal_form", fu.JacobianFiber, "normal_form", None),
        ("jacobian.column_solver", fu.JacobianFiber, "column_solver",
         _observe_column_solver(weakref.WeakSet())),
        ("family.pick_basepoint", fu.family, "pick_basepoint", _observe_pick_basepoint),
        ("family.jet_expand", fu.family, "jet_expand", None),
        ("gaussmanin.membership_witness", fu.gaussmanin, "membership_witness", None),
        ("gaussmanin.gm_derivative", fu.gaussmanin, "gm_derivative", None),
        ("gaussmanin.theta_eval", fu.gaussmanin, "theta_eval", None),
        ("unitary.filtration_ranks", fu.unitary, "filtration_ranks", None),
        ("unitary.stacked_kernel", fu.unitary, "_stacked_kernel", None),
        ("unitary.verify_chain", fu.unitary, "_verify_chain", None),
        ("unitary.eta2_on_K", fu.unitary, "eta2_on_K", None),
        ("cli.run", cli, "run", None),
    )


# entries reported as <entry>.calls and <entry>.self_s
_CALLS_AND_SELF = (
    "kernels.ff_int",
    "kernels.ff_ring",
    "exactcore.rref",
    "exactcore.rank_cert",
    "polyring.poly_mul",
    "jacobian.make_fiber",
    "jacobian.higgs_matrix",
    "jacobian.normal_form",
    "family.pick_basepoint",
    "family.jet_expand",
    "gaussmanin.membership_witness",
    "gaussmanin.gm_derivative",
    "gaussmanin.theta_eval",
    "unitary.filtration_ranks",
    "unitary.stacked_kernel",
    "cli.run",
)

# counters that do not depend on the machine
COUNT_SUFFIXES = (".calls", ".cells", ".orders", ".rejected", ".builds", ".solves", "max_entry_bits")


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(tr):
    """Per-layer metrics of the pass the tracer just recorded."""
    calls, counts = tr.calls, tr.counts

    def self_s(name):
        return tr.self_ns[name] / 1e9

    out = {}
    for name in _CALLS_AND_SELF:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s(name)
    for name in ("kernels.ff_int", "kernels.ff_ring", "exactcore.rref"):
        out[name + ".cells"] = counts[name + ".cells"]
    out["exactcore.rank_cert.hit_ratio"] = _ratio(
        counts["exactcore.rank_cert.hits"], calls["exactcore.rank_cert"]
    )
    for solver in ("linear_solver", "jet_solver"):
        base = "exactcore." + solver
        out[base + ".builds"] = calls[base + ".build"]
        out[base + ".build_s"] = self_s(base + ".build")
        out[base + ".solves"] = calls[base + ".solve"]
        out[base + ".solve_s"] = self_s(base + ".solve")
    out["exactcore.jet_solver.orders"] = counts["exactcore.jet_solver.orders"]
    out["exactcore.jet_solver.ok_ratio"] = _ratio(
        counts["exactcore.jet_solver.ok"], calls["exactcore.jet_solver.solve"]
    )
    out["exactcore.max_entry_bits"] = tr.maxima["exactcore.max_entry_bits"]
    out["jacobian.column_solver.calls"] = calls["jacobian.column_solver"]
    out["jacobian.column_solver.hit_ratio"] = _ratio(
        counts["jacobian.column_solver.hits"], calls["jacobian.column_solver"]
    )
    out["family.pick_basepoint.rejected"] = counts["family.pick_basepoint.rejected"]
    out["unitary.verify_chain.self_s"] = self_s("unitary.verify_chain")
    out["unitary.eta2_on_K.self_s"] = self_s("unitary.eta2_on_K")
    return out


def is_count(metric):
    return metric.endswith(COUNT_SUFFIXES)
