"""Command-line front end emitting deterministic JSON reports.

Every subcommand prints one JSON document. Two runs with identical
inputs and seed produce byte-identical output except for the final
"timings" block. Exit codes:

* 0 success;
* 2 input error, with a message on stderr and no report; a jet order too
  low for the requested levels (PrecisionExhaustedError) counts as one,
  and so do --max-level or --order above 10000, --order without --mode
  jet, on unitary-rank --t0 without --mode jet (ratfun mode has no jet
  order and no basepoint), and --seed where no basepoint is searched
  (given --t0, or on unitary-rank without --mode jet). A flag the
  subcommand does not take is an argparse usage error,
  also exit 2: only unitary-rank and mu-report take --mode, --order and
  --max-level;
* 3 mathematical error, with an "error" block in the report: kind
  "no-smooth-fibre" when no certified-smooth fibre is available, kind
  "exact-arithmetic" for any other ExactCoreError or an ArithmeticError
  (for instance a violated filtration invariant or a form outside the
  partials ideal);
* 4 jet ranks not certified: they differ from the generic ranks over
  Q(t), which unitary-rank lists as generic_ranks.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from fractions import Fraction

from . import __version__
from .exactcore import ExactCoreError, Jet, PrecisionExhaustedError, RatFun
from .family import (
    FamilyParseError,
    FamilySpec,
    NoSmoothFibreError,
    parse_family,
    pick_basepoint,
    print_family,
)
from .jacobian import (
    SingularFibreError,
    make_fiber,  # unused here; perfbench's binding-site check expects it bound
    standard_degrees,
)
from .polyring import graded_basis, monomial_sort_key
from .unitary import mu_report, pointwise_kernel, unitary_rank

SCHEMA = "flatunitary-report/2"

# Canonical fixture invocations: (expected-report stem, argv, exit code).
# Family paths are relative to the bundled fixtures directory; runners are
# expected to invoke them with that directory as the working directory so
# the echoed source stays machine-independent.
FIXTURE_RUNS = (
    ("tfree_quartic.unitary-rank", ("unitary-rank", "tfree_quartic.fam"), 0),
    ("fermat_mix.validate", ("validate", "fermat_mix.fam"), 0),
    ("fermat_mix.hodge", ("hodge", "fermat_mix.fam", "--t0", "1"), 0),
    ("fermat_mix.higgs", ("higgs", "fermat_mix.fam", "--t0", "1"), 0),
    ("fermat_mix.unitary-rank", ("unitary-rank", "fermat_mix.fam"), 0),
    (
        "fermat_mix.unitary-rank-jet",
        ("unitary-rank", "fermat_mix.fam", "--mode", "jet"),
        0,
    ),
    ("hesse.higgs", ("higgs", "hesse.fam", "--t0", "1"), 0),
    ("hesse.unitary-rank", ("unitary-rank", "hesse.fam"), 0),
    ("cusp.validate", ("validate", "cusp.fam"), 3),
    ("fermat_mix_tt.mu-report", ("mu-report", "fermat_mix_tt.fam", "--t0", "0"), 0),
)


class _InputError(Exception):
    """Bad command-line input outside argparse's own checks."""


# ---------------------------------------------------------------------------
# serialization: exact scalars to JSON-safe values


def _frac(q) -> str:
    return str(Fraction(q))


def _scalar(x):
    """One exact scalar as a JSON value.

    Rationals become "p/q" strings; rational functions in t become
    {"num": [...], "den": [...]} with coefficient lists in ascending
    powers of t; jets become {"jet": [...]} listing the coefficients of
    the local parameter.
    """
    if isinstance(x, RatFun):
        return {"num": [_frac(c) for c in x.num], "den": [_frac(c) for c in x.den]}
    if isinstance(x, Jet):
        return {"jet": [_frac(c) for c in x.coeffs]}
    return _frac(x)


def _poly_terms(p):
    """Term list of a homogeneous polynomial in monomial order."""
    items = sorted(p.terms.items(), key=lambda kv: monomial_sort_key(kv[0]))
    return [{"e": list(e), "c": _scalar(c)} for e, c in items]


def _vector_terms(exps, vec):
    """Term list of a coordinate vector over cobasis monomials."""
    pairs = sorted(zip(exps, vec), key=lambda pair: monomial_sort_key(pair[0]))
    return [{"e": list(e), "c": _scalar(c)} for e, c in pairs if c != 0]


def _family_terms(fam: FamilySpec):
    items = sorted(fam.terms.items(), key=lambda kv: monomial_sort_key(kv[0]))
    return [{"e": list(e), "c": [_frac(c) for c in cs]} for e, cs in items]


def _rejected_json(rejected):
    return [{"t0": _frac(t0), "reason": reason} for t0, reason in rejected]


def _matrix_json(rows):
    out = []
    for row in rows:
        out.append(None if row is None else [_scalar(x) for x in row])
    return out


# ---------------------------------------------------------------------------
# report envelope and output


def _envelope(command: str, fam: FamilySpec, source: str, seed: int) -> dict:
    return {
        "schema": SCHEMA,
        "tool": {"name": "flatunitary", "version": __version__},
        "command": command,
        "input": {
            "source": source,
            "family": print_family(fam),
            "degree": fam.degree,
            "genus": fam.genus,
        },
        "seed": seed,
    }


def _render(obj, indent: int = 0) -> str:
    """Deterministic JSON with short collections kept on one line."""
    compact = json.dumps(obj, separators=(", ", ": "))
    if len(compact) + 2 * indent <= 78:
        return compact
    pad = "  " * (indent + 1)
    close = "  " * indent
    if isinstance(obj, dict):
        rows = [f"{pad}{json.dumps(k)}: {_render(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + close + "}"
    if isinstance(obj, list):
        rows = [f"{pad}{_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + close + "]"
    return compact


def _emit(report: dict, output) -> None:
    text = _render(report) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    # atomic replace so readers never observe a half-written report
    target = os.path.abspath(output)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".flatunitary-")
    try:
        # mkstemp makes the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# argument handling


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit value")
    return value


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flatunitary",
        description=(
            "Exact rank and fibre computations for the flat unitary "
            "subbundle of a one-parameter family of smooth plane curves."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_text, _, chain) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("family", help="path to a family file, or the polynomial itself inline")
        p.add_argument(
            "--t0",
            type=_fraction_arg,
            metavar="p/q",
            help="basepoint in the t-line (default: searched by seed)",
        )
        if chain:
            p.add_argument(
                "--mode", choices=("ratfun", "jet"), help="rank computation mode (default: ratfun)"
            )
            p.add_argument(
                "--order", type=int, metavar="N", help="jet truncation order (default: 2*genus + 4)"
            )
            p.add_argument(
                "--max-level",
                type=int,
                metavar="r",
                help="deepest kernel-chain level to compute (default: genus)",
            )
        p.add_argument("--seed", type=_u64, help="basepoint search seed (default: 0)")
        p.add_argument(
            "--output",
            metavar="PATH",
            help="write the report to PATH atomically instead of stdout",
        )
    return ap


def _load_family(arg: str):
    """Resolve the positional argument to (FamilySpec, source label)."""
    if os.path.exists(arg):
        try:
            with open(arg, encoding="utf-8") as fh:
                raw = fh.read()
        except UnicodeDecodeError as exc:
            raise _InputError(f"family file is not UTF-8 text: {arg} ({exc})") from None
        lines = [ln for ln in raw.splitlines() if not ln.lstrip().startswith("#")]
        return parse_family(" ".join(lines)), arg
    if any(v in arg for v in ("Y0", "Y1", "Y2")):
        return parse_family(arg), "inline"
    raise _InputError(f"family file not found: {arg}")


# ---------------------------------------------------------------------------
# subcommands: each returns (result dict, exit code)


def _cmd_validate(fam, args):
    bp = pick_basepoint(fam, args.seed, args.t0)
    result = {
        "ok": True,
        "terms": _family_terms(fam),
        "basepoint": _frac(bp.t0),
        "rejected": _rejected_json(bp.rejected),
    }
    return result, 0


def _cmd_hodge(fam, args):
    bp = pick_basepoint(fam, args.seed, args.t0)
    dims = []
    for k in sorted(set(standard_degrees(fam.degree))):
        dims.append({"degree": k, "dim": bp.fiber.dim(k)})
    result = {
        "t0": _frac(bp.t0),
        "dimensions": dims,
        "rejected": _rejected_json(bp.rejected),
    }
    return result, 0


def _cmd_higgs(fam, args):
    pk = pointwise_kernel(fam, t0=args.t0, seed=args.seed)
    exps = pk.fiber.cobasis(fam.degree - 3)
    result = {
        "t0": _frac(pk.t0),
        "rank_theta": fam.genus - len(pk.basis),
        "kernel_dim": len(pk.basis),
        "kernel_basis": [_vector_terms(exps, v) for v in pk.basis],
        "rejected": _rejected_json(pk.rejected),
    }
    return result, 0


def _cmd_unitary_rank(fam, args):
    rk = unitary_rank(
        fam,
        mode=args.mode,
        t0=args.t0,
        order=args.order,
        max_level=args.max_level,
        seed=args.seed,
    )
    primary = rk.primary
    result = {
        "mode": primary.mode,
        "t0": None if primary.t0 is None else _frac(primary.t0),
        "order": primary.order,
        "max_level": primary.max_level,
        "ranks": list(primary.ranks),
        "rank_u": primary.rank_u,
        "sections": [_poly_terms(p) for p in primary.sections],
        "stable": rk.stable,
    }
    if rk.checks:  # jet mode: the generic ranks over Q(t) that certify it
        result["generic_ranks"] = list(rk.checks[0].ranks)
    return result, 0 if rk.stable else 4


def _cmd_mu_report(fam, args):
    rep = mu_report(
        fam,
        t0=args.t0,
        seed=args.seed,
        mode=args.mode,
        order=args.order,
        max_level=args.max_level,
    )
    # no generators below degree d-1: the cobasis of R_{d-3} is every monomial
    exps = graded_basis(fam.degree - 3)
    result = {
        "t0": _frac(rep.t0),
        "kernel_dim": rep.kernel_dim,
        "kernel_basis": [_vector_terms(exps, v) for v in rep.basis],
        "unextendable": list(rep.eta2_flags),
        "principal": _matrix_json(rep.principal),
        "best_fit": None if rep.c is None else _frac(rep.c),
        "rank_u": rep.rank_u,
        "ranks": list(rep.ranks),
        "rank_stable": rep.rank_stable,
        "inclusion_ok": rep.inclusion_ok,
    }
    return result, 0 if rep.rank_stable else 4


# name -> (help, handler, whether it takes the kernel-chain settings
# --mode, --order and --max-level)
_COMMANDS = {
    "validate": ("parse the family and search for a smooth fibre", _cmd_validate, False),
    "hodge": ("genus and graded Jacobian-ring dimensions at a smooth fibre", _cmd_hodge, False),
    "higgs": ("rank and kernel basis of the Higgs field at a basepoint", _cmd_higgs, False),
    "unitary-rank": ("kernel-chain ranks and the flat unitary rank", _cmd_unitary_rank, True),
    "mu-report": (
        "second-order pairings on the Higgs kernel at a basepoint", _cmd_mu_report, True
    ),
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a basepoint is searched, and the seed read, only without --t0;
    # unitary-rank over Q(t) has no basepoint
    if args.seed is None:
        args.seed = 0
    elif args.t0 is not None or (args.command == "unitary-rank" and args.mode != "jet"):
        print("flatunitary: --seed given where no basepoint is searched", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        fam, source = _load_family(args.family)
    except (FamilyParseError, _InputError, OSError) as exc:
        print(f"flatunitary: {exc}", file=sys.stderr)
        return 2

    report = _envelope(args.command, fam, source, args.seed)
    try:
        result, code = _COMMANDS[args.command][1](fam, args)
        report["result"] = result
    except (SingularFibreError, NoSmoothFibreError) as exc:
        rejected = getattr(exc, "rejected", ())
        report["error"] = {
            "kind": "no-smooth-fibre",
            "detail": str(exc),
            "rejected": _rejected_json(rejected),
        }
        code = 3
    except (ExactCoreError, ArithmeticError) as exc:
        if isinstance(exc, PrecisionExhaustedError):
            print(f"flatunitary: {exc}", file=sys.stderr)
            return 2
        report["error"] = {
            "kind": "exact-arithmetic",
            "exception": type(exc).__name__,
            "detail": str(exc),
        }
        code = 3
    except ValueError as exc:
        print(f"flatunitary: {exc}", file=sys.stderr)
        return 2
    report["timings"] = {"total": round(time.monotonic() - started, 6)}
    try:
        _emit(report, args.output)
    except OSError as exc:
        print(f"flatunitary: {exc}", file=sys.stderr)
        return 2
    return code


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
