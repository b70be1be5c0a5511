"""Command-line interface: exit codes, report shape, determinism."""

import json
import os
import re
import stat
import subprocess
import sys

import pytest

import flatunitary
from flatunitary import cli, unitary
from flatunitary.exactcore import ExactCoreError
from flatunitary.gaussmanin import NotKernelSectionError
from flatunitary.jacobian import JacobianFiber

MIX = "Y0^4+Y1^4+Y2^4+T*Y0^2*Y1^2"
SEPTIC = "Y0^7+Y1^7+Y2^7+T*Y0^3*Y1^4"
RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


_RATFUN_RANK_KEYS = [
    "mode", "t0", "order", "max_level", "ranks", "rank_u", "sections", "stable"
]
_HIGGS_KEYS = ["t0", "rank_theta", "kernel_dim", "kernel_basis", "rejected"]
_VALIDATE_KEYS = ["ok", "terms", "basepoint", "rejected"]

# (report block, its keys in order) of each bundled fixture report under
# the flatunitary-report/2 schema
FIXTURE_KEYS = {
    "tfree_quartic.unitary-rank": ("result", _RATFUN_RANK_KEYS),
    "fermat_mix.validate": ("result", _VALIDATE_KEYS),
    "fermat_mix.hodge": ("result", ["t0", "dimensions", "rejected"]),
    "fermat_mix.higgs": ("result", _HIGGS_KEYS),
    "fermat_mix.unitary-rank": ("result", _RATFUN_RANK_KEYS),
    "fermat_mix.unitary-rank-jet": ("result", _RATFUN_RANK_KEYS + ["generic_ranks"]),
    "hesse.higgs": ("result", _HIGGS_KEYS),
    "hesse.unitary-rank": ("result", _RATFUN_RANK_KEYS),
    "cusp.validate": ("error", ["kind", "detail", "rejected"]),
    "fermat_mix_tt.mu-report": (
        "result",
        [
            "t0", "kernel_dim", "kernel_basis", "unextendable", "principal",
            "best_fit", "rank_u", "ranks", "rank_stable", "inclusion_ok",
        ],
    ),
}


def run_to_dict(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.run([*args, "--output", str(out)])
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), code


class TestExitCodes:
    def test_success(self, tmp_path):
        _, code = run_to_dict(["validate", MIX], tmp_path)
        assert code == 0

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["frobnicate", MIX])
        assert exc.value.code == 2

    def test_missing_file(self, capsys):
        assert cli.run(["higgs", "no_such_file.fam"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_parse_error(self, capsys):
        assert cli.run(["validate", "Y0^4 + Y1^3"]) == 2
        assert "homogeneous" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["Y0^3+Y1^3+Y2^\u00b2", "1" * 5000 + "*Y0^3+Y1^3+Y2^3"],
        ids=["superscript", "long-numerator"],
    )
    def test_literal_outside_the_grammar_is_input_error(self, text, capsys):
        assert cli.run(["validate", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("flatunitary: ") and "Traceback" not in err

    def test_huge_t_power_is_input_error(self, capsys):
        # refused while parsing, before a dense T-coefficient list is built
        assert cli.run(["validate", "Y0^3+Y1^3+Y2^3+T^1000000000*Y0^3"]) == 2
        err = capsys.readouterr().err
        assert "T power 1000000000 is above 1000" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fermat_mix.fam", "--max-level", "1000000"], "max_level 1000000 is above 10000"),
            (
                ["Y0^4+Y1^4+Y2^4", "--mode", "jet", "--order", "1000000000"],
                "jet order 1000000000 is above 10000",
            ),
        ],
    )
    def test_huge_chain_settings_are_input_errors(self, argv, message, tmp_path, capsys):
        # refused before any fibre is built: every level would be walked
        # and every jet order expanded
        family, *rest = argv
        if family.endswith(".fam"):
            family = flatunitary.fixture_path(family)
        out = tmp_path / "r.json"
        assert cli.run(["unitary-rank", family, *rest, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_non_utf8_family_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.fam"
        bad.write_bytes(b"\xff\xfeY\x000\x00^\x004\x00")  # UTF-16 with a BOM
        assert cli.run(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("flatunitary: ")
        assert "not UTF-8" in err and str(bad) in err

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.json"
        assert cli.run(["validate", MIX, "--output", str(target)]) == 2
        assert capsys.readouterr().err.startswith("flatunitary: ")
        assert not target.parent.exists()

    def test_bad_order(self, capsys):
        assert cli.run(["unitary-rank", MIX, "--mode", "jet", "--order", "0"]) == 2

    @pytest.mark.parametrize("command", ["unitary-rank", "mu-report"])
    def test_order_outside_jet_mode_is_input_error(self, command, tmp_path, capsys):
        # the default mode is ratfun, which has no jet order to honour
        out = tmp_path / "r.json"
        assert cli.run([command, MIX, "--order", "8", "--output", str(out)]) == 2
        assert "mode 'jet'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "hodge", "higgs"])
    @pytest.mark.parametrize(
        "flag", [["--mode", "jet"], ["--order", "8"], ["--max-level", "2"]]
    )
    def test_chain_settings_refused_where_unread(self, command, flag, capsys):
        # only unitary-rank and mu-report walk the kernel chain
        with pytest.raises(SystemExit) as exc:
            cli.run([command, MIX, "--t0", "1", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_basepoint_outside_jet_mode_is_input_error(self, tmp_path, capsys):
        # t = 2 is a singular fibre of MIX, which ratfun mode never reads
        out = tmp_path / "r.json"
        assert cli.run(["unitary-rank", MIX, "--t0", "2", "--output", str(out)]) == 2
        assert "mode 'jet'" in capsys.readouterr().err
        assert not out.exists()

    def test_order_in_jet_mode_is_honoured(self, tmp_path):
        report, code = run_to_dict(
            ["unitary-rank", MIX, "--mode", "jet", "--order", "8"], tmp_path
        )
        assert code == 0
        assert report["result"]["order"] == 8

    def test_bad_seed_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["validate", MIX, "--seed", str(2**64)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "fermat_mix.fam", "--t0", "1"],
            ["unitary-rank", "fermat_mix.fam"],  # ratfun: no basepoint at all
            ["mu-report", "fermat_mix_tt.fam", "--t0", "0"],
            # a given basepoint is the only one, in jet mode too
            ["unitary-rank", "fermat_mix.fam", "--mode", "jet", "--t0", "1"],
            ["mu-report", "fermat_mix_tt.fam", "--mode", "jet", "--t0", "0"],
        ],
    )
    def test_seed_refused_where_no_basepoint_is_searched(self, argv, tmp_path, capsys):
        command, fam, *rest = argv
        out = tmp_path / "r.json"
        argv = [command, flatunitary.fixture_path(fam), *rest, "--seed", "5"]
        assert cli.run([*argv, "--output", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["higgs", "fermat_mix.fam", "--seed", "9"],
            ["unitary-rank", "fermat_mix.fam", "--mode", "jet", "--seed", "5"],
            ["mu-report", "fermat_mix_tt.fam", "--mode", "jet", "--seed", "5"],
        ],
    )
    def test_seed_accepted_where_a_basepoint_is_searched(self, argv, tmp_path):
        command, fam, *rest = argv
        report, code = run_to_dict([command, flatunitary.fixture_path(fam), *rest], tmp_path)
        assert code == 0
        assert report["seed"] == int(argv[-1])

    def test_bad_t0_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["higgs", MIX, "--t0", "one-half"])
        assert exc.value.code == 2

    def test_singular_basepoint(self, tmp_path):
        report, code = run_to_dict(["higgs", MIX, "--t0", "2"], tmp_path)
        assert code == 3
        assert report["error"]["kind"] == "no-smooth-fibre"
        assert "result" not in report

    @pytest.mark.parametrize(
        "argv",
        [["validate"], ["hodge"], ["higgs"], ["mu-report"], ["unitary-rank", "--mode", "jet"]],
    )
    def test_zero_fibre_at_given_basepoint(self, argv, tmp_path):
        # a valid family whose fibre at t = 0 is the zero form
        family = "T*Y0^4 + T*Y1^4 + T*Y2^4"
        report, code = run_to_dict([argv[0], family, "--t0", "0", *argv[1:]], tmp_path)
        assert code == 3
        assert report["error"]["kind"] == "no-smooth-fibre"
        assert "dim R_7 = 36" in report["error"]["detail"]

    def test_validate_prepares_no_graded_degree(self, monkeypatch, tmp_path):
        # building a fibre runs only its smoothness certificate
        prepared = []
        real = JacobianFiber._prepare_degree

        def spy(fiber, k):
            prepared.append(k)
            return real(fiber, k)

        monkeypatch.setattr(JacobianFiber, "_prepare_degree", spy)
        _, code = run_to_dict(["validate", MIX], tmp_path)
        assert code == 0
        assert prepared == []

    def test_family_without_smooth_fibre(self, tmp_path):
        report, code = run_to_dict(["validate", "Y1^2*Y2 - Y0^3"], tmp_path)
        assert code == 3
        assert len(report["error"]["rejected"]) == 301

    def test_unstable_result_maps_to_four(self, monkeypatch, tmp_path):
        real = cli.unitary_rank

        def wobbly(*args, **kwargs):
            rk = real(*args, **kwargs)
            object.__setattr__(rk, "stable", False)
            return rk

        monkeypatch.setattr(cli, "unitary_rank", wobbly)
        report, code = run_to_dict(
            ["unitary-rank", MIX, "--mode", "jet"], tmp_path
        )
        assert code == 4
        assert report["result"]["stable"] is False

    def test_best_fit_zero_when_principal_is_nonzero(self, tmp_path):
        family = "Y0^6+Y1^6+Y2^6+3*T*Y0^4*Y1^2+3*T^2*Y0^2*Y1^4"
        report, code = run_to_dict(["mu-report", family, "--t0", "-85"], tmp_path)
        assert code == 0
        assert report["result"]["kernel_dim"] == 7
        assert report["result"]["best_fit"] == "0"

    def test_uncertified_jet_ranks_exit_four(self, tmp_path):
        # at t = 0 the jet chain keeps a level-1 section the generic chain
        # over Q(t) does not have, so the ranks are not certified
        family = "Y0^5 + Y1^5 + Y2^5 + 2*T^3*Y0^3*Y1*Y2 + 2*T^2*Y0*Y2^4"
        report, code = run_to_dict(
            ["unitary-rank", family, "--mode", "jet", "--t0", "0", "--max-level", "2"],
            tmp_path,
        )
        assert code == 4
        result = report["result"]
        assert result["ranks"] == [1, 0] and result["stable"] is False
        assert result["generic_ranks"] == [0, 0]


class TestExactCoreFailures:
    """Failures of the exact core end in exit 3 and an error block, not a
    traceback or an input error."""

    @staticmethod
    def _raise(exc):
        def broken(*args, **kwargs):
            raise exc

        return broken

    @pytest.mark.parametrize(
        "target,exc",
        [
            (
                "_verify_chain",
                ExactCoreError("filtration invariant violated: final theta-condition nonzero"),
            ),
            (
                "gm_derivative",
                NotKernelSectionError("degree-5 form is not in the partials ideal"),
            ),
            ("_stacked_kernel", ArithmeticError("inexact division in elimination")),
        ],
        ids=["verify-chain", "not-kernel-section", "arithmetic"],
    )
    def test_maps_to_three_with_an_error_block(self, monkeypatch, tmp_path, target, exc):
        monkeypatch.setattr(unitary, target, self._raise(exc))
        if target == "_stacked_kernel":
            argv = ["unitary-rank", MIX, "--mode", "jet"]
        else:
            # differentiated and verified sections are active ones; the
            # septic keeps two to level 2
            argv = ["unitary-rank", SEPTIC, "--mode", "ratfun", "--max-level", "2"]
        report, code = run_to_dict(argv, tmp_path)
        assert code == 3
        assert "result" not in report
        assert report["error"] == {
            "kind": "exact-arithmetic",
            "exception": type(exc).__name__,
            "detail": str(exc),
        }

    @pytest.mark.parametrize("target", ["_verify_chain", "gm_derivative"])
    def test_faults_never_reached_on_inert_sections(self, monkeypatch, tmp_path, target):
        # every final section of the quartic is inert: none is
        # differentiated past level 1 or verified, so the faults never fire
        monkeypatch.setattr(unitary, target, self._raise(ExactCoreError("unreached")))
        report, code = run_to_dict(["unitary-rank", MIX, "--mode", "ratfun"], tmp_path)
        assert code == 0
        assert report["result"]["ranks"] == [2, 2, 2]

    def test_exhausted_precision_stays_an_input_error(self, capsys):
        argv = ["unitary-rank", MIX, "--mode", "jet", "--order", "2", "--max-level", "3"]
        assert cli.run(argv) == 2
        assert "cannot support 3 levels" in capsys.readouterr().err


class TestReportShape:
    def test_envelope_key_order(self, tmp_path):
        report, _ = run_to_dict(["hodge", MIX, "--t0", "1"], tmp_path)
        assert list(report) == [
            "schema",
            "tool",
            "command",
            "input",
            "seed",
            "result",
            "timings",
        ]
        assert report["schema"] == "flatunitary-report/2"
        assert report["tool"] == {
            "name": "flatunitary",
            "version": flatunitary.__version__,
        }

    @pytest.mark.parametrize("stem", [r[0] for r in cli.FIXTURE_RUNS])
    def test_fixture_result_keys_are_pinned(self, stem):
        # a key added, dropped or moved changes the report schema, so it
        # must come with an edit of FIXTURE_KEYS, never by accident
        fixdir = os.path.dirname(flatunitary.fixture_path("fermat_mix.fam"))
        with open(os.path.join(fixdir, "expected", f"{stem}.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        block, keys = FIXTURE_KEYS[stem]
        assert report["schema"] == cli.SCHEMA == "flatunitary-report/2"
        assert list(report[block]) == keys

    def test_rationals_are_strings(self, tmp_path):
        report, _ = run_to_dict(["higgs", MIX, "--t0", "1"], tmp_path)
        result = report["result"]
        assert RATIONAL_RE.match(result["t0"])
        for row in result["kernel_basis"]:
            for term in row:
                assert RATIONAL_RE.match(term["c"])
                assert len(term["e"]) == 3

    def test_function_field_scalars_as_coefficient_lists(self, tmp_path):
        report, _ = run_to_dict(["unitary-rank", MIX], tmp_path)
        section_term = report["result"]["sections"][0][0]
        assert set(section_term["c"]) == {"num", "den"}

    def test_jet_scalars_list_their_orders(self, tmp_path):
        report, _ = run_to_dict(
            ["unitary-rank", MIX, "--mode", "jet", "--order", "4"], tmp_path
        )
        section_term = report["result"]["sections"][0][0]
        assert list(section_term["c"]) == ["jet"]
        assert len(section_term["c"]["jet"]) == 4

    def test_inline_source_echo(self, tmp_path):
        report, _ = run_to_dict(["validate", MIX], tmp_path)
        assert report["input"]["source"] == "inline"
        assert report["input"]["family"] == "Y0^4 + T*Y0^2*Y1^2 + Y1^4 + Y2^4"

    def test_file_comments_are_ignored(self, tmp_path):
        fam_file = tmp_path / "boxed.fam"
        fam_file.write_text("# a comment line\nY0^3 + Y1^3 + Y2^3 + T*Y0*Y1*Y2\n")
        report, code = run_to_dict(["validate", str(fam_file)], tmp_path)
        assert code == 0
        assert report["input"]["source"].endswith("boxed.fam")


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["validate", MIX],
            ["hodge", MIX, "--t0", "1"],
            ["higgs", MIX, "--seed", "9"],
            ["unitary-rank", MIX, "--mode", "jet", "--order", "6"],
        ],
        ids=["validate", "hodge", "higgs", "unitary-rank"],
    )
    def test_repeat_runs_identical_modulo_timings(self, args, tmp_path):
        texts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            cli.run([*args, "--output", str(out)])
            report = json.loads(out.read_text())
            del report["timings"]
            texts.append(cli._render(report))
        assert texts[0] == texts[1]


class TestFixtureReports:
    @pytest.mark.parametrize(
        "stem,argv,want_code", cli.FIXTURE_RUNS, ids=[r[0] for r in cli.FIXTURE_RUNS]
    )
    def test_matches_bundled_expectation(self, stem, argv, want_code, tmp_path, monkeypatch):
        self._check(stem, argv, want_code, tmp_path, monkeypatch)

    def test_mu_report_builds_no_fibre_of_its_own(self, tmp_path, monkeypatch):
        # one certified basepoint, the pointwise kernel's, serves the
        # whole report: the front end and unitary_rank pick none
        def refuse(*args, **kwargs):
            raise AssertionError("mu-report rebuilt a fibre")

        picks = []
        real = unitary.pick_basepoint
        monkeypatch.setattr(cli, "pick_basepoint", refuse)
        monkeypatch.setattr(unitary, "pick_basepoint", lambda *a: picks.append(a) or real(*a))
        stem, argv, want_code = cli.FIXTURE_RUNS[-1]
        assert argv[0] == "mu-report"
        self._check(stem, argv, want_code, tmp_path, monkeypatch)
        assert len(picks) == 1

    @staticmethod
    def _check(stem, argv, want_code, tmp_path, monkeypatch):
        fixdir = os.path.dirname(flatunitary.fixture_path("fermat_mix.fam"))
        monkeypatch.chdir(fixdir)
        out = tmp_path / "report.json"
        code = cli.run([*argv, "--output", str(out)])
        assert code == want_code
        report = json.loads(out.read_text())
        del report["timings"]
        expected = os.path.join(fixdir, "expected", f"{stem}.json")
        with open(expected, encoding="utf-8") as fh:
            assert cli._render(report) + "\n" == fh.read()


class TestOutputHandling:
    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "report.json"
        cli.run(["validate", MIX, "--output", str(out)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_report_file_mode_follows_the_umask(self, tmp_path):
        out = tmp_path / "report.json"
        old = os.umask(0o022)
        try:
            assert cli.run(["validate", MIX, "--output", str(out)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_stdout_when_no_output_given(self, capsys):
        code = cli.run(["validate", MIX])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "validate"

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flatunitary.cli", "validate", MIX],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["ok"] is True


def test_fixture_path_resolves():
    path = flatunitary.fixture_path("hesse.fam")
    assert os.path.exists(path)
