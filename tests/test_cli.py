import json

import pytest

from curvshell.bounds import quotient_bound, width_bound
from curvshell.cli import main
from curvshell.geometry import PinchSpec

from conftest import FLAT, SPHERE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_values(out):
    vals = {}
    for line in out.strip().split("\n"):
        name, _, value = line.rpartition(" ")
        vals[name] = float(value)
    return vals


class TestBoundCommand:
    def test_flat_values(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--flat", "--k1", "1", "--k2", "2")
        assert code == 0
        vals = parse_values(out)
        assert vals["width_bound"] == pytest.approx(0.207106781, abs=1e-9)
        assert vals["quotient_bound"] == float(f"{4.0 / 3.0:.9g}")
        assert vals["quotient_bound_coarse"] == 2.0

    def test_degenerate(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--flat", "--k1", "2", "--k2", "2")
        assert code == 0
        vals = parse_values(out)
        assert vals["width_bound"] == 0.0
        assert vals["quotient_bound"] == 1.0

    def test_inadmissible_hyperbolic(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--hyperbolic", "1", "--k1", "1", "--k2", "2")
        assert code != 0
        assert "kappa1" in err and "sqrt(-c)" in err

    def test_printed_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--spherical", "1", "--k1", "1", "--k2", "2")
        assert code == 0
        vals = parse_values(out)
        wb = width_bound(SPHERE, PinchSpec.from_curvatures(SPHERE, 1.0, 2.0))
        assert vals["width_bound"] == float(f"{wb.bound:.9g}")
        assert vals["width_maximizer_r"] == float(f"{wb.maximizer_r:.9g}")

    def test_outer_radius_and_json(self, capsys, tmp_path):
        path = tmp_path / "bound.json"
        code, out, _ = run_cli(capsys, "bound", "--flat", "--k1", "1", "--k2", "2",
                               "--r", "0.75", "--json", str(path))
        assert code == 0
        rec = json.loads(path.read_text())
        assert rec["outer_radius_bound"] == pytest.approx(0.9330127018922193, abs=1e-15)
        assert rec["width_bound"] == width_bound(FLAT, PinchSpec.from_curvatures(FLAT, 1, 2)).bound


class TestSpindleCommand:
    def test_values_and_files(self, capsys, tmp_path):
        csv = tmp_path / "profile.csv"
        svg = tmp_path / "profile.svg"
        code, out, _ = run_cli(capsys, "spindle", "--flat", "--k1", "1", "--k2", "2",
                               "--r", "0.6", "--csv", str(csv), "--svg", str(svg))
        assert code == 0
        vals = parse_values(out)
        assert vals["r_tilde"] == 0.6
        assert vals["R_tilde"] == pytest.approx(0.8, abs=1e-9)
        assert vals["width"] == pytest.approx(0.2, abs=1e-9)
        assert vals["quotient"] == float(f"{4.0 / 3.0:.9g}")
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "x,y,kappa"
        assert len(lines) == 1025
        svg_text = svg.read_text()
        assert svg_text.startswith("<svg") and "viewBox" in svg_text

    def test_circle_limit(self, capsys):
        code, out, _ = run_cli(capsys, "spindle", "--flat", "--k1", "1", "--k2", "2", "--r", "1.0")
        assert code == 0
        assert parse_values(out)["width"] == 0.0

    def test_max_width_sentinel(self, capsys):
        code, out, _ = run_cli(capsys, "spindle", "--spherical", "1",
                               "--k1", "1", "--k2", "2", "--r", "max-width")
        assert code == 0
        wb = width_bound(SPHERE, PinchSpec.from_curvatures(SPHERE, 1.0, 2.0))
        assert parse_values(out)["width"] == pytest.approx(wb.bound, abs=1e-9)

    def test_max_quotient_sentinel(self, capsys):
        code, out, _ = run_cli(capsys, "spindle", "--flat", "--k1", "1", "--k2", "2",
                               "--r", "max-quotient")
        assert code == 0
        qb = quotient_bound(PinchSpec.from_curvatures(FLAT, 1.0, 2.0))
        assert parse_values(out)["quotient"] == pytest.approx(qb.bound, abs=5e-9)

    def test_out_of_range_r(self, capsys):
        code, _, err = run_cli(capsys, "spindle", "--flat", "--k1", "1", "--k2", "2", "--r", "0.2")
        assert code == 1
        assert "range" in err


class TestVerifyCommand:
    def test_random_batch(self, capsys, tmp_path):
        report = tmp_path / "report.jsonl"
        summary = tmp_path / "summary.csv"
        code, out, _ = run_cli(capsys, "verify", "--flat", "--k1", "1", "--k2", "2",
                               "--seeds", "0..19", "--report", str(report),
                               "--summary", str(summary))
        assert code == 0
        assert "20/20 satisfied" in out
        lines = report.read_text().strip().split("\n")
        assert len(lines) == 20
        rec = json.loads(lines[7])
        assert rec["seed"] == 7
        assert rec["satisfied"]["width"] is True
        header = summary.read_text().split("\n")[0]
        assert "worst_width_margin" in header

    def test_degenerate_pinch_widths_vanish(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--flat", "--k1", "1", "--k2", "1",
                               "--seeds", "0..9")
        assert code == 0
        vals = parse_values("\n".join(l for l in out.split("\n") if l.startswith("max_width")))
        assert vals["max_width"] < 1e-9

    def test_spindle_family(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--flat", "--k1", "1", "--k2", "2",
                               "--family", "spindle", "--grid", "9")
        assert code == 0
        assert "9/9 satisfied" in out
        # sharp family: outer margin is ~0 but not negative beyond slack
        vals = parse_values("\n".join(l for l in out.split("\n") if "worst_outer" in l))
        assert abs(vals["worst_outer_margin"]) <= 1e-6

    def test_spindle_family_at_large_curvatures(self, capsys):
        # exactly pinched spindles pass where 1 / r1 rounds below kappa1
        code, out, err = run_cli(capsys, "verify", "--flat", "--k1", "1e9", "--k2", "2e9",
                                 "--family", "spindle", "--grid", "5")
        assert code == 0, err
        assert "5/5 satisfied" in out

    def test_spindle_family_at_a_wide_pinch_ratio(self, capsys):
        # the spindles' joins stay tangent, so their arc bodies are accepted
        code, out, err = run_cli(capsys, "verify", "--flat", "--k1", "1", "--k2", "1e8",
                                 "--family", "spindle")
        assert code == 0, err
        assert "33/33 satisfied" in out

    def test_curved_family(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--hyperbolic", "1", "--k1", "2", "--k2", "3",
                               "--family", "spindle", "--grid", "7")
        assert code == 0
        assert "7/7 satisfied" in out

    def test_curved_random_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--spherical", "1", "--k1", "1", "--k2", "2",
                               "--seeds", "0..3")
        assert code == 1
        assert "flat-only" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--flat", "--k1", "1", "--k2", "2", "--seeds", "0..5")
        _, out2, _ = run_cli(capsys, "verify", "--flat", "--k1", "1", "--k2", "2", "--seeds", "0..5")
        assert out1 == out2

    def test_deterministic_report_bytes(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(capsys, "verify", "--flat", "--k1", "1", "--k2", "2", "--seeds", "0..5",
                "--report", str(p1))
        run_cli(capsys, "verify", "--flat", "--k1", "1", "--k2", "2", "--seeds", "0..5",
                "--report", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_bytes_independent_of_jobs(self, capsys, tmp_path):
        # 8 seeds are less than half a stack per process, so every jobs
        # checks them in the calling process alone
        reports = []
        for jobs in (1, 2, 3):
            path = tmp_path / f"jobs{jobs}.jsonl"
            code, _, _ = run_cli(capsys, "verify", "--flat", "--k1", "1", "--k2", "2",
                                 "--seeds", "0..7", "--jobs", str(jobs), "--report", str(path))
            assert code == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1] == reports[2]


class TestBadInput:
    @pytest.mark.parametrize("argv,needle", [
        (["spindle", "--flat", "--k1", "1", "--k2", "2", "--r", "nan"], "range"),
        (["bound", "--spherical", "inf", "--k1", "1", "--k2", "2"], "supported range"),
        (["bound", "--flat", "--k1", "1", "--k2", "inf"], "finite"),
        (["bound", "--flat", "--k1", "1", "--k2", "2", "--r", "nan"], "range"),
        (["verify", "--hyperbolic", "1e-300", "--k1", "2", "--k2", "3",
          "--family", "spindle", "--grid", "3"], "supported range"),
        (["verify", "--flat", "--k1", "1e-300", "--k2", "1", "--seeds", "0..0"],
         "supported range"),
        (["verify", "--flat", "--k1", "1e-200", "--k2", "1", "--seeds", "0..0"],
         "supported range"),
        (["verify", "--flat", "--k1", "1", "--k2", "2", "--seeds", "5..1"],
         "empty seed range 5..1"),
        (["verify", "--flat", "--k1", "1", "--k2", "2", "--family", "spindle", "--grid", "0"],
         "--grid must be at least 1"),
        (["verify", "--spherical", "1", "--k1", "1", "--k2", "2", "--family", "spindle",
          "--grid", "-3"], "--grid must be at least 1"),
        (["verify", "--flat", "--k1", "1", "--k2", "2", "--seeds", "0..3", "--jobs", "0"],
         "--jobs must be at least 1"),
        (["verify", "--flat", "--k1", "1", "--k2", "2", "--seeds", "0..3", "--jobs", "-2"],
         "--jobs must be at least 1"),
        (["verify", "--flat", "--k1", "1", "--k2", "2", "--modes", "1024", "--seeds", "0..0"],
         "modes must be at most 1023"),
        (["verify", "--flat", "--k1", "1", "--k2", "2", "--seeds", "x"],
         "--seeds must be an integer or a range A..B (got 'x')"),
        (["verify", "--flat", "--k1", "1", "--k2", "2", "--seeds", "0..y"],
         "--seeds must be an integer or a range A..B (got '0..y')"),
        (["spindle", "--flat", "--k1", "1", "--k2", "2", "--r", "0.7", "--samples", "0"],
         "--samples must be at least 1 (got 0)"),
    ])
    def test_rejected(self, capsys, argv, needle):
        # refused before any result is printed
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert needle in err
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["bound", "--flat", "--k1", "1", "--k2", "2", "--json"],
        ["spindle", "--flat", "--k1", "1", "--k2", "2", "--r", "0.7", "--samples", "16", "--csv"],
        ["spindle", "--flat", "--k1", "1", "--k2", "2", "--r", "0.7", "--samples", "16", "--svg"],
        ["spindle", "--flat", "--k1", "1", "--k2", "2", "--r", "0.7", "--json"],
        ["verify", "--flat", "--k1", "1", "--k2", "2", "--seeds", "0..2", "--report"],
        ["verify", "--flat", "--k1", "1", "--k2", "2", "--seeds", "0..2", "--summary"],
    ])
    def test_unwritable_output_path(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out"
        code, _, err = run_cli(capsys, *argv, str(path))
        assert code == 1
        assert f"error: cannot write {path}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value,needle", [
        ("abc", "CURVSHELL_JOBS must be an integer (got 'abc')"),
        ("1.5", "CURVSHELL_JOBS must be an integer"),
        ("0", "CURVSHELL_JOBS must be at least 1 (got 0)"),
        ("-2", "CURVSHELL_JOBS must be at least 1 (got -2)"),
    ])
    def test_bad_jobs_env(self, capsys, monkeypatch, value, needle):
        monkeypatch.setenv("CURVSHELL_JOBS", value)
        code, _, err = run_cli(capsys, "verify", "--flat", "--k1", "1", "--k2", "2",
                               "--seeds", "0..1")
        assert code == 1
        assert needle in err
        assert "Traceback" not in err

    def test_jobs_env_read_only_when_used(self, capsys, monkeypatch):
        # an explicit --jobs wins, and bound has no workers to configure
        monkeypatch.setenv("CURVSHELL_JOBS", "abc")
        code, out, _ = run_cli(capsys, "verify", "--flat", "--k1", "1", "--k2", "2",
                               "--seeds", "0..1", "--jobs", "1")
        assert code == 0 and "2/2 satisfied" in out
        code, out, _ = run_cli(capsys, "bound", "--flat", "--k1", "1", "--k2", "2")
        assert code == 0 and "width_bound" in out

    @pytest.mark.parametrize("argv,needle", [
        (["verify", "--flat", "--k1", "1", "--k2", "2", "--grid", "x"],
         "argument --grid: invalid int value: 'x'"),
        (["verify", "--flat", "--k1", "1", "--seeds", "0..1"],
         "the following arguments are required: --k2"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_error_exits_1(self, capsys, argv, needle):
        # exit code 2 is kept for a found bound violation
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: curvshell") and needle in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "CURVSHELL_JOBS" in capsys.readouterr().out

    def test_tiny_scale_in_range(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--flat", "--k1", "1e150", "--k2", "2e150",
                               "--seeds", "0..0")
        assert code == 0
        assert "1/1 satisfied" in out
