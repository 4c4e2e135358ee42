import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cygshell import arith, cli, counting, gapwidth, spectra, stats
from cygshell.cli import ExperimentConfig, main


def test_count_brute(capsys):
    assert main(["count", "--x", "1/1", "--method", "brute"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_count_fast(capsys):
    assert main(["count", "--x", "1/2", "--method", "fast"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_count_both_agree(capsys):
    assert main(["count", "--x", "2/1", "--method", "both"]) == 0
    assert capsys.readouterr().out == "69 (methods agree)\n"


@pytest.mark.parametrize("texts", [("3", "3.0", "3/1", "192/64"), ("2.5", "5/2")])
@pytest.mark.parametrize("method", ["fast", "brute", "both"])
def test_count_radius_spellings_print_one_line(capsys, texts, method):
    # a decimal --x snaps to the nearest 1/64, which names the same radius as the ratio
    lines = set()
    for text in texts:
        assert main(["count", "--x", text, "--method", method]) == 0
        lines.add(capsys.readouterr().out)
    assert len(lines) == 1


def test_count_both_reports_a_disagreement(monkeypatch, capsys):
    monkeypatch.setattr(cli.counting, "count_ball_fast", lambda x, r2: 70)
    assert main(["count", "--x", "2/1", "--method", "both"]) == cli.EXIT_TEST_FAILURE
    assert capsys.readouterr().out == "DISAGREEMENT: fast=70 brute=69\n"


def test_count_bad_radius_exits_2(capsys):
    assert main(["count", "--x", "0/1"]) == cli.EXIT_USAGE
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["nan", "inf", "1e400"])
def test_count_non_finite_radius_exits_2(capsys, text):
    assert main(["count", "--x", text]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--x" in err


@pytest.mark.parametrize("text", ["abc", "3/x"])
def test_count_malformed_radius_exits_2(capsys, text):
    assert main(["count", "--x", text]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--x" in err and repr(text) in err


def test_selftest_passes(capsys, monkeypatch):
    tables, build_r2 = [], arith.build_r2
    monkeypatch.setattr(arith, "build_r2", lambda limit: tables.append(build_r2(limit)) or tables[-1])
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out
    assert tables and not any("values" in table.__dict__ for table in tables)


def test_selftest_fails_under_optimize_with_a_faulty_kernel():
    # python -O strips assert statements; the selftest must still see N + 1
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = (f"import sys; sys.path.insert(0, {src!r}); from cygshell import cli, counting; "
              "fast = counting.count_ball_fast; "
              "counting.count_ball_fast = lambda x, r2: fast(x, r2) + 1; "
              "sys.exit(cli.main(['selftest']))")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == cli.EXIT_TEST_FAILURE, proc.stdout + proc.stderr
    assert "FAIL counting_fixtures" in proc.stdout


def test_exactness_cap_fails_before_table(tmp_path, monkeypatch, capsys):
    # the top point of this grid, 16387.27, snaps its outer radius past 2^26
    def build_r2(limit):
        raise AssertionError(f"build_r2({limit}) called before the cap check")

    monkeypatch.setattr(arith, "build_r2", build_r2)
    argv = ["sample", "--X", "8200", "--samples", "100", "--out", str(tmp_path)]
    assert main(argv) == cli.EXIT_USAGE
    assert "exactness cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["count", "--x", "24000/1"],
    ["sample", "--mode", "exact", "--Q", "8", "--X", "12000", "--samples", "100"],
], ids=["count", "sample-exact"])
def test_float_exactness_bound_fails_before_table(tmp_path, monkeypatch, capsys, argv):
    # both radii lie past x ~ 23 700, where the kernel's float error bound
    # reaches a quarter of the fixup band, but below the 2^26 numerator cap
    def build_r2(limit):
        raise AssertionError(f"build_r2({limit}) called before the bound check")

    monkeypatch.setattr(arith, "build_r2", build_r2)
    if argv[0] == "sample":
        argv = argv + ["--out", str(tmp_path)]
    assert main(argv) == cli.EXIT_USAGE
    assert "exactness bound" in capsys.readouterr().err


# omega = 100 / log^2 x runs from about 19 down to 11 on (10, 20), so outer
# radii reach about 31: past the (2X + 2)^2 = 484 table of a size guessed from X
_WIDE_GAP_SPEC = {"kind": "product", "polys": [[[10, 0]]], "lambdas": [1.0], "A": 2}


@pytest.mark.parametrize("command", [["sample", "--mode", "exact"], ["expand"]],
                         ids=["sample-exact", "expand"])
def test_exact_table_reaches_exactly_the_largest_outer_radius(tmp_path, monkeypatch, command):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_WIDE_GAP_SPEC))
    built, build_r2 = [], arith.build_r2
    monkeypatch.setattr(arith, "build_r2", lambda limit: built.append(limit) or build_r2(limit))
    rows, sample_shells = [], stats.sample_shells
    monkeypatch.setattr(stats, "sample_shells", lambda *a: rows.extend(sample_shells(*a)) or rows)
    assert main(command + ["--omega-spec", str(spec), "--X", "10", "--samples", "20",
                           "--out", str(tmp_path / "out")]) == 0
    assert len(rows) == 20
    shift = counting.OUTER_REFINE_SHIFT
    outers = []
    for s in rows:  # x = k/64 and the gap (ko - 64k)/4096, both exact in float64
        inner = counting.RadiusPoint(round(s.x * 64), 64)
        outer = counting.RadiusPoint((inner.k << shift) + round(s.omega_x * (64 << shift)),
                                     64 << shift)
        assert outer.value < 60
        assert s.shell_count == counting.count_ball_brute(outer) - counting.count_ball_brute(inner)
        outers.append(outer)
    assert built == [max(o.floor_sq for o in outers)]


def test_fast_table_reaches_the_series_cutoff(tmp_path, monkeypatch):
    built, build_r2 = [], arith.build_r2
    monkeypatch.setattr(arith, "build_r2", lambda limit: built.append(limit) or build_r2(limit))
    assert main(["sample", "--mode", "fast", "--X", "30", "--samples", "20",
                 "--out", str(tmp_path)]) == 0
    assert built == [stats.fast_cutoff(30.0)] == [10_000]


# the commands that take a gap width on a grid or a scan, and their size flags
_GRID_COMMANDS = {
    "sample-exact": ["sample", "--mode", "exact", "--samples", "20"],
    "sample-fast": ["sample", "--mode", "fast", "--samples", "20"],
    "moments-fast": ["moments", "--mode", "fast", "--samples", "20"],
    "expand": ["expand", "--samples", "20"],
    "diagnose": ["diagnose", "--scan-points", "1000"],
}


@pytest.mark.parametrize("value", [0.0, -0.5, math.nan], ids=repr)
@pytest.mark.parametrize("command", _GRID_COMMANDS)
def test_nonpositive_gap_exits_2(tmp_path, monkeypatch, capsys, value, command):
    bad = gapwidth.GapWidth(name="bad", jet=lambda L, order: [L * 0.0 + value])
    monkeypatch.setattr(gapwidth, "gap_from_json", lambda obj: bad)
    out = tmp_path / "out"
    argv = _GRID_COMMANDS[command] + ["--X", "30"]
    assert main(argv + ([] if command == "diagnose" else ["--out", str(out)])) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: omega\(x\) = {value} must be positive and finite at x = 30\.\d+\n",
                        err), err
    assert not out.exists()


@pytest.mark.parametrize("command", _GRID_COMMANDS)
def test_nan_gap_width_exits_2(tmp_path, command):
    # lambda u overflows to inf, so omega is nan at every x; in a subprocess, so
    # that a RuntimeWarning would reach stderr, which holds only the error line
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    spec.write_text(json.dumps({"kind": "product", "polys": [[[1, 0]]], "lambdas": [1e308], "A": 2}))
    argv = _GRID_COMMANDS[command] + ["--X", "30", "--omega-spec", str(spec)]
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = f"import sys; sys.path.insert(0, {src!r}); import cygshell.cli; sys.exit(cygshell.cli.main())"
    proc = subprocess.run([sys.executable, "-c", script] + argv
                          + ([] if command == "diagnose" else ["--out", str(out)]),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert re.fullmatch(r"error: omega\(x\) = nan must be positive and finite at x = 30\.\d+\n",
                        proc.stderr), proc.stderr
    assert proc.stdout == "" and not out.exists()


@pytest.mark.parametrize("field, bad, what", [("samples", 5, "samples must be >= 10"),
                                              ("Q", 0, "Q must be >= 1"),
                                              ("mode", "bogus", "mode must be exact or fast")])
def test_config_value_out_of_range_exits_2_before_table(tmp_path, monkeypatch, capsys,
                                                        field, bad, what):
    def build_r2(limit):
        raise AssertionError(f"build_r2({limit}) called for a rejected config")

    monkeypatch.setattr(arith, "build_r2", build_r2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"omega": {"kind": "inv_log"}, "X": 100.0, "samples": 20,
                                    "mode": "exact", field: bad}))
    argv = ["sample", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {what}\n"


def test_diagnose_reads_the_config_gap_width(tmp_path, capsys):
    spec = {"kind": "product", "polys": [[[1, 0], [2, 0]]], "lambdas": [1.0], "A": 2}
    spec_path, cfg_path = tmp_path / "spec.json", tmp_path / "cfg.json"
    spec_path.write_text(json.dumps(spec))
    cfg_path.write_text(json.dumps({"omega": spec, "X": 100.0, "samples": 20}))
    outs = []
    for argv in (["--config", str(cfg_path)], ["--omega-spec", str(spec_path)], []):
        assert main(["diagnose", "--X", "50", "--scan-points", "1000"] + argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != outs[2]  # the last is the default inv_log


def test_config_unknown_field_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"omega": {"kind": "inv_log"}, "X": 100.0,
                                    "samples": 20, "mode": "fast", "bogus": 1}))
    assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bogus" in err


@pytest.mark.parametrize("field,bad", [
    ("samples", 20.5), ("samples", True), ("Q", "64"), ("j_max", 4.0),
    ("threads", 1.5), ("X", "100"), ("X", True), ("phase", "x"), ("phase", None),
])
def test_config_field_type_exits_2(tmp_path, capsys, field, bad):
    cfg = {"omega": {"kind": "inv_log"}, "X": 100, "samples": 20, "mode": "fast"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, field: bad}))
    assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not (tmp_path / "samples.csv").exists()


def test_malformed_coefficient_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "product", "polys": [[1, 2]],
                                     "lambdas": [1.0], "A": 2}))
    assert main(["density", "--spec", str(spec_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "polys" in err


def test_gap_spec_bad_field_type_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    for field, bad in (("A", [2]), ("A", 2.5), ("lambdas", 1), ("lambdas", "12"),
                       ("lambdas", [True]), ("polys", [[[True, 0], [1, 0]]]),
                       ("polys", [[[1, 0, 0], [1, 0]]]), ("lambdas", [10 ** 400])):
        spec = {"kind": "product", "polys": [[[1, 0], [1, 0]]], "lambdas": [1.0], "A": 2}
        spec_path.write_text(json.dumps({**spec, field: bad}))
        assert main(["sample", "--mode", "fast", "--X", "50", "--samples", "10",
                     "--omega-spec", str(spec_path),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE, (field, bad)
        err = capsys.readouterr().err
        assert err.startswith("error:") and f'"{field}"' in err, (field, bad)


_FINITE_SPEC = {"kind": "product", "polys": [[[1, 0], [2, 0]]], "lambdas": [1.0], "A": 2}
# entry -> (the field its error names, the spec with the bad value v in that entry)
_NONFINITE_ENTRIES = {
    "lambda": ("lambdas", lambda v: {**_FINITE_SPEC, "lambdas": [v]}),
    "real-part": ("polys", lambda v: {**_FINITE_SPEC, "polys": [[[1, 0], [v, 0]]]}),
    "imaginary-part": ("polys", lambda v: {**_FINITE_SPEC, "polys": [[[1, v], [2, 0]]]}),
}
_SPEC_COMMANDS = {
    "diagnose": ["diagnose", "--X", "50", "--omega-spec"],
    "sample-fast": ["sample", "--mode", "fast", "--X", "50", "--samples", "10", "--omega-spec"],
    "sample-exact": ["sample", "--mode", "exact", "--X", "50", "--samples", "10", "--omega-spec"],
    "density": ["density", "--spec"],  # the density side reads no lambdas
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("command, entry", [
    (c, e) for c in _SPEC_COMMANDS for e in _NONFINITE_ENTRIES if (c, e) != ("density", "lambda")])
def test_nonfinite_spec_entry_exits_2_before_any_evaluation(tmp_path, monkeypatch, capsys,
                                                           bad, command, entry):
    field, spec = _NONFINITE_ENTRIES[entry]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec(bad)))  # json.dumps writes NaN, Infinity, -Infinity

    def evaluated(*args, **kwargs):
        raise AssertionError("a non-finite spec reached evaluation")

    monkeypatch.setattr(gapwidth, "make_almost_periodic", evaluated)
    monkeypatch.setattr(gapwidth, "phi_from_poly", evaluated)
    out = tmp_path / "out"
    argv = _SPEC_COMMANDS[command] + [str(path)]
    if command.startswith("sample"):
        argv += ["--out", str(out)]
    assert main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f'error: "{field}"') and "finite" in captured.err
    assert not out.exists()


def test_gap_spec_not_an_object_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(["inv_log"]))
    for argv in (["sample", "--mode", "fast", "--X", "50", "--samples", "10",
                  "--omega-spec", str(spec_path), "--out", str(tmp_path / "out")],
                 ["density", "--spec", str(spec_path)]):
        assert main(argv) == cli.EXIT_USAGE, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error:") and "object" in err, argv[0]


def test_config_round_trip():
    cfg = ExperimentConfig(omega={"kind": "inv_log"}, X=100.0, samples=50,
                           Q=64, mode="fast", j_max=4, phase=0.25,
                           threads=2, out="artifacts")
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert ExperimentConfig.from_json(again.to_json()) == again


def test_threads_bounded(tmp_path, monkeypatch, capsys):
    for threads in (0, -1, 33, 100_000):
        with pytest.raises(ValueError, match="threads"):
            ExperimentConfig(omega={"kind": "inv_log"}, X=100.0, samples=50, threads=threads)

    def refuse(*args, **kwargs):
        raise AssertionError("no table or pool may be built for a rejected config")

    monkeypatch.setattr(arith, "build_r2", refuse)
    monkeypatch.setattr(stats, "ThreadPoolExecutor", refuse)
    argv = ["sample", "--X", "2000", "--samples", "32000", "--threads", "100000",
            "--out", str(tmp_path)]
    assert main(argv) == cli.EXIT_USAGE
    assert "threads" in capsys.readouterr().err


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(omega={"kind": "inv_log"}, X=5.0, samples=50)
    for j_max in (-2, 0, 3, 10):
        with pytest.raises(ValueError, match="j_max"):
            ExperimentConfig(omega={"kind": "inv_log"}, X=100.0, samples=50, j_max=j_max)


def test_j_max_outside_ladder_exits_2(tmp_path, capsys):
    argv = ["moments", "--mode", "fast", "--X", "50", "--samples", "10", "--j-max", "-2"]
    assert main(argv + ["--out", str(tmp_path)]) == cli.EXIT_USAGE
    assert "j_max" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"omega": {"kind": "inv_log"}, "X": 50.0,
                                    "samples": 10, "mode": "fast", "j_max": 0}))
    assert main(["moments", "--config", str(cfg_path), "--out", str(tmp_path)]) == cli.EXIT_USAGE
    assert "j_max" in capsys.readouterr().err
    assert not (tmp_path / "moments.json").exists()


def test_sample_command_writes_artifacts(tmp_path, capsys):
    rc = main(["sample", "--omega", "inv_log", "--X", "30", "--samples", "20",
               "--mode", "exact", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("samples.csv", "distribution.csv", "summary.json"):
        assert (tmp_path / name).exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["S"] == 20
    header = (tmp_path / "samples.csv").read_text().splitlines()[0]
    assert header == "x,omega_x,shell_count,error,normalized"


@pytest.mark.parametrize("argv", [["sample", "--mode", "exact"], ["sample", "--mode", "fast"],
                                  ["expand"]], ids=["sample-exact", "sample-fast", "expand"])
def test_commands_leave_the_on_demand_columns_unbuilt(tmp_path, monkeypatch, argv):
    tables, build_r2 = [], arith.build_r2
    monkeypatch.setattr(arith, "build_r2", lambda limit: tables.append(build_r2(limit)) or tables[-1])
    assert main(argv + ["--omega", "inv_log", "--X", "30", "--samples", "20",
                        "--out", str(tmp_path)]) == 0
    assert len(tables) == 1
    assert not {"values", "nonzero_prefix", "nonzero_sqrt"} & tables[0].__dict__.keys()


def test_sample_command_deterministic(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for d in (a_dir, b_dir):
        assert main(["sample", "--omega", "inv_log", "--X", "30", "--samples",
                     "20", "--mode", "exact", "--out", str(d)]) == 0
    for name in ("samples.csv", "distribution.csv", "summary.json"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_moments_command(tmp_path, capsys):
    rc = main(["moments", "--omega", "inv_log", "--X", "200", "--samples", "200",
               "--mode", "fast", "--j-max", "4", "--out", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "moments.json").read_text())
    assert abs(obj["moments"]["2"] - 1.0) < 1e-12
    assert obj["predicted_even_moments"]["4"] == 3.0


def test_expand_command(tmp_path, capsys):
    rc = main(["expand", "--omega", "inv_log", "--X", "60", "--samples", "30",
               "--out", str(tmp_path)])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["median_residual"] < 0.1
    lines = (tmp_path / "expansion.csv").read_text().splitlines()
    assert lines[0] == "x,ehat,rhs,residual"
    assert len(lines) == 31


AP_SPEC = {"kind": "product", "polys": [[[1.0, 0.0], [1.0, 0.0]]],
           "lambdas": [1.0], "independent": True, "A": 2}


def _omega_column(path):
    return [[float(v) for v in line.split(",")[:2]]
            for line in path.read_text().splitlines()[1:]]


def test_sample_uses_omega_spec(tmp_path):
    spec_path = tmp_path / "ap.json"
    spec_path.write_text(json.dumps(AP_SPEC))
    argv = ["sample", "--mode", "fast", "--X", "200", "--samples", "20"]
    assert main(argv + ["--out", str(tmp_path / "log")]) == 0
    assert main(argv + ["--omega-spec", str(spec_path), "--out", str(tmp_path / "ap")]) == 0
    gap = gapwidth.gap_from_json(AP_SPEC)
    rows = _omega_column(tmp_path / "ap" / "samples.csv")
    assert all(w == float(gap.value(x)) for x, w in rows)
    assert rows != _omega_column(tmp_path / "log" / "samples.csv")


def test_config_out_unless_flag(tmp_path, monkeypatch):
    cfg = ExperimentConfig(omega={"kind": "inv_log"}, X=200.0, samples=20, mode="fast",
                           out=str(tmp_path / "from_config"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "from_config" / "samples.csv").exists()
    assert not (tmp_path / "samples.csv").exists()
    assert main(["moments", "--config", str(cfg_path), "--out", "flag"]) == 0
    assert (tmp_path / "flag" / "moments.json").exists()
    assert not (tmp_path / "from_config" / "moments.json").exists()


def test_density_command(tmp_path, capsys):
    spec_path = tmp_path / "phi_1plusz.json"
    spec_path.write_text(json.dumps({
        "kind": "product",
        "polys": [[[1.0, 0.0], [1.0, 0.0]]],
        "lambdas": [1.0],
        "independent": True,
        "A": 2,
    }))
    rc = main(["density", "--spec", str(spec_path), "--alpha", "0", "0.5"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    spec = spectra.DensitySpec(mode="product",
                               phis=(spectra.phi_from_poly([1, 1]),))
    want = spectra.density_eval(spec, 0.5)
    assert abs(obj["density"]["0.5"] - want) < 1e-6
    assert abs(obj["moment2"] - 1.0) < 1e-5


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_density_nonfinite_alpha_exits_2(tmp_path, capsys, alpha):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "product", "polys": [[[1.0, 0.0], [1.0, 0.0]]],
                                     "lambdas": [1.0], "independent": True, "A": 2}))
    assert main(["density", "--spec", str(spec_path), "--alpha", "0", alpha]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("command", ["sample", "diagnose"])
@pytest.mark.parametrize("X", ["nan", "inf"])
def test_nonfinite_X_exits_2(tmp_path, capsys, command, X):
    argv = [command, "--X", X]
    if command == "sample":
        argv += ["--out", str(tmp_path)]
    assert main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"X = {X} must be finite" in captured.err
    assert not (tmp_path / "samples.csv").exists()


@pytest.mark.parametrize("argv", [
    ["count", "--x", "1000/1"],
    ["sample", "--mode", "exact", "--X", "500", "--samples", "20"],
], ids=["count", "sample-exact"])
def test_table_past_physical_memory_exits_3(tmp_path, monkeypatch, capsys, argv):
    # both tables hold about 10^6 entries (4.5 MB of compressed reservation alone)
    monkeypatch.setattr(arith, "_physical_memory", lambda: 1 << 20)
    if argv[0] == "sample":
        argv = argv + ["--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == cli.EXIT_RESOURCE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # refused before the table was allocated
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "samples.csv").exists()


def test_density_grid_past_physical_memory_exits_3(tmp_path, monkeypatch, capsys):
    # two factors at 300 quadrature points: a 90 000-node tensor grid, about 6.4 MiB
    monkeypatch.setattr(arith, "_physical_memory", lambda: 1 << 20)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "product", "polys": [[[2, 0], [1, 0]]] * 2,
                                     "lambdas": [1.0, 2.0], "A": 2}))
    tracemalloc.start()
    try:
        assert main(["density", "--spec", str(spec_path), "--quad-points", "300"]) \
            == cli.EXIT_RESOURCE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # refused before the grid was allocated
    assert "physical memory" in capsys.readouterr().err


def test_diagnose_scan_past_physical_memory_exits_3(monkeypatch, capsys):
    # the estimate is the heaviest family's 152 B a point for every family:
    # 1000 points run in 152 000 B and are refused one byte below
    monkeypatch.setattr(arith, "_physical_memory", lambda: 152_000)
    assert main(["diagnose", "--scan-points", "1000"]) == cli.EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(arith, "_physical_memory", lambda: 151_999)
    assert main(["diagnose", "--scan-points", "1000"]) == cli.EXIT_RESOURCE
    assert "physical memory" in capsys.readouterr().err
    # 10^5 points, about 14.5 MiB against 1 MiB
    monkeypatch.setattr(arith, "_physical_memory", lambda: 1 << 20)
    tracemalloc.start()
    try:
        assert main(["diagnose", "--scan-points", "100000"]) == cli.EXIT_RESOURCE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # refused before the first scan
    captured = capsys.readouterr()
    assert captured.out == "" and "physical memory" in captured.err


def test_count_both_checks_the_brute_cap_before_the_table(monkeypatch, capsys):
    built, build_r2 = [], arith.build_r2
    monkeypatch.setattr(arith, "build_r2", lambda limit: built.append(limit) or build_r2(limit))
    assert main(["count", "--x", "61/1", "--method", "both"]) == cli.EXIT_USAGE
    assert "capped" in capsys.readouterr().err
    assert built == []


def test_diagnose_command(capsys):
    rc = main(["diagnose", "--omega", "inv_log", "--X", "1000",
               "--scan-points", "2000"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["u_count"] == 0
    assert obj["m2"] > 0
    assert len(obj["carleman_partial"]) == 20


def _vanishing_gap_spec(tmp_path, A):
    """The gap width |1 + z|^2 / L^A with the root of 1 + z on the circle."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "product", "polys": [[[1, 0], [1, 0]]],
                                "lambdas": [1.0], "A": A}))
    return str(path)


def test_sample_with_every_gap_snapped_to_zero_exits_2(tmp_path, capsys):
    # omega <= 4 L^-6 < 2e-5 on (2000, 4000), below half the snap step 1/4096:
    # every shell is empty and the sample has sigma = 0
    out = tmp_path / "out"
    assert main(["sample", "--mode", "exact", "--omega-spec", _vanishing_gap_spec(tmp_path, 6),
                 "--X", "2000", "--samples", "40", "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "no spread (sigma^2 = 0)" in err
    assert "largest gap width on the grid is 1.71e-05" in err and "snap step 1/4096" in err
    assert not out.exists()


def test_moments_with_an_underflowing_m2_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["moments", "--omega-spec", _vanishing_gap_spec(tmp_path, 400),
                 "--X", "50", "--out", str(out)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(sigma^2 = 0, m2 = 0)" in captured.err and "snap step 1/4096" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("A, m2", [(20, "9.57048e-22"), (400, "0")])
def test_diagnose_with_underflowing_moments_exits_2(tmp_path, capsys, A, m2):
    # at A = 20, m2 > 0 but m2^20, the denominator of the j = 40 ratio, is 0
    assert main(["diagnose", "--omega-spec", _vanishing_gap_spec(tmp_path, A),
                 "--X", "50"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"underflow (m2 = {m2};" in captured.err

def test_missing_spec_file_exits_2(capsys):
    assert main(["density", "--spec", "/nonexistent.json"]) == cli.EXIT_USAGE


def test_cli_import_leaves_scipy_out():
    # scipy is a test extra; a runtime import would add about 0.3 s and
    # 24 MB to every CLI run
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = f"import sys; sys.path.insert(0, {src!r}); import cygshell.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_import_starts_no_thread():
    # the sampling pools live for one call; importing the package starts none
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = (f"import sys, threading; sys.path.insert(0, {src!r}); n = threading.active_count(); "
              "import cygshell.cli; print(threading.active_count() - n)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "0"
