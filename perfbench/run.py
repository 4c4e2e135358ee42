"""The cygshell benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) for about S seconds, each repetition in
a fresh worker process, checks every output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, medians over the untraced
repetitions: setup_s (interpreter start, imports, r2 table and gap/spec
construction, up to the first sample), run_s (time to solution after set-up),
cpu_s (process CPU time, all threads) and peak_rss_mb.  Times of the
single-threaded workloads are in calibrated seconds (calibration.py),
because this machine's speed drifts by tens of per cent over tens of
seconds; the measured seconds of every repetition are in the detail line.  --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics computed from the traced spans
(measured seconds), plus trace.overhead_s.  The detail line, printed before
the result, holds the seed, the grid phase, the environment, every
repetition and the check tallies.  Exits 1 when any check fails, 2 when the
package is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import calibration  # noqa: E402
import checks  # noqa: E402
from workloads import IDENTITY_FAMILY, MIXTURE_GAP, WORKLOADS, phase_for_seed  # noqa: E402

MIN_REPS = 2
REP_TIMEOUT_S = 150.0
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

def choose_phase(spec: dict, seed: int) -> tuple[float, list]:
    """The seed's grid phase, skipping phases whose grid the program rejects.

    SampleGrid raises for about S / (2 X Q) of all phases: the point nearest
    the top of the window rounds to the numerator 2XQ, which the odd-numerator
    rule turns into 2XQ + 1, outside (X, 2X).  The rejected phases are
    returned so that every result reports them.
    """
    from cygshell.stats import SampleGrid

    rejected = []
    for attempt in range(64):
        phase = phase_for_seed(seed, attempt)
        try:
            SampleGrid(X=spec["X"], S=spec["samples"], Q=spec["Q"], phase=phase)
        except ValueError as exc:
            rejected.append({"phase": phase, "error": str(exc)})
            continue
        return phase, rejected
    raise RuntimeError(f"no accepted grid phase for seed {seed}")


def run_rep(workload: str, phase: float, out: Path, traced: bool) -> dict:
    """Spawn one worker; time it from outside and load what it wrote.

    Times of calibrated workloads are in calibrated seconds (calibration.py):
    each stage of the run is scaled by REFERENCE_S over the mean of the
    calibrations around it, set-up by the calibration right after it, and CPU
    time by the run's overall scale.  Other workloads report measured
    seconds.  The calibration's own CPU time is left out of cpu_s.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--phase", repr(phase), "--out", str(out)] + (["--trace"] if traced else [])
    with open(out / "worker.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        pid = 0
        try:
            while time.monotonic() < spawned + REP_TIMEOUT_S:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                time.sleep(0.01)
        finally:
            if not pid:  # timed out or interrupted: stop the worker and reap it
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    rep = {"traced": traced, "exit_code": proc.returncode,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "dir": out}
    result_file = out / "worker.json"
    if proc.returncode == 0 and result_file.exists():
        data = json.loads(result_file.read_text())
        rep["data"] = data
        cals, stages = data["cals"], data["stages"]
        rep["calibration_s"] = statistics.median(cals)
        rep["setup_wall_s"] = data["setup_end"] - spawned
        rep["run_wall_s"] = sum(stages)
        rep["cpu_wall_s"] = usage.ru_utime + usage.ru_stime - data["cal_cpu"]
        if WORKLOADS[workload]["calibrated"]:
            rep["setup_s"] = rep["setup_wall_s"] * calibration.REFERENCE_S / cals[0]
            rep["run_s"] = sum(d * 2 * calibration.REFERENCE_S / (c0 + c1)
                               for d, c0, c1 in zip(stages, cals, cals[1:]))
            rep["cpu_s"] = rep["cpu_wall_s"] * rep["run_s"] / rep["run_wall_s"]
        else:
            for name in ("setup", "run", "cpu"):
                rep[f"{name}_s"] = rep[f"{name}_wall_s"]
    else:
        rep["log"] = (out / "worker.log").read_text(errors="replace")[-2000:]
    return rep


def run_reps(workload: str, phase: float, seconds: float, trace: bool, base: Path) -> list:
    """Repetitions until the next would overrun `seconds` (at least MIN_REPS,
    or one untraced/traced pair when tracing)."""
    reps = []
    start = time.monotonic()
    pattern = (False, True) if trace else (False,)
    minimum = len(pattern) if trace else MIN_REPS
    while True:
        t0 = time.monotonic()
        for traced in pattern:
            reps.append(run_rep(workload, phase, base / f"rep{len(reps)}", traced))
        step = time.monotonic() - t0
        if len(reps) >= minimum and time.monotonic() - start + step > seconds:
            return reps


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Tally:
    """Attempted/failed operations per check, plus the first failure messages."""

    def __init__(self):
        self.counts = defaultdict(lambda: [0, 0])
        self.messages = []

    def op(self, check: str, ok: bool, message: str = "", n: int = 1) -> bool:
        self.counts[check][0] += n
        if not ok:
            self.counts[check][1] += n
            if len(self.messages) < 20:
                self.messages.append(f"{check}: {message}")
        return ok

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def counts_digest(spans) -> tuple[str, dict]:
    """Digest of every (k/Q, n_inner, n_outer) that shell_sample returned."""
    seen = {}
    for span in spans:
        if span[1] == "counting.shell_sample" and span[6]:
            a = span[6]
            seen.setdefault((a["k"], a["Q"]), set()).add((a["n_inner"], a["n_outer"]))
    lines = sorted(f"{k}/{q}:{n_in}:{n_out}" for (k, q), vals in seen.items()
                   for n_in, n_out in vals)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), seen


def read_csv_rows(path: Path) -> list:
    if not path.exists():
        return []
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def check_cli_rep(workload, spec, rep, ref, first, tally):
    """Artifacts byte-identical to the first repetition and to the shipped
    digests; rows well formed; traced counts consistent with the rows."""
    for name in spec["artifacts"]:
        path = rep["dir"] / name
        digest = sha256_file(path) if path.exists() else None
        ok = digest is not None and (first is None or digest == first["digests"][name])
        if ref is not None:
            ok = ok and digest == ref["artifacts"].get(name)
        tally.op("artifacts", ok, f"{name} digest {digest}")
        rep.setdefault("digests", {})[name] = digest
    width = 5 if workload == "exact_sample" else 4
    good = [r for r in read_csv_rows(rep["dir"] / spec["artifacts"][0]) if len(r) == width]
    tally.op("samples", len(good) == spec["samples"],
             f"{len(good)} of {spec['samples']} rows", n=spec["samples"])
    rep["rows"] = good
    if not rep["traced"]:
        return
    digest, seen = counts_digest(rep["data"]["spans"])
    ok = all(len(v) == 1 for v in seen.values())
    if ref is not None:
        ok = ok and digest == ref["counts"]
    for row in good:
        x = float(row[0])
        k = round(x * spec["Q"])
        pair = next(iter(seen.get((k, spec["Q"]), {(None, None)})))
        shell = None if pair[0] is None else pair[1] - pair[0]
        ok = ok and shell is not None and shell == row_shell(workload, spec, row)
    tally.op("counts", ok, f"shell_sample counts digest {digest}")
    rep["counts_digest"] = digest


def row_shell(workload, spec, row) -> int:
    """The shell count a CSV row reports (expansion rows recover it from ehat)."""
    if workload == "exact_sample":
        return int(row[2])
    x = float(row[0])
    k = round(x * spec["Q"])
    gap = (checks.snapped_outer(k, spec["Q"]) - k * checks.OUTER_REFINE) / (
        spec["Q"] * checks.OUTER_REFINE)
    return round(float(row[1]) * x * x + checks.shell_volume(x, gap))


def check_cli_oracle(workload, spec, rows, seed, r2, tally):
    """Recount a few seed-chosen shells with the pure-integer oracle."""
    Q, fine = spec["Q"], spec["Q"] * checks.OUTER_REFINE
    picks = random.Random(seed).sample(range(len(rows)), min(spec["oracle_rows"], len(rows)))
    for i in picks:
        row = rows[i]
        x = float(row[0])
        k = round(x * Q)
        ko = checks.snapped_outer(k, Q)
        ok = k / Q == x
        if workload == "exact_sample":
            ok = ok and float(row[1]) == (ko - k * checks.OUTER_REFINE) / fine
        n_in, n_out = checks.ball_counts([k * checks.OUTER_REFINE, ko], fine, r2)
        tally.op("oracle", ok and n_out - n_in == row_shell(workload, spec, row),
                 f"row {i} x={x}: oracle shell {n_out - n_in}")


def check_mixture_rep(rep, ref, seed_ref, first, oracle, tally):
    data = rep["data"]
    S = WORKLOADS["mixture"]["samples"]
    values = data["values"]
    same_grid = first is None or data["xs"] == first["data"]["xs"]
    bad = S if len(values) != S or not same_grid else sum(
        abs(v - o) > checks.FAST_ABS_TOL for v, o in zip(values, oracle))
    tally.op("samples", bad == 0, f"{bad} fast-mode values off the oracle", n=S)
    ks_n = data["ks_normal"]
    ok = abs(ks_n - checks.ks_normal(values)) <= checks.KS_RECOMPUTE_TOL
    if seed_ref is not None:
        ok = ok and checks.close(ks_n, seed_ref["ks_normal"])
    tally.op("ks", ok, f"ks_normal {ks_n!r}")
    ks_m = data["ks_mixture"]
    ok = 0.0 < ks_m < 1.0
    if seed_ref is not None:
        ok = ok and checks.close(ks_m, seed_ref["ks_mixture"])
    tally.op("ks", ok, f"ks_mixture {ks_m!r}")
    for j, v in data["density_moments"].items():
        want = ref.get("density_moments", {}).get(j)
        tally.op("density", want is not None and checks.close(v, want),
                 f"density_moment {j} = {v!r}, shipped {want!r}")
    for j, v in data["l_j"].items():
        tally.op("exact", v == ref.get("l_j", {}).get(j), f"l_{j} = {v}")
    shipped = ref.get("identities", [None] * len(IDENTITY_FAMILY))
    for (lhs, rhs), want, fam in zip(data["identities"], shipped, IDENTITY_FAMILY):
        tally.op("exact", lhs == rhs == want, f"identity {fam}: {lhs} vs {rhs}, shipped {want}")
    if len(data["identities"]) != len(IDENTITY_FAMILY):
        tally.op("exact", False, "identity count", n=len(IDENTITY_FAMILY))


def check_run(workload, seed, reps, reference, tally) -> dict:
    spec = WORKLOADS[workload]
    ref = reference.get(workload, {})
    seed_ref = ref.get("seeds", {}).get(str(seed))
    first = None
    good = [r for r in reps if "data" in r]
    for rep in reps:
        if "data" not in rep:
            tally.op("process", False, f"worker exit {rep['exit_code']}: {rep['log'][-300:]}",
                     n=spec["samples"])
    info = {}
    r2 = checks.r2_counts(spec["r2_limit"])
    nonzero = int((r2 != 0).sum())
    # The current R2Table layout: int32 values, then int64 m, int64 r2, int64
    # prefix (one longer) and float64 sqrt over the nonzero slices.
    info["r2_table_bytes_computed"] = (spec["r2_limit"] + 1) * 4 + nonzero * 32 + 8
    if spec["kind"] == "cli":
        for rep in good:
            check_cli_rep(workload, spec, rep, seed_ref, first, tally)
            first = first or rep
        if first is not None:
            check_cli_oracle(workload, spec, first["rows"], seed, r2, tally)
            info["digests"] = first["digests"]
        traced = [r for r in good if "counts_digest" in r]
        if traced:
            info["counts_digest"] = traced[0]["counts_digest"]
    else:
        oracle = None
        for rep in good:
            if oracle is None:
                xs = np.array(rep["data"]["xs"], dtype=np.float64) / spec["Q"]
                oracle = checks.fast_series(xs, checks.product_gap(xs, MIXTURE_GAP),
                                            spec["r2_limit"] - 1)
            check_mixture_rep(rep, ref, seed_ref, first, oracle, tally)
            first = first or rep
        if first is not None:
            info["ks_normal"] = first["data"]["ks_normal"]
            info["ks_mixture"] = first["data"]["ks_mixture"]
    info["reference_seed"] = seed_ref is not None
    return info


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

# (metric, unit, better, traced names it needs)
PER_LAYER = [
    ("arith.build_r2.s", "s", "lower", ["arith.build_r2"]),
    ("arith.r2_table_mb", "MB", "lower", ["arith.build_r2"]),
    ("arith.nonzero_slices", "count", "lower", ["arith.build_r2"]),
    ("arith.r2_table_l3_ratio", "ratio", "lower", ["arith.build_r2"]),
    ("counting.count_ball_fast.calls", "count", "lower", ["counting.count_ball_fast"]),
    ("counting.count_ball_fast.self_s", "s", "lower", ["counting.count_ball_fast"]),
    ("counting.count_ball_fast.slices", "count", "lower", ["counting.count_ball_fast"]),
    ("counting.count_ball_fast.ns_per_slice", "ns", "lower", ["counting.count_ball_fast"]),
    ("counting.count_ball_fast.mb_read", "MB", "lower", ["counting.count_ball_fast"]),
    ("counting.shell_sample.calls", "count", "lower", ["counting.shell_sample"]),
    ("counting.shell_sample.per_sample", "ratio", "lower", ["counting.shell_sample"]),
    ("counting.shell_sample.p50_ms", "ms", "lower", ["counting.shell_sample"]),
    ("counting.shell_sample.p99_ms", "ms", "lower", ["counting.shell_sample"]),
    ("counting.sawtooth_ball_sum.calls", "count", "lower", ["counting.sawtooth_ball_sum"]),
    ("counting.sawtooth_ball_sum.self_s", "s", "lower", ["counting.sawtooth_ball_sum"]),
    ("counting.sawtooth_ball_sum.ns_per_slice", "ns", "lower", ["counting.sawtooth_ball_sum"]),
    ("voronoi.series_with_gap.calls", "count", "lower", ["voronoi.series_with_gap"]),
    ("voronoi.series_with_gap.self_s", "s", "lower", ["voronoi.series_with_gap"]),
    ("voronoi.series_with_gap.terms", "count", "lower", ["voronoi.series_with_gap"]),
    ("voronoi.series_with_gap.ns_per_term", "ns", "lower", ["voronoi.series_with_gap"]),
    ("voronoi.expansion_rhs.self_s", "s", "lower", ["voronoi.expansion_rhs"]),
    ("spectra.constrained_frequency_sum.self_s", "s", "lower",
     ["spectra.constrained_frequency_sum"]),
    ("spectra.construction_moment.self_s", "s", "lower", ["spectra.construction_moment"]),
    ("spectra.phi_moment.self_s", "s", "lower", ["spectra.phi_moment"]),
    ("spectra.density_moment.self_s", "s", "lower", ["spectra.density_moment"]),
    ("spectra.density_eval.calls", "count", "lower", ["spectra.density_eval"]),
    ("spectra.mixture_components.s", "s", "lower", ["spectra.mixture_components"]),
    ("stats.sample_errors.s", "s", "lower", ["stats.sample_errors"]),
    ("stats.sample_errors.busy_ratio", "ratio", "higher",
     ["stats.sample_errors", "counting.shell_sample"]),
    ("stats.EmpiricalDistribution.from_samples.s", "s", "lower",
     ["stats.EmpiricalDistribution.from_samples"]),
    ("stats.mixture_cdf.calls", "count", "lower", ["stats.mixture_cdf"]),
    ("stats.mixture_cdf.self_s", "s", "lower", ["stats.mixture_cdf"]),
    ("stats.mixture_cdf.ns_per_component", "ns", "lower",
     ["stats.mixture_cdf", "spectra.mixture_components"]),
    ("stats.ks_distance.self_s", "s", "lower", ["stats.ks_distance"]),
    ("stats.write_samples_csv.s", "s", "lower", ["stats.write_samples_csv"]),
    ("stats.write_distribution_csv.s", "s", "lower", ["stats.write_distribution_csv"]),
    ("stats.artifact_bytes", "bytes", "lower", []),
    ("gapwidth.GapWidth.value.calls", "count", "lower", ["gapwidth.GapWidth.value"]),
    ("gapwidth.GapWidth.value.self_s", "s", "lower", ["gapwidth.GapWidth.value"]),
    ("gapwidth.make_almost_periodic.s", "s", "lower", ["gapwidth.make_almost_periodic"]),
    ("cli.main.s", "s", "lower", ["cli.main"]),
    ("cli.self_s", "s", "lower", ["cli.main"]),
    ("trace.overhead_s", "s", "lower", []),
    ("trace.spans", "count", "lower", []),
]


def layer_values(spans, spec, l3_bytes, calibration_in_main) -> dict:
    """Per-layer values of one traced repetition.

    `calibration_in_main` is the calibration time that ran inside cli.main
    (CLI workloads calibrate once the r2 table is built); it is not CLI time.
    """
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for sid, name, start, end, parent, thread, attrs in spans:
        by_name[name].append((sid, start, end, thread, attrs or {}))
        if parent:
            child_time[parent] += end - start

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(end - start for _, start, end, _, _ in by_name[name])

    def self_s(name):
        return sum(end - start - child_time[sid] for sid, start, end, _, _ in by_name[name])

    def attr_sum(name, key):
        return sum(a.get(key, 0) for *_, a in by_name[name])

    def per(num, den):
        return num / den if den else 0.0

    durations = sorted(end - start for _, start, end, _, _ in by_name["counting.shell_sample"])
    quantile = (lambda q: durations[min(len(durations) - 1, int(q * len(durations)))] * 1e3
                if durations else 0.0)
    busy = 0.0
    wall = 0.0
    for _, s0, s1, _, _ in by_name["stats.sample_errors"]:
        wall += s1 - s0
        busy += sum(e - s for _, s, e, _, _ in by_name["counting.shell_sample"]
                    if s >= s0 and e <= s1)
    mb_read = sum(a.get("slices", 0) * a.get("bytes_per_slice", 0)
                  for *_, a in by_name["counting.count_ball_fast"]) / 1e6
    components = max([a.get("components", 0) for *_, a in by_name["spectra.mixture_components"]],
                     default=0)
    table_bytes = attr_sum("arith.build_r2", "bytes")
    return {
        "arith.build_r2.s": total("arith.build_r2"),
        "arith.r2_table_mb": table_bytes / 1e6,
        "arith.nonzero_slices": attr_sum("arith.build_r2", "nonzero"),
        "arith.r2_table_l3_ratio": per(table_bytes, l3_bytes),
        "counting.count_ball_fast.calls": calls("counting.count_ball_fast"),
        "counting.count_ball_fast.self_s": self_s("counting.count_ball_fast"),
        "counting.count_ball_fast.slices": attr_sum("counting.count_ball_fast", "slices"),
        "counting.count_ball_fast.ns_per_slice": per(
            self_s("counting.count_ball_fast") * 1e9,
            attr_sum("counting.count_ball_fast", "slices")),
        "counting.count_ball_fast.mb_read": mb_read,
        "counting.shell_sample.calls": calls("counting.shell_sample"),
        "counting.shell_sample.per_sample": calls("counting.shell_sample") / spec["samples"],
        "counting.shell_sample.p50_ms": quantile(0.50),
        "counting.shell_sample.p99_ms": quantile(0.99),
        "counting.sawtooth_ball_sum.calls": calls("counting.sawtooth_ball_sum"),
        "counting.sawtooth_ball_sum.self_s": self_s("counting.sawtooth_ball_sum"),
        "counting.sawtooth_ball_sum.ns_per_slice": per(
            self_s("counting.sawtooth_ball_sum") * 1e9,
            attr_sum("counting.sawtooth_ball_sum", "slices")),
        "voronoi.series_with_gap.calls": calls("voronoi.series_with_gap"),
        "voronoi.series_with_gap.self_s": self_s("voronoi.series_with_gap"),
        "voronoi.series_with_gap.terms": attr_sum("voronoi.series_with_gap", "terms"),
        "voronoi.series_with_gap.ns_per_term": per(
            self_s("voronoi.series_with_gap") * 1e9,
            attr_sum("voronoi.series_with_gap", "terms")),
        "voronoi.expansion_rhs.self_s": self_s("voronoi.expansion_rhs"),
        "spectra.constrained_frequency_sum.self_s": self_s("spectra.constrained_frequency_sum"),
        "spectra.construction_moment.self_s": self_s("spectra.construction_moment"),
        "spectra.phi_moment.self_s": self_s("spectra.phi_moment"),
        "spectra.density_moment.self_s": self_s("spectra.density_moment"),
        "spectra.density_eval.calls": calls("spectra.density_eval"),
        "spectra.mixture_components.s": total("spectra.mixture_components"),
        "stats.sample_errors.s": total("stats.sample_errors"),
        "stats.sample_errors.busy_ratio": per(busy, wall * spec["threads"]),
        "stats.EmpiricalDistribution.from_samples.s": total(
            "stats.EmpiricalDistribution.from_samples"),
        "stats.mixture_cdf.calls": calls("stats.mixture_cdf"),
        "stats.mixture_cdf.self_s": self_s("stats.mixture_cdf"),
        "stats.mixture_cdf.ns_per_component": per(
            self_s("stats.mixture_cdf") * 1e9, calls("stats.mixture_cdf") * components),
        "stats.ks_distance.self_s": self_s("stats.ks_distance"),
        "stats.write_samples_csv.s": total("stats.write_samples_csv"),
        "stats.write_distribution_csv.s": total("stats.write_distribution_csv"),
        "gapwidth.GapWidth.value.calls": calls("gapwidth.GapWidth.value"),
        "gapwidth.GapWidth.value.self_s": self_s("gapwidth.GapWidth.value"),
        "gapwidth.make_almost_periodic.s": total("gapwidth.make_almost_periodic"),
        "cli.main.s": total("cli.main") - calibration_in_main,
        "cli.self_s": self_s("cli.main") - calibration_in_main,
        "trace.spans": len(spans),
    }


def layer_metrics(reps, spec, l3_bytes) -> tuple[dict, list]:
    traced = [r for r in reps if r["traced"] and "data" in r]
    untraced = [r for r in reps if not r["traced"] and "data" in r]
    if not traced:
        return {}, []
    per_rep = [layer_values(r["data"]["spans"], spec, l3_bytes,
                            r["data"]["run_start"] - r["data"]["setup_end"]
                            if spec["kind"] == "cli" else 0.0) for r in traced]
    for r, values in zip(traced, per_rep):
        values["stats.artifact_bytes"] = sum(
            (r["dir"] / name).stat().st_size for name in spec["artifacts"]
            if (r["dir"] / name).exists())
    absent_names = set(traced[0]["data"]["absent"])
    metrics, absent = {}, []
    for name, unit, _, needs in PER_LAYER:
        if absent_names.intersection(needs):
            absent.append(name)
            continue
        if name == "trace.overhead_s":
            if not untraced:
                absent.append(name)
                continue
            value = (statistics.median(r["run_s"] for r in traced)
                     - statistics.median(r["run_s"] for r in untraced))
        else:
            value = statistics.median(v[name] for v in per_rep)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def cache_bytes() -> dict:
    libc = ctypes.CDLL(None)
    # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
    return {"l2_bytes": int(libc.sysconf(191)), "l3_bytes": int(libc.sysconf(194))}


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.exists() else None


def environment() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": git_sha(), **cache_bytes()}


# Values derived from array sizes and dtypes rather than measured.
COMPUTED = ["arith.r2_table_mb", "arith.r2_table_l3_ratio", "counting.count_ball_fast.mb_read",
            "r2_table_bytes_computed", "r2_table_l3_ratio_computed"]


def run_one(workload: str, seed: int, seconds: float, trace: int, env: dict) -> tuple:
    """Run, check and measure one workload; returns (detail, result)."""
    spec = WORKLOADS[workload]
    phase, rejected = choose_phase(spec, seed)
    base = OUT_DIR / f"{workload}-seed{seed}-{os.getpid()}"
    reps = run_reps(workload, phase, seconds, bool(trace), base)

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    tally = Tally()
    info = check_run(workload, seed, reps, reference, tally)
    info["r2_table_l3_ratio_computed"] = info["r2_table_bytes_computed"] / env["l3_bytes"]

    untraced = [r for r in reps if not r["traced"] and "data" in r]
    absent = []
    if trace:
        metrics, absent = layer_metrics(reps, spec, env["l3_bytes"])
        traced = [r for r in reps if r["traced"] and "data" in r]
        if traced:
            spans_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
            spans_file.write_text(json.dumps(traced[0]["data"]["spans"]))
            info["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in untraced), "unit": unit}
                   for name, unit in END_TO_END.items()} if untraced else {}
    shutil.rmtree(base, ignore_errors=True)

    attempted, failed = max(1, tally.attempted), tally.failed
    detail = {
        "workload": workload, "seed": seed, "phase": phase, "rejected_phases": rejected,
        "trace": trace,
        "config": {k: v for k, v in spec.items() if k != "artifacts"},
        "env": env, **info, "computed": COMPUTED,
        "reps": [{k: r.get(k) for k in ("traced", "exit_code", "calibration_s", "setup_s",
                                         "setup_wall_s", "run_s", "run_wall_s", "cpu_s",
                                         "cpu_wall_s", "peak_rss_mb")} for r in reps],
        "checks": {k: {"attempted": a, "failed": f} for k, (a, f) in tally.counts.items()},
        "ops_failed_share": failed / attempted,
        "failures": tally.messages,
        "absent_metrics": absent,
    }
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return detail, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="'all' runs every workload untraced and traced, printing a table")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cygshell" / "__init__.py").exists():
        print(f"error: no cygshell package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    if args.workload != "all":
        detail, result = run_one(args.workload, args.seed, args.seconds, args.trace, env)
        print(json.dumps(detail))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            detail, result = run_one(workload, args.seed, args.seconds, trace, env)
            ok = ok and result["correct"]
            print(f"== {workload} trace={trace} seed={args.seed} phase={detail['phase']!r} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"ops_failed_share={detail['ops_failed_share']}")
            for name, m in result["metrics"].items():
                print(f"{workload:13s} {name:45s} {m['value']:16.6g} {m['unit']}")
            for name in detail["absent_metrics"]:
                print(f"{workload:13s} {name:45s} {'absent':>16s}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
