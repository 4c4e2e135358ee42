"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --phase P --out DIR [--trace]

Writes DIR/worker.json with the monotonic time at which set-up ended, the
duration of each stage of the run, the calibration kernel's time before the
first stage and after each stage, the outputs the driver checks and, when
traced, the spans.  CLI
workloads write their artifacts into DIR.  The driver times the process
from outside (spawn time, CPU time and peak RSS from wait4).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cygshell  # noqa: E402
import cygshell.cli  # noqa: E402
from cygshell import arith, gapwidth, spectra, stats  # noqa: E402

import calibration  # noqa: E402
import tracer  # noqa: E402
from workloads import (IDENTITY_FAMILY, IDENTITY_POLYS, MIXTURE_GAP,  # noqa: E402
                       MIXTURE_LJ, MIXTURE_MOMENTS, MIXTURE_QUAD_POINTS, WORKLOADS)


def end_setup(result: dict) -> None:
    """Mark the end of set-up, then time the calibration kernel before the run."""
    result["setup_end"] = time.monotonic()
    result["cals"], result["cal_cpu"], result["stages"] = [], 0.0, []
    calibrate(result)
    result["run_start"] = time.monotonic()


def calibrate(result: dict) -> None:
    wall, cpu = calibration.calibrate()
    result["cals"].append(wall)
    result["cal_cpu"] += cpu


@contextlib.contextmanager
def stage(result: dict):
    """Time one stage of the run, then calibrate: the machine's speed can
    drift within a long run, so each stage gets its own scale."""
    start = time.monotonic()
    yield
    result["stages"].append(time.monotonic() - start)
    calibrate(result)


def _mark_setup_end(result: dict) -> bool:
    """End set-up when the first r2 table is built: the CLI's set-up boundary.

    One wrapped call per run; untraced runs carry nothing else.  Returns
    False when there is no build_r2 to mark.
    """
    found = tracer.lookup("arith.build_r2")
    if found is None:
        return False
    build = found[2]

    def build_r2(*args, **kwargs):
        table = build(*args, **kwargs)
        if "setup_end" not in result:
            end_setup(result)
        return table

    tracer.rebind(build, build_r2)
    return True


def run_cli(spec: dict, phase: float, out: Path) -> dict:
    result = {}
    if not _mark_setup_end(result):
        end_setup(result)  # no r2 table to mark: the whole CLI call is the run
    argv = spec["argv"] + ["--phase", repr(phase), "--out", str(out)]
    with open(out / "stdout.txt", "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        result["exit_code"] = cygshell.cli.main(argv)
    result["stages"].append(time.monotonic() - result["run_start"])
    calibrate(result)
    return result


def run_mixture(spec: dict, phase: float) -> dict:
    gap = gapwidth.make_almost_periodic(gapwidth.AlmostPeriodicGap(
        polys=MIXTURE_GAP["polys"], lambdas=MIXTURE_GAP["lambdas"],
        exponent=MIXTURE_GAP["A"], mode="product"))
    dspec = spectra.DensitySpec(mode="product", phis=gap.spec.to_phis(),
                                quad_points=MIXTURE_QUAD_POINTS)
    r2 = arith.build_r2(spec["r2_limit"])
    grid = stats.SampleGrid(X=spec["X"], S=spec["samples"], Q=spec["Q"], phase=phase)
    result = {}
    end_setup(result)

    with stage(result):
        values = stats.sample_errors(gap, grid, r2, mode="fast")
        dist = stats.EmpiricalDistribution.from_samples(values)
    with stage(result):
        ks_mixture = stats.ks_distance(dist, lambda a: stats.mixture_cdf(dspec, a))
        ks_normal = stats.ks_distance(dist, stats.normal_cdf)
    with stage(result):
        moments = {j: spectra.density_moment(dspec, j) for j in MIXTURE_MOMENTS}
        lj = {j: spectra.l_j(dspec, j) for j in MIXTURE_LJ}
    identities = []
    for first in range(len(IDENTITY_POLYS)):  # one stage per first factor, ~1 s each
        with stage(result):
            for a, b, j in IDENTITY_FAMILY:
                if a != first:
                    continue
                phis = (spectra.phi_from_poly(IDENTITY_POLYS[a]),)
                if b is not None:
                    phis += (spectra.phi_from_poly(IDENTITY_POLYS[b]),)
                fspec = spectra.DensitySpec(mode="product", phis=phis)
                identities.append((spectra.constrained_frequency_sum(fspec, j),
                                   spectra.construction_moment(fspec, j)))
    result.update({
        "exit_code": 0,
        "xs": [p.k for p in grid.points],
        "values": [float(v) for v in values],
        "ks_normal": ks_normal, "ks_mixture": ks_mixture,
        "density_moments": {str(j): v for j, v in moments.items()},
        "l_j": {str(j): str(v) for j, v in lj.items()},
        "identities": [[str(lhs), str(rhs)] for lhs, rhs in identities],
    })
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--phase", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace = tracer.Tracer()
    if args.trace:
        trace.install()
    if spec["kind"] == "cli":
        result = run_cli(spec, args.phase, out)
    else:
        result = run_mixture(spec, args.phase)
    if args.trace:
        result["spans"] = trace.spans
        result["absent"] = trace.absent
    (out / "worker.json").write_text(json.dumps(result))
    return 0 if result["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
