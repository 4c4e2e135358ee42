"""The benchmark's per-layer tracing still finds what it wraps.

perfbench/tracer.py wraps package functions by name and reads attributes
off their arguments and results.  A renamed function or a changed signature
does not fail a benchmark run: the metric goes absent or its attributes
turn None.  This test runs the tracer over a small `sample --mode exact`
(the count-only kernel), a small `expand` (the one-pass count and sawtooth
kernel) and a small run of the mixture benchmark's library path (fast-mode
samples, the mixture CDF and a density moment) in a fresh interpreter (the
wrappers patch module namespaces for good) and fails instead.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import numpy as np
import cygshell, cygshell.cli
from cygshell import arith, gapwidth, spectra, stats
import tracer
trace = tracer.Tracer()
trace.install()
runs = {{}}


def record(name, first, code):
    attrs = {{}}
    for span in trace.spans[first:]:
        attrs.setdefault(span[1], []).append(span[6])
    runs[name] = {{"code": code, "attrs": attrs}}


for name, argv in {runs!r}.items():
    first = len(trace.spans)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cygshell.cli.main(argv)
    record(name, first, code)
first = len(trace.spans)
spec = spectra.DensitySpec(mode="product", phis=(spectra.phi_from_poly([1, 1]),
                                                 spectra.phi_from_poly([2, 1])), quad_points=16)
grid = stats.SampleGrid(X=200.0, S=20, Q=64, phase=0.5)
values = stats.sample_errors(gapwidth.make_slowly_varying("inv_log"), grid,
                             arith.build_r2(stats.fast_cutoff(200.0)), mode="fast")
stats.mixture_cdf(spec, np.sort(values))
spectra.density_moment(spec, 2)
record("mixture", first, 0)
print(json.dumps({{"absent": trace.absent, "runs": runs}}))
"""

# run -> (argv, the traced names whose spans must carry attributes)
RUNS = {
    "sample": (["sample", "--mode", "exact", "--X", "30", "--samples", "20"],
               ("arith.build_r2", "counting.count_ball_fast", "counting.shell_sample")),
    "expand": (["expand", "--X", "60", "--samples", "30"],
               ("arith.build_r2", "counting.sawtooth_ball_sum", "counting.shell_sample",
                "voronoi.series_with_gap")),
}

# the library run of SCRIPT: the traced names it must reach, and those of
# them whose spans must carry attributes
MIXTURE_SPANS = ("stats.sample_errors", "stats.mixture_cdf", "spectra.density_moment",
                 "spectra.density_eval", "spectra.mixture_components")
MIXTURE_ATTRS = ("arith.build_r2", "spectra.mixture_components")


def test_tracer_sees_every_traced_name(tmp_path):
    runs = {name: argv + ["--out", str(tmp_path / name)] for name, (argv, _) in RUNS.items()}
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"), runs=runs)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    report = json.loads(proc.stdout)
    assert report["absent"] == []
    for run, (_, checked) in RUNS.items():
        assert report["runs"][run]["code"] == 0, run
        for name in checked:
            spans = report["runs"][run]["attrs"].get(name, [])
            assert spans, (run, name)
            assert all(a is not None for a in spans), (run, name)
    mixture = report["runs"]["mixture"]["attrs"]
    for name in MIXTURE_SPANS + MIXTURE_ATTRS:
        assert mixture.get(name), name
    for name in MIXTURE_ATTRS:
        assert all(a is not None for a in mixture[name]), name
