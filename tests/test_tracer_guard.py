"""The benchmark's per-layer tracing still finds what it wraps.

perfbench/tracer.py wraps package functions by name and reads attributes
off their arguments and results.  A renamed function or a changed signature
does not fail a benchmark run: the metric goes absent or its attributes
turn None.  This test runs the tracer over a small `expand` in a fresh
interpreter (the wrappers patch module namespaces for good) and fails
instead.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import cygshell, cygshell.cli
import tracer
trace = tracer.Tracer()
trace.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = cygshell.cli.main(["expand", "--X", "60", "--samples", "30", "--out", {out!r}])
attrs = {{}}
for span in trace.spans:
    attrs.setdefault(span[1], []).append(span[6])
print(json.dumps({{"code": code, "absent": trace.absent, "attrs": attrs}}))
"""

CHECKED = ("arith.build_r2", "counting.count_ball_fast", "counting.shell_sample",
           "voronoi.series_with_gap")


def test_tracer_sees_every_traced_name(tmp_path):
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"),
                           out=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    assert report["absent"] == []
    for name in CHECKED:
        spans = report["attrs"].get(name, [])
        assert spans, name
        assert all(a is not None for a in spans), name
