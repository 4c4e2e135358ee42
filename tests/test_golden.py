"""Byte-for-byte pins of the artifacts of seven small CLI runs, and of the
stdout of three diagnose runs and one density run, and a check that the
product gap width and its diagnose stdout keep their bits with NumPy's
AVX-512 dispatch off.

A reordered float operation in the counting kernel, the fast series, the
sampling grid, the almost-periodic gap width or the serializers changes at
least one of these digests; diagnose is the only consumer of omega' and
omega''.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cygshell
from cygshell.cli import main
from cygshell.gapwidth import gap_from_json
from cygshell.stats import SampleGrid

SPEC_FILE = "<product spec file>"
PRODUCT_SPEC = {"kind": "product", "polys": [[[1.0, 0.0], [1.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]],
                "lambdas": [1.0, 1.4142135623730951], "A": 2}

EXPAND_PRODUCT = ["expand", "--X", "60", "--samples", "200", "--omega-spec", SPEC_FILE]

GOLDEN = [
    (["sample", "--mode", "exact", "--X", "30", "--samples", "20", "--threads", "2"], {
        "samples.csv": "c24b33764603fd52cc42b537f4236bad6107e82c22a7840c5f8f5d9d84d09039",
        "distribution.csv": "5849064756ecd3f867e431995d6eda352d624c6fc53aaf6203f3b8b99973f6c1",
        "summary.json": "685389c62423b1eee11e7378168e9aca629650c2a41957129211a36c6fda8dc5",
    }),
    # two grid points fall where the product gap nearly vanishes (|1 + z|^2
    # has a root on the unit circle); their shells snap to zero width
    (["sample", "--mode", "exact", "--X", "60", "--samples", "200", "--omega-spec", SPEC_FILE], {
        "samples.csv": "65912f1588ffe144ec9f5a3b64f1d8e5e50d5a6180403250e04520430d6c33a4",
        "distribution.csv": "62a8f6278885da50010be707aac10a552abbd3b8d0313835a5274f8f95cad894",
        "summary.json": "b09b2f0c4b6c32e547d20f046276b8698a9b0c67b2b3b6bd2b975afb9447d478",
    }),
    (["sample", "--mode", "fast", "--X", "200", "--samples", "200"], {
        "samples.csv": "ed755eb7fcd588049c6a02bd44f0f413cf4c5fec4786c71f9abde908a19ebac7",
        "distribution.csv": "16405f899cd6d7fd76f76cf647c566c830279448d9207b5348a33b609412a887",
        "summary.json": "eb1b7a05464afe07defa355a79b5c6eeef7c9aae5defd0b27fe24f552b8ac733",
    }),
    (["sample", "--mode", "fast", "--X", "200", "--samples", "200", "--omega-spec", SPEC_FILE], {
        "samples.csv": "824257c39557ea9f955c5e1081ba072a0670b896136f8b971d975a448cd5e0bb",
        "distribution.csv": "bab0d36c1b6acd5324524780dfba23d3ea1b355b2bb33e696bc2cb61e8e70572",
        "summary.json": "e1efff071d24fbb777df73e870bed89ffaf39b7a47f777e19aaf06a41693245f",
    }),
    (["moments", "--mode", "fast", "--X", "200", "--samples", "200"], {
        "moments.json": "467631fe145b3bac1678da0ebdc779761c3b2682e78841adfe5f12e1dba7d7df",
    }),
    (["expand", "--X", "60", "--samples", "30"], {
        "expansion.csv": "cb47c127b18a79c872a8fd8422fb9ffe46aa035cd2046924402dcd1d6268a5bb",
        "stdout": "967b110db1b2bba129122a1053b73408ff711b1da1e2fb9bbb558651b1023c1e",
    }),
    # the grid of sample-exact-product: its two zero-gap shells write rows x,0,0,0
    (EXPAND_PRODUCT, {
        "expansion.csv": "e25225a86e4e9c8992f4da02cfc837d916fce8954256b3070d8ff0f007d1094a",
        "stdout": "a2cd47d59310b55fdcd01889de7addf1871e59a95b370a9cce1afe47b7e35879",
    }),
]


@pytest.mark.parametrize("argv, digests", GOLDEN,
                         ids=["sample-exact", "sample-exact-product", "sample-fast",
                              "sample-fast-product", "moments-fast", "expand",
                              "expand-product"])
def test_artifact_digests(tmp_path, argv, digests):
    outputs = _run(tmp_path, argv, digests)
    for name, want in digests.items():
        assert hashlib.sha256(outputs[name]).hexdigest() == want, name


def _run(out, argv, names):
    """The bytes of each named artifact ("stdout" for the printed text) of
    one CLI run writing into out."""
    out.mkdir(exist_ok=True)
    spec = out / "spec.json"
    spec.write_text(json.dumps(PRODUCT_SPEC))
    argv = [str(spec) if a == SPEC_FILE else a for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv + ["--out", str(out)]) == 0
    return {name: (stdout.getvalue().encode() if name == "stdout"
                   else (out / name).read_bytes()) for name in names}


def test_expand_threads_write_the_same_bytes(tmp_path):
    names = ("expansion.csv", "stdout")
    serial = _run(tmp_path / "t1", EXPAND_PRODUCT + ["--threads", "1"], names)
    assert _run(tmp_path / "t2", EXPAND_PRODUCT + ["--threads", "2"], names) == serial


@pytest.mark.parametrize("argv", [GOLDEN[2][0], GOLDEN[3][0]],
                         ids=["sample-fast", "sample-fast-product"])
def test_fast_sample_threads_write_the_same_bytes(tmp_path, argv):
    names = ("samples.csv", "distribution.csv", "summary.json")
    serial = _run(tmp_path / "t1", argv + ["--threads", "1"], names)
    assert _run(tmp_path / "t2", argv + ["--threads", "2"], names) == serial


DIAGNOSE_GOLDEN = [
    (["--omega", "inv_log", "--X", "1000"],
     "244ad0a9128a829fcbaad341610eb4896636feedd2cd3710f166178b33579b15"),
    (["--omega", "exp_neg_sqrt_log", "--X", "100000"],
     "5fbac4a7b61b0052371687a98b6e3363352bae0b557706aca88358a013322648"),
    (["--omega-spec", SPEC_FILE, "--X", "100"],
     "549c166f58cd953d08924106f302a4f79baafd68642052de984c26520db5cce7"),
]


def _stdout_digest(tmp_path, argv):
    """The sha256 of the printed text of a CLI command that writes no files."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(PRODUCT_SPEC))
    argv = [str(spec) if a == SPEC_FILE else a for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv, want", DIAGNOSE_GOLDEN,
                         ids=["inv-log", "exp-neg-sqrt-log", "product"])
def test_diagnose_stdout_digests(tmp_path, argv, want):
    assert _stdout_digest(tmp_path, ["diagnose"] + argv) == want


def test_density_stdout_digest(tmp_path):
    # the density at three alpha (one array call) and the mass, m2 and m4 quadratures
    argv = ["density", "--spec", SPEC_FILE, "--alpha", "0", "0.5", "1.0"]
    want = "012a1763733026c89a16ca9aa30ec54624ee752f088f711ff9822874035e89ed"
    assert _stdout_digest(tmp_path, argv) == want


def product_readings(tmp_path) -> dict:
    """The product gap width's bits on one grid, the diagnose product stdout
    digest, and the AVX-512 dispatch targets this process may use.

    The gap width is h(L) at L = math.log(x): NumPy's AVX-512 log differs
    from libm's at one point of this grid (x = 2802.140625), so omega.value
    depends on the dispatch through np.log, apart from the power and
    trigonometric work that h does."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    L = np.array([math.log(x) for x in SampleGrid(X=2000.0, S=4000, Q=64).xs.tolist()])
    return {"omega": [v.hex() for v in gap_from_json(PRODUCT_SPEC).jet(L, 0)[0].tolist()],
            "diagnose": _stdout_digest(tmp_path, ["diagnose"] + DIAGNOSE_GOLDEN[2][0]),
            "avx512": [t for t in __cpu_dispatch__
                       if (t == "X86_V4" or t.startswith("AVX512")) and __cpu_features__[t]]}


def test_product_gap_bits_do_not_depend_on_simd_dispatch(tmp_path):
    # NumPy picks an AVX-512 kernel for some array operations where the CPU
    # has one; the gap width and diagnose must read the same bits without it
    here = product_readings(tmp_path)
    if not here["avx512"]:
        pytest.skip("NumPy reports no AVX-512 dispatch target on this CPU")
    paths = [str(Path(cygshell.__file__).resolve().parent.parent), str(Path(__file__).parent)]
    script = ("import json, pathlib, sys; sys.path[:0] = sys.argv[1:3]; import test_golden; "
              "print(json.dumps(test_golden.product_readings(pathlib.Path(sys.argv[3]))))")
    proc = subprocess.run([sys.executable, "-c", script, *paths, str(tmp_path)],
                          env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(here["avx512"])},
                          capture_output=True, text=True, timeout=120, check=True)
    off = json.loads(proc.stdout)
    assert off["avx512"] == []
    assert off["omega"] == here["omega"] and off["diagnose"] == here["diagnose"]
