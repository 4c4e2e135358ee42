"""Mutants of the exactness argument, the numerator cap and the 2^53 bound on
the kernel's float64 floor sums, the r2 sieve's axis and diagonal counts, the
outer-radius snap, the gap-width rule and its root floor, m_j's domain, the
sample grid's density cap and its early exactness-cap check, expand's exact
mode, the artifacts' 17-digit floats, the main series' prefactor, the mixture
evaluator's column gather, its singular-node floor and quadrature rules, the
exact moments' digit headroom, the diagonal sum's d4, the diagnostics' cond3a
ratio, the normal CDF's branch choice and the KS distance's pruning bound and
margin, run against the tier-1 suite.

    python tests/mutants.py [name ...]

Each mutant is one named source edit.  It is applied to a copy of the
repository in a temporary directory, never to the working tree, and the
tier-1 suite runs in that copy without the slow acceptance criteria 2-4,
stopping at its first failure, and without test_mutants.py, which checks
each edit's text and so fails on every mutant.  A mutant is killed when the
suite fails and survives when it passes: a survivor is an edit no test can
see, a missing oracle.  The unmutated copy runs first and must pass, or
every mutant would read killed.  Prints one line per mutant and exits 1
when any survives.
Equivalent mutants, left out of MUTANTS because no test can kill them:
- arith._EXTRACT_FLOOR 2^-1000 -> 2^-1070.  Under IEEE gradual underflow a
  level whose sigma is below 2^-1021 extracts the whole remainder exactly
  (every float is a multiple of 2^-1074), so the parts keep their fsum;
  40 000 random rows with exponents down to -1074 agree with list fsum at
  2^-1070 and at 0.  The floor keeps the extraction in the normal range,
  which matters only where subnormals flush to zero.
Pytest does not collect this file (it does not match test_*.py); tier-1's
test_mutants.py checks that each edit's text still occurs once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file, the text the edit replaces, which must occur once, its replacement)
MUTANTS = {
    "_BAND = 0": ("src/cygshell/counting.py", "_BAND = 1e-6", "_BAND = 0.0"),
    "_BAND = 1e-12": ("src/cygshell/counting.py", "_BAND = 1e-6", "_BAND = 1e-12"),
    "float bound _BAND / 4 -> _BAND * 4": ("src/cygshell/counting.py", ">= _BAND / 4:",
                                           ">= _BAND * 4:"),
    "band psi left as the float psi": ("src/cygshell/counting.py",
                                       "                s[i] = _psi_exact(d, Q2)\n",
                                       "                pass\n"),
    "band floor left as the float floor": ("src/cygshell/counting.py",
                                           "            w[i] = math.isqrt(d) // Q2\n",
                                           "            pass\n"),
    "floor-sum bound dropped": ("src/cygshell/counting.py", "if mmax * r2_sum >= 1 << 53:",
                                "if False:"),
    "_psi_exact without its third Newton step": ("src/cygshell/counting.py",
                                                 "    s1 = 0.5 * (s1 + v / s1)\n    frac = ",
                                                 "    frac = "),
    "_EXTRACT_CEILING = 2^1000": ("src/cygshell/arith.py", "_EXTRACT_CEILING = 2.0 ** 900",
                                  "_EXTRACT_CEILING = 2.0 ** 1000"),
    "on_grid accepts NaN": ("src/cygshell/gapwidth.py", "bad = ~((w > 0) & (w < math.inf))",
                            "bad = (w <= 0) | (w == math.inf)"),
    "mixture columns not gathered back": ("src/cygshell/spectra.py",
                                          "np.take(vals, inverse, axis=1",
                                          "np.take(vals, np.sort(inverse), axis=1"),
    "numerator cap admits 2^26 + 1": ("src/cygshell/counting.py", "self.k > _MAX_K:",
                                      "self.k > _MAX_K + 1:"),
    "SampleGrid cap S <= XQ/2": ("src/cygshell/stats.py", "self.S > self.X * self.Q / 4:",
                                 "self.S > self.X * self.Q / 2:"),
    "SampleGrid cap checked only at its points": (
        "src/cygshell/stats.py",
        "        RadiusPoint(k=hi, Q=self.Q)  # the exactness cap, checked before any point is built\n",
        ""),
    "expand keeps the config's mode": ("src/cygshell/cli.py",
                                       'cfg = replace(cfg, mode="exact") if sawtooth else cfg',
                                       "cfg = cfg"),
    "_fmt .17g -> .16g": ("src/cygshell/stats.py", 'format(float(value), ".17g")',
                          'format(float(value), ".16g")'),
    "_SINGULAR_NODE_FLOOR = 0": ("src/cygshell/spectra.py", "_SINGULAR_NODE_FLOOR = 1e-9",
                                 "_SINGULAR_NODE_FLOOR = 0.0"),
    "_power_centre headroom + 1": ("src/cygshell/spectra.py", ".bit_length() + 2",
                                   ".bit_length() + 1"),
    "torus midpoint rule above 64 nodes": ("src/cygshell/spectra.py", "    if n <= 1024:\n",
                                           "    if n <= 64:\n"),
    "d4 without the 2 + 2 term": ("src/cygshell/voronoi.py",
                                  "np.mean(p4 + 3.0 * (p2 * p2 - s22))", "np.mean(p4)"),
    "lower tail read as 1 - erfc/2": ("src/cygshell/stats.py",
                                      "    np.copyto(x, tail, where=neg)\n", ""),
    "one-sided bracket": ("src/cygshell/stats.py",
                          "np.maximum(ref[1:] - (j + 1) / n, k / n - ref[:-1])",
                          "ref[1:] - (j + 1) / n"),
    "_KS_MARGIN = 0": ("src/cygshell/stats.py", "_KS_MARGIN = 1e-12  #", "_KS_MARGIN = 0.0  #"),
    "_ROOT_FLOOR = 1e-12": ("src/cygshell/gapwidth.py", "_ROOT_FLOOR = 1e-9",
                            "_ROOT_FLOOR = 1e-12"),
    "m_j accepts omega = 1": ("src/cygshell/stats.py", "np.any(w >= 1)", "np.any(w > 1)"),
    "SERIES_PREFACTOR without sqrt 2": ("src/cygshell/voronoi.py",
                                        "SERIES_PREFACTOR = 2.0 ** 1.5 / math.pi",
                                        "SERIES_PREFACTOR = 2.0 / math.pi"),
    "snap_outer_radius truncates": ("src/cygshell/counting.py",
                                    "round((x.value + gap) * inner.Q)",
                                    "int((x.value + gap) * inner.Q)"),
    "_legendre_rule stops at 1e-6": ("src/cygshell/spectra.py", "np.abs(step).max() < 1e-12",
                                     "np.abs(step).max() < 1e-6"),
    "build_r2 counts the axis 8 times": ("src/cygshell/arith.py",
                                         "                blk[row[0]] -= 4\n",
                                         "                pass\n"),
    "build_r2 counts the diagonal 8 times": ("src/cygshell/arith.py",
                                             "                blk[row[-1]] -= 4\n",
                                             "                pass\n"),
    "cond3a_ratio over X": ("src/cygshell/gapwidth.py", "/ math.sqrt(X),", "/ X,"),
}

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 "*.egg-info", "out")


def run_suite(copy: Path) -> tuple[bool, str]:
    """(passed, the first failure's summary line) of tier-1 without criteria
    2-4 and test_mutants.py."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--ignore=tests/test_mutants.py",
         "-k", "not criterion_02 and not criterion_03 and not criterion_04"],
        cwd=copy, env=env, capture_output=True, text=True, timeout=1800)
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, (failed[0] if failed else proc.stdout.strip().splitlines()[-1])


def run_mutant(name: str | None) -> tuple[bool, str]:
    """Apply the named edit (none for None) to a fresh copy and run the suite."""
    with tempfile.TemporaryDirectory(prefix="cygshell-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        if name is not None:
            rel, old, new = MUTANTS[name]
            path = copy / rel
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"mutant {name!r}: {old!r} occurs {text.count(old)} times "
                                 f"in {rel}, not once")
            path.write_text(text.replace(old, new))
        return run_suite(copy)


def main(names) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants {unknown}; known: {list(MUTANTS)}")
    passed, line = run_mutant(None)
    if not passed:
        raise SystemExit(f"the unmutated suite fails: {line}")
    survivors = 0
    for name in names or MUTANTS:
        passed, line = run_mutant(name)
        survivors += passed
        print(f"{'survived' if passed else 'killed  '}  {name}  ({line})", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
