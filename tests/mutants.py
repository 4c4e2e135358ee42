"""Mutants of the exactness argument, the gap-width rule, the mixture
evaluator's shared columns, the normal CDF's branch choice and the KS
distance's pruning bound, run against the tier-1 suite.

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
                                       "                psi[i] = _psi_exact(d, Q2)\n",
                                       "                pass\n"),
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
    "lower tail read as 1 - erfc/2": ("src/cygshell/stats.py",
                                      "    np.copyto(x, tail, where=neg)\n", ""),
    "one-sided bracket": ("src/cygshell/stats.py",
                          "np.maximum(ref[1:] - (j + 1) / n, k / n - ref[:-1])",
                          "ref[1:] - (j + 1) / n"),
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
