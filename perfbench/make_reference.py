"""Regenerate perfbench/reference.json, the shipped expected outputs.

    python3 perfbench/make_reference.py [--seeds 20] [--workloads NAME ...]

Run only when a change is meant to alter outputs.  For every workload and
seed 0 .. N-1 it runs one traced repetition and stores the artifact digests
and the digest of every (n_inner, n_outer) (CLI workloads) or the KS values
(mixture).  The mixture's seed-independent exact values (l_j, the frequency
identities) and density moments are stored once; each identity is checked to
hold before it is stored.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import OUT_DIR, REFERENCE, choose_phase, counts_digest, run_rep, sha256_file
from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    args = ap.parse_args()
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for workload in args.workloads:
        spec = WORKLOADS[workload]
        entry = reference[workload] = {"seeds": {}}
        for seed in range(args.seeds):
            phase, _ = choose_phase(spec, seed)
            out = OUT_DIR / f"reference-{workload}-{seed}"
            rep = run_rep(workload, phase, out, traced=True)
            if "data" not in rep:
                print(rep["log"], file=sys.stderr)
                return 1
            data = rep["data"]
            if spec["kind"] == "cli":
                entry["seeds"][str(seed)] = {
                    "phase": phase,
                    "artifacts": {n: sha256_file(out / n) for n in spec["artifacts"]},
                    "counts": counts_digest(data["spans"])[0],
                }
            else:
                entry["seeds"][str(seed)] = {"phase": phase, "ks_normal": data["ks_normal"],
                                             "ks_mixture": data["ks_mixture"]}
                if any(lhs != rhs for lhs, rhs in data["identities"]):
                    print("frequency identity fails; not storing it", file=sys.stderr)
                    return 1
                entry.update(density_moments=data["density_moments"], l_j=data["l_j"],
                             identities=[lhs for lhs, _ in data["identities"]])
            shutil.rmtree(out)
            print(workload, seed, phase, flush=True)
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
