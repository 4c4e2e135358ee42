"""Command-line experiment runner.

Subcommands: count, sample, moments, expand, density, diagnose, selftest.
All artifacts are CSV/JSON with full-precision floats; identical configs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import arith, counting, gapwidth, spectra, stats, voronoi

EXIT_OK = 0
EXIT_TEST_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# ThreadPoolExecutor's own default ceiling on its worker count
MAX_THREADS = 32


@dataclass(frozen=True)
class ExperimentConfig:
    """One sampling experiment: which gap width, which window, how many points."""

    omega: dict
    X: float
    samples: int
    Q: int = 64
    mode: str = "exact"
    j_max: int = 4
    phase: float = 0.5
    threads: int = 1
    out: str = "."

    def __post_init__(self):
        for name in ("samples", "Q", "j_max", "threads", "X", "phase"):
            value = getattr(self, name)
            kind, what = (numbers.Real, "a number") if name in ("X", "phase") else (int, "an integer")
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {what}, not {value!r}")
        if not (math.isfinite(self.X) and self.X >= 10):
            raise ValueError(f"X = {self.X} must be finite and >= 10")
        if self.samples < 10:
            raise ValueError("samples must be >= 10")
        if self.Q < 1:
            raise ValueError("Q must be >= 1")
        if self.j_max not in (2, 4, 6, 8):
            raise ValueError("j_max must be one of 2, 4, 6, 8")
        if self.mode not in ("exact", "fast"):
            raise ValueError("mode must be exact or fast")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError(f"threads must lie in 1..{MAX_THREADS}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            return cls(**json.loads(text))
        except TypeError as exc:  # not an object, an unknown or missing field, a bad type
            raise ValueError(f"config: {exc}") from None


def _parse_radius(text: str) -> counting.RadiusPoint:
    num, slash, den = text.partition("/")
    try:
        if slash:
            k, Q = int(num), int(den)
        else:
            value = float(text)
    except ValueError:
        raise ValueError(f"--x must be a number or a ratio k/Q of integers, "
                         f"not {text!r}") from None
    if slash:
        return counting.RadiusPoint(k=k, Q=Q)
    if not math.isfinite(value):
        raise ValueError(f"--x must be finite, not {text!r}")
    if value == int(value):
        return counting.RadiusPoint(k=int(value), Q=1)
    return counting.RadiusPoint.from_value(value, 64)


def _gap_json(args) -> dict:
    """The gap-width spec: the --config file's first, else --omega-spec, else --omega."""
    if args.config:
        return ExperimentConfig.from_json(Path(args.config).read_text()).omega
    if args.omega_spec:
        return json.loads(Path(args.omega_spec).read_text())
    return {"kind": args.omega}


def _config_from_args(args) -> ExperimentConfig:
    """The experiment a sampling command runs.

    A --config file wins over the flags; otherwise the fields come from the
    flags this subcommand registers, with the gap width from _gap_json.
    --out, when given, replaces the config's out.
    """
    if args.config:
        cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    else:
        flags = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                 if f.name not in ("omega", "out") and hasattr(args, f.name)}
        cfg = ExperimentConfig(omega=_gap_json(args), **flags)
    return cfg if args.out is None else replace(cfg, out=args.out)


def _experiment(cfg: ExperimentConfig):
    """The gap width, sample grid and r2 table of a sampling experiment; in
    exact mode the top grid point's shell is snapped and checked first, so a
    radius past the exactness cap or the float exactness bound fails before
    the table is allocated."""
    omega = gapwidth.gap_from_json(cfg.omega)
    grid = stats.SampleGrid(X=cfg.X, S=cfg.samples, Q=cfg.Q, phase=cfg.phase)
    if cfg.mode == "exact":
        top = grid.points[-1]
        counting.check_float_exactness(
            counting.snap_outer_radius(top, float(omega.value(top.value)))[0])
    return omega, grid, arith.build_r2(stats.r2_limit(cfg.X, cfg.mode))


def cmd_count(args) -> int:
    x = _parse_radius(args.x)
    results = {}
    if args.both or args.method == "brute":  # first: its radius cap fails before any table
        results["brute"] = counting.count_ball_brute(x)
    if args.both or args.method == "fast":
        counting.check_float_exactness(x)
        results["fast"] = counting.count_ball_fast(x, arith.build_r2(x.floor_sq + 1))
    if args.both and results["fast"] != results["brute"]:
        print(f"DISAGREEMENT: fast={results['fast']} brute={results['brute']}")
        return EXIT_TEST_FAILURE
    print(f"{results[args.method]} (methods agree)" if args.both else results[args.method])
    return EXIT_OK


def cmd_sample(args) -> int:
    cfg = _config_from_args(args)
    omega, grid, r2 = _experiment(cfg)
    rows = stats.sample_shells(omega, grid, r2, cfg.mode, cfg.threads)
    dist = stats.EmpiricalDistribution.from_samples([s.normalized for s in rows],
                                                    j_max=cfg.j_max)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    stats.write_samples_csv(out / "samples.csv", rows)
    stats.write_distribution_csv(out / "distribution.csv", dist)
    ks = stats.ks_distance(dist, stats.normal_cdf)
    (out / "summary.json").write_text(stats.summary_json(cfg.X, cfg.samples, dist, ks))
    print(f"wrote {out}/samples.csv, distribution.csv, summary.json (ks_normal={ks:.4f})")
    return EXIT_OK


def cmd_moments(args) -> int:
    cfg = _config_from_args(args)
    omega, grid, r2 = _experiment(cfg)
    values = stats.sample_errors(omega, grid, r2, mode=cfg.mode, threads=cfg.threads)
    dist = stats.EmpiricalDistribution.from_samples(values, j_max=cfg.j_max)
    m2 = stats.m_j(omega, cfg.X, cfg.samples, 2)
    summary = {
        "X": cfg.X,
        "S": cfg.samples,
        "mode": cfg.mode,
        "sigma2": dist.sigma ** 2,
        "m2": m2,
        "variance_ratio_32m2": dist.sigma ** 2 / (32.0 * m2),
        "moments": {str(j): dist.moments[j] for j in sorted(dist.moments)},
        "predicted_even_moments": {
            str(j): spectra.predicted_moment(None, j) for j in range(2, cfg.j_max + 1, 2)
        },
    }
    text = stats.dump_json(summary)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "moments.json").write_text(text)
    print(text)
    return EXIT_OK


def cmd_expand(args) -> int:
    cfg = replace(_config_from_args(args), mode="exact")  # expand always counts exactly
    omega, grid, r2 = _experiment(cfg)
    X = cfg.X
    rows = []
    for s in stats.sample_shells(omega, grid, r2, "exact", cfg.threads, sawtooth=True):
        rhs = voronoi.expansion_rhs(s, X, r2)
        rows.append((s.x, s.normalized, rhs, abs(s.normalized - rhs)))
    resid = np.array([r[3] for r in rows])
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "expansion.csv", "w", encoding="utf-8") as fh:
        fh.write("x,ehat,rhs,residual\n")
        for x, ehat, rhs, res in rows:
            fh.write(",".join(format(v, ".17g") for v in (x, ehat, rhs, res)) + "\n")
    summary = {"X": X, "S": cfg.samples,
               "median_residual": float(np.median(resid)),
               "q95_residual": float(np.quantile(resid, 0.95))}
    print(stats.dump_json(summary))
    return EXIT_OK


def cmd_density(args) -> int:
    alphas = [float(a) for a in args.alpha]
    if not all(math.isfinite(a) for a in alphas):
        raise ValueError(f"--alpha must be finite, got {' '.join(args.alpha)}")
    spec_obj = json.loads(Path(args.spec).read_text())
    spec = gapwidth.density_spec_from_json(spec_obj, quad_points=args.quad_points)
    values = dict(zip((format(a, ".17g") for a in alphas),
                      spectra.density_eval(spec, np.array(alphas)).tolist()))
    summary = {
        "density": values,
        "mass": spectra.density_moment(spec, 0),
        "moment2": spectra.density_moment(spec, 2),
        "moment4": spectra.density_moment(spec, 4),
        "predicted_moment4": spectra.predicted_moment(spec, 4),
    }
    print(stats.dump_json(summary))
    return EXIT_OK


def cmd_diagnose(args) -> int:
    omega = gapwidth.gap_from_json(_gap_json(args))
    diag = gapwidth.omega_diagnostics(omega, args.X, scan_points=args.scan_points)
    print(stats.dump_json(asdict(diag)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest fixtures
# ---------------------------------------------------------------------------

def _check(ok: bool, what: str) -> None:
    """Raise AssertionError(what) unless ok; unlike assert, -O keeps it."""
    if not ok:
        raise AssertionError(what)


def _fixtures():
    def counts():
        r2 = arith.build_r2(120)
        for k, Q, n in ((1, 1, 7), (1, 2, 1), (2, 1, 69)):
            p = counting.RadiusPoint(k, Q)
            _check(counting.count_ball_fast(p, r2) == counting.sawtooth_ball_sum(p, r2)[0] == n,
                   f"both kernels count N({k}/{Q}) = {n}")
        for k, Q in ((1, 1), (2, 1), (3, 7), (10, 7), (31, 7), (59, 7)):
            p = counting.RadiusPoint(k, Q)
            _check(counting.count_ball_fast(p, r2) == counting.count_ball_brute(p),
                   f"N({k}/{Q}) = brute force")
        one = counting.RadiusPoint(1, 1)
        _check(counting.sawtooth_ball_sum(one, r2) == (7, -2.0), "sawtooth pass at 1 = (7, -2)")
        outer, gap = counting.snap_outer_radius(one, 0.0)
        _check(outer.value == 1.0 and gap == 0.0, "a zero gap snaps to the inner radius")

    def r2_values():
        r2 = arith.build_r2(25)
        r = {0: 1} | dict(zip(r2.nonzero_m.tolist(), r2.nonzero_values.tolist()))
        _check([r.get(m, 0) for m in range(11)] == [1, 4, 4, 0, 4, 8, 0, 0, 4, 4, 8], "r2(0..10)")
        _check(r.get(25) == 12, "r2(25) = 12")
        _check(list(r2.nonzero_m[:6]) == [1, 2, 4, 5, 8, 9], "compressed m")
        _check(sum(r.get(m, 0) ** 2 for m in range(1, 11)) == 208, "sum of r2^2 to 10")
        p = [1e16, 1.0, -1e16, 0.1, -0.3, 3.0 * 2 ** -60]  # a plain sum loses the 1.0
        _check(math.fsum(arith.exact_parts(np.array(p))) == math.fsum(p), "exact_parts fsum")

    def spectra_exact():
        phi = spectra.phi_from_poly([1, 1])
        _check([spectra.phi_moment(phi, j) for j in (1, 2, 3, 4)] == [2, 6, 20, 70], "phi moments")
        spec = spectra.DensitySpec(mode="product", phis=(phi,))
        cx = spectra.DensitySpec(mode="product", phis=(spectra.phi_from_poly([1, 1j]),
                                                         spectra.phi_from_poly([2, 1])))
        for d, j in ((spec, 2), (spec, 4), (spec, 6), (cx, 4)):
            _check(spectra.constrained_frequency_sum(d, j) == spectra.construction_moment(d, j),
                   f"frequency sum = moment, j = {j}")
        _check([spectra.predicted_moment(None, j) for j in (2, 4, 6)] == [1, 3, 15], "Gaussian")

    def gap_forms():
        om = gapwidth.make_slowly_varying("inv_log")
        _check(abs(float(om.value(math.e)) - 1.0) < 1e-12, "inv_log(e) = 1")
        _check(abs(float(om.d1(math.e)) + 1.0 / math.e) < 1e-12, "inv_log'(e) = -1/e")
        ap = gapwidth.make_almost_periodic(gapwidth.AlmostPeriodicGap(
            polys=((1.0,),), lambdas=(1.0,), exponent=2, mode="product"))
        _check(abs(float(ap.value(1e3)) - math.log(1e3) ** -2) < 1e-12, "constant construction")

    def zero_relations():
        _check(voronoi.sum_sqrt_is_zero([1, -1], [2, 2]), "sqrt 2 - sqrt 2 = 0")
        _check(voronoi.sum_sqrt_is_zero([1, 1, -1], [2, 8, 18]), "sqrt 2 + sqrt 8 - sqrt 18 = 0")
        _check(not voronoi.sum_sqrt_is_zero([1, -1], [2, 3]), "sqrt 2 - sqrt 3 != 0")

    def stats_basics():
        _check(abs(stats.normal_cdf(1.96) - 0.9750021048517795) < 1e-9, "normal_cdf(1.96)")
        dist = stats.EmpiricalDistribution.from_samples([1.0, -1.0] * 20)
        _check(abs(dist.moments[2] - 1.0) < 1e-12, "second moment of +-1")
        phi = spectra.phi_from_poly([1, 1])
        spec = spectra.DensitySpec(mode="product", phis=(phi,))
        _check(abs(stats.mixture_cdf(spec, 0.0) - 0.5) < 1e-12, "mixture_cdf(0) = 1/2")

    return [
        ("counting_fixtures", counts),
        ("r2_fixtures", r2_values),
        ("spectra_exact_identities", spectra_exact),
        ("gapwidth_closed_forms", gap_forms),
        ("sqrt_zero_relations", zero_relations),
        ("stats_basics", stats_basics),
    ]


def cmd_selftest(_args) -> int:
    failures = []
    passed = 0
    for name, fn in _fixtures():
        try:
            fn()
            passed += 1
            print(f"PASS {name}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures.append(name)
            print(f"FAIL {name}: {exc}")
    print(f"{passed} passed, {len(failures)} failed")
    if failures:
        print("failing fixtures:", ", ".join(failures))
        return EXIT_TEST_FAILURE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cygshell",
                                 description="lattice shell counting and error statistics")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="lattice points in a ball of radius k/Q")
    p.add_argument("--x", required=True, help="radius, e.g. 3/2 or 1.5")
    p.add_argument("--method", choices=("fast", "brute"), default="fast")
    p.add_argument("--both", action="store_true", help="run both methods and compare")
    p.set_defaults(fn=cmd_count)

    def sampling_flags(p):
        p.add_argument("--omega", default="inv_log",
                       choices=gapwidth.SLOWLY_VARYING_KINDS)
        p.add_argument("--omega-spec", help="JSON gap-width spec file")
        p.add_argument("--config", help="ExperimentConfig JSON file; replaces every flag but --out")
        p.add_argument("--X", type=float, default=100.0)
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--Q", type=int, default=64)
        p.add_argument("--phase", type=float, default=0.5)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", help="artifact directory (default: the config's, else .)")

    def mode_flags(p):
        p.add_argument("--mode", choices=("exact", "fast"), default="exact")
        p.add_argument("--j-max", dest="j_max", type=int, default=4)

    p = sub.add_parser("sample", help="sample normalized shell errors over (X, 2X)")
    sampling_flags(p)
    mode_flags(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("moments", help="variance and moment summary of the samples")
    sampling_flags(p)
    mode_flags(p)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("expand", help="residuals of the trigonometric expansion")
    sampling_flags(p)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("density", help="limiting mixture density evaluation")
    p.add_argument("--spec", required=True, help="JSON density spec file")
    p.add_argument("--alpha", nargs="+", default=["0"])
    p.add_argument("--quad-points", dest="quad_points", type=int, default=64)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("diagnose", help="regularity diagnostics of a gap width")
    p.add_argument("--omega", default="inv_log", choices=gapwidth.SLOWLY_VARYING_KINDS)
    p.add_argument("--omega-spec", help="JSON gap-width spec file")
    p.add_argument("--config", help="ExperimentConfig JSON file")
    p.add_argument("--X", type=float, default=1000.0)
    p.add_argument("--scan-points", dest="scan_points", type=int, default=10_000)
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("selftest", help="run the built-in fixture suite")
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OverflowError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
