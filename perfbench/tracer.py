"""Run-time span recorder for the cygshell benchmark.

Wraps public functions of the installed package from outside: nothing in
`src/` carries a timer.  A wrapped call records a span (id, name, start,
end, parent, thread, attrs) in memory; spans are written out when the run
ends.  Parents are tracked per thread, so a span's self time is its duration
minus the durations of its direct children, which all ran on its thread.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _slices(args, kwargs, result):
    x, r2 = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "r2")
    return {"slices": r2.nonzero_count_upto(x.floor_sq),
            "bytes_per_slice": r2.nonzero_m.itemsize + r2.nonzero_values.itemsize}


def _terms(args, kwargs, result):
    r2, cutoff = _arg(args, kwargs, 2, "r2"), _arg(args, kwargs, 3, "cutoff")
    n = r2.nonzero_count_upto(cutoff)
    return {"terms": n - (1 if n and r2.nonzero_m[0] == 0 else 0)}


def _table(args, kwargs, result):
    arrays = (result.values, result.nonzero_m, result.nonzero_values,
              result.nonzero_prefix, result.nonzero_sqrt)
    return {"bytes": sum(a.nbytes for a in arrays), "nonzero": len(result.nonzero_m)}


def _shell(args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    return {"k": x.k, "Q": x.Q, "n_inner": result.n_inner, "n_outer": result.n_outer}


def _components(args, kwargs, result):
    return {"components": len(result[0])}


# name -> attrs(args, kwargs, result) or None.  A name is "module.attr" or
# "module.Class.attr", with the module relative to the cygshell package.
TRACED = {
    "arith.build_r2": _table,
    "counting.count_ball_fast": _slices,
    "counting.shell_sample": _shell,
    "counting.sawtooth_ball_sum": _slices,
    "voronoi.series_with_gap": _terms,
    "voronoi.expansion_rhs": None,
    "spectra.constrained_frequency_sum": None,
    "spectra.construction_moment": None,
    "spectra.phi_moment": None,
    "spectra.density_moment": None,
    "spectra.density_eval": None,
    "spectra.mixture_components": _components,
    "stats.sample_errors": None,
    "stats.mixture_cdf": None,
    "stats.ks_distance": None,
    "stats.write_samples_csv": None,
    "stats.write_distribution_csv": None,
    "stats.EmpiricalDistribution.from_samples": None,
    "gapwidth.GapWidth.value": None,
    "gapwidth.make_almost_periodic": None,
    "cli.main": None,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cygshell" or name.startswith("cygshell."))]


def rebind(old, new) -> int:
    """Replace every binding of `old` in a cygshell module namespace by `new`.

    Modules import from each other by name (stats and voronoi bind
    counting's functions), so patching only the defining module would miss
    the calls those modules make.  Returns the number of bindings replaced.
    """
    hits = 0
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                hits += 1
    return hits


def lookup(name: str):
    """(owner, attr, object) for a traced name, or None when it is missing."""
    parts = name.split(".")
    owner = sys.modules.get("cygshell." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
    if owner is None or parts[-1] not in vars(owner):
        return None
    return owner, parts[-1], vars(owner)[parts[-1]]


class Tracer:
    """Installs span-recording wrappers; `spans` holds the records."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def install(self, names=TRACED) -> None:
        for name, attrs in names.items():
            found = lookup(name)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, obj = found
            if isinstance(obj, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, obj.__func__, attrs)))
            elif isinstance(owner, type):
                setattr(owner, attr, self._wrap(name, obj, attrs))
            else:
                rebind(obj, self._wrap(name, obj, attrs))

    def _wrap(self, name, fn, attrs):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = None
            if attrs is not None:
                try:
                    extra = attrs(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    extra = None  # a changed signature loses the attrs, not the run
            spans.append((sid, name, start, end, parent, threading.get_ident(), extra))
            return result

        traced.__wrapped__ = fn
        return traced
