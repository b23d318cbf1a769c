"""One benchmark repetition in a fresh process.

Run by perfbench/run.py, never by hand:

    python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

Imports uavcache from the checkout's src/, loads the workload's YAML files
with load_config, replaces every sweep seed with --seed, runs every sweep
block and writes one CSV per YAML file into DIR, the path the `uavcache sweep`
command takes (load_config -> run_sweep -> emit_csv). A fresh process keeps
the package's process-global table cache cold at the start, as it is for a
user.

With --trace, the names that caller modules imported from other modules are
rebound to wrappers that record one span per call (name, start, end, parent
span, and a size counted from the arguments). Spans stay in memory and are
written to DIR/spans.json at the end; run.py derives the per-layer metrics
from them. The bench-level calls (load_config, run_sweep, emit_csv) are timed
in every mode; they are what the untraced metrics are made of.

DIR/result.json receives the timings, the peak RSS and, with --setup-only,
the provenance of the interpreter and libraries.
"""
import argparse
import functools
import json
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_DIR = BENCH_DIR / "workloads"

# caller module -> {imported name: span name}; the rebinding goes into the
# caller because `from .channel import kernel_table` binds the function into
# the importing module's namespace
TRACED = {
    "uavcache.harness": {
        "system_capacity": "analytics.system_capacity",
        "energy_efficiency": "analytics.energy_efficiency",
        "solve_rcp": "caching.solve_rcp",
        "mpc_policy": "caching.mpc_policy",
        "lru_che": "caching.lru_che",
        "lru_empirical_policy": "caching.lru_empirical_policy",
        "estimate_capacity": "simulator.estimate_capacity",
        "estimate_ee": "simulator.estimate_ee",
    },
    "uavcache.analytics": {"kernel_table": "channel.kernel_table"},
    "uavcache.simulator": {
        "los_probability": "channel.link.los_probability",
        "shadowing_sigma_db": "channel.link.shadowing_sigma_db",
        "path_loss": "channel.link.path_loss",
        "shadowing_log_moments": "channel.link.shadowing_log_moments",
    },
}


class Tracer:
    """In-memory span recorder. Spans nest through one stack, so calls must
    come from one thread; the workloads leave simulation.n_jobs at 1."""

    def __init__(self):
        self.spans = []  # [id, parent id or -1, name, t0, t1, size]
        self._stack = []

    def _open(self, name, size):
        rec = [len(self.spans), self._stack[-1] if self._stack else -1,
               name, 0.0, 0.0, size]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn, None)(*args, **kwargs)

    def wrap(self, name, fn, size_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, size_of(args, kwargs) if size_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size_of(span_name):
    """Work counter taken from a traced call's arguments, or None."""
    import numpy as np

    if span_name == "channel.kernel_table":
        # cells = |z| * |v| of the (z, v) grid
        return lambda a, k: int(np.size(_arg(a, k, 0, "z")) * np.size(_arg(a, k, 1, "v")))
    if span_name.startswith("channel.link."):
        return lambda a, k: int(np.size(_arg(a, k, 0, "r")))
    if span_name == "simulator.estimate_capacity":
        def trials(a, k):
            cfg = _arg(a, k, 0, "cfg")
            content = _arg(a, k, 1, "content")
            live = float(cfg.policy.probabilities[content - 1]) > 0.0
            return int(_arg(a, k, 2, "n_trials")) if live else 0
        return trials
    if span_name == "caching.lru_empirical_policy":
        return lambda a, k: int(_arg(a, k, 2, "n_requests"))
    return None


def install_tracing(tracer):
    for module_name, names in TRACED.items():
        module = sys.modules[module_name]
        for attr, span_name in names.items():
            setattr(module, attr,
                    tracer.wrap(span_name, getattr(module, attr), _size_of(span_name)))


def provenance():
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def load_workload(uavcache, workload, tracer):
    """[(yaml stem, RunConfig)] for the workload's YAML files, sorted by name."""
    yamls = sorted((WORKLOAD_DIR / workload).glob("*.yaml"))
    if not yamls:
        raise SystemExit(f"no YAML files for workload {workload!r}")
    return [(p.stem, tracer.call("harness.load_config", uavcache.load_config, p))
            for p in yamls]


def run_workload(uavcache, configs, seed, out, tracer):
    """Run every sweep block with its seed replaced by `seed` and write one CSV
    per YAML file into `out`. Returns (wall_s, {block: wall_s}, [csv names])."""
    blocks = {}
    csvs = []
    t0 = time.perf_counter()
    for stem, run_cfg in configs:
        rows = []
        for spec in run_cfg.sweeps:
            spec = replace(spec, seed=seed)
            tb = time.perf_counter()
            rows.extend(tracer.call("harness.run_sweep", uavcache.run_sweep, spec))
            blocks[f"{stem}/{spec.name}"] = time.perf_counter() - tb
        path = out / f"{stem}.csv"
        tracer.call("harness.emit_csv", uavcache.emit_csv, rows, path)
        csvs.append(path.name)
    return time.perf_counter() - t0, blocks, csvs


def import_uavcache():
    sys.path.insert(0, str(ROOT / "src"))
    import uavcache
    return uavcache


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    uavcache = import_uavcache()
    t_import = time.perf_counter() - t0

    tracer = Tracer()
    if args.trace:
        install_tracing(tracer)
    t0 = time.perf_counter()
    configs = load_workload(uavcache, args.workload, tracer)
    t_load = time.perf_counter() - t0
    t_loaded = time.monotonic()

    result = {"t_loaded": t_loaded, "import_s": t_import, "load_config_s": t_load}
    if args.setup_only:
        result["provenance"] = provenance()
    else:
        wall, blocks, csvs = run_workload(uavcache, configs, args.seed, args.out, tracer)
        result.update(wall_s=wall, block_wall_s=blocks, csvs=csvs)
        if args.trace:
            with open(args.out / "spans.json", "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
