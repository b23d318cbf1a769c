#!/usr/bin/env python3
"""uavcache benchmark: end-to-end or per-layer metrics of one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are the directories under perfbench/workloads/, each holding the
YAML configs it loads. Every repetition runs in a fresh child process
(perfbench/child.py), so the package's process-global table cache starts
cold as it does for a user's `uavcache sweep`. --seed replaces every sweep
seed, which drives the per-row seeds, the LRU traces and the Monte Carlo
draws.

--trace 0 runs one discarded warm-up child, SETUP_PROBES children that only
import the package and load the configs, then whole-workload repetitions
while the next one fits in --seconds (at least one). It reports the medians
over repetitions of:

  setup_s       child spawn to configs loaded (import uavcache + load_config);
                also sampled in the probe children
  rows_per_s    CSV rows / wall time from the first run_sweep call to the
                end of the last emit_csv
  peak_rss_mb   the child's peak resident set size
  s_to_1pct_ci  wall time to bring every row to a 95% CI of +-1% of its
                value: a Monte Carlo row costs wall_row * (half_width /
                (0.01 |mean|))^2, where wall_row is the time of the row's own
                sweep block; an analytic row is deterministic to rel_tol 1e-6
                and costs its share of its block's wall time

--trace 1 runs pairs of one untraced and one traced repetition while the
next pair fits in --seconds (at least one), and reports the per-layer
metrics of the traced repetitions (median over them) and
trace.overhead_share = traced wall / untraced wall - 1.

Every CSV row of every repetition passes through the correctness gate
(perfbench/gate.py), whose self-test runs in every run. Repetitions of one
seed must write byte-identical CSVs, traced or not. The last stdout line is
the result object; the line before it holds the provenance and the CSV
SHA-256 fingerprints, and .perfbench-runs/<workload>-seed<N>-trace<T>/
keeps the CSVs, spans and a full record of the run.
"""
import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import gate  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
CACHING_FNS = ("solve_rcp", "mpc_policy", "lru_che", "lru_empirical_policy")


def spawn(workload, seed, out, deadline, trace=False, setup_only=False):
    """Run one child to completion and return its result.json, with setup_s
    (spawn to configs loaded), elapsed_s and dir added."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(5.0, deadline - time.monotonic())
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    elapsed = time.monotonic() - t_spawn
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    with open(out / "result.json", encoding="utf-8") as fh:
        res = json.load(fh)
    res["setup_s"] = res["t_loaded"] - t_spawn
    res["elapsed_s"] = elapsed
    res["dir"] = str(out)
    return res


def read_csvs(rep):
    """Parse the repetition's CSVs into rows and SHA-256 fingerprints."""
    rows, digests = {}, {}
    for name in rep["csvs"]:
        data = (Path(rep["dir"]) / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        rows.update(gate.parse_csv(Path(name).stem, data.decode("utf-8")))
    rep["rows"], rep["sha256"] = rows, digests


def s_to_1pct_ci(rep):
    """Seconds to bring every row of the repetition to a +-1% 95% CI."""
    # scenario ids are '<sweep name>-<row index>', block keys '<csv stem>/<sweep name>'
    blocks = [key.rsplit("-", 1)[0] for key in rep["rows"]]
    rows_in = Counter(blocks)
    total = 0.0
    for block, row in zip(blocks, rep["rows"].values()):
        wall_row = rep["block_wall_s"][block] / rows_in[block]
        if row["method"] == "monte_carlo":
            half_width = 1.96 * float(row["stderr"])
            wall_row *= (half_width / (0.01 * abs(float(row["capacity_bits"])))) ** 2
        total += wall_row
    return total


def quantile_tail(samples):
    """Highest percentile with ten samples beyond it; with fewer than eleven
    samples no percentile qualifies and the maximum stands in."""
    s = sorted(samples)
    return s[len(s) - 11] if len(s) >= 11 else (s[-1] if s else 0.0)


def unit_of(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".p50", ".tail")):
        return "s"
    if name.endswith("ns_per_cell"):
        return "ns"
    if name.endswith(("_ratio", "_share")):
        return "share"
    return "count"


def layer_metrics(spans):
    """Per-layer counters and self times of one traced repetition."""
    dur = {}
    child_s = {}
    for sid, parent, name, t0, t1, _ in spans:
        dur[sid] = t1 - t0
        if parent >= 0:
            child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)

    def pick(name):
        return [s for s in spans if s[2] == name]

    def self_s(group):
        return sum(dur[s[0]] - child_s.get(s[0], 0.0) for s in group)

    def total_s(group):
        return sum(dur[s[0]] for s in group)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    kt = pick("channel.kernel_table")
    cells = sum(s[5] for s in kt)
    m["channel.kernel_table.calls"] = len(kt)
    m["channel.kernel_table.cells"] = cells
    m["channel.kernel_table.self_s"] = self_s(kt)
    m["channel.kernel_table.ns_per_cell"] = ratio(1e9 * self_s(kt), cells)

    link = [s for s in spans if s[2].startswith("channel.link.")]
    elements = sum(s[5] for s in link)
    m["channel.link.calls"] = len(link)
    m["channel.link.elements"] = elements
    m["channel.link.self_s"] = self_s(link)

    sc = pick("analytics.system_capacity")
    cold_ids = {s[0] for s in sc} & {s[1] for s in kt}
    cold = [s for s in sc if s[0] in cold_ids]
    m["analytics.system_capacity.calls"] = len(sc)
    m["analytics.system_capacity.self_s"] = self_s(sc)
    m["analytics.cold_builds"] = len(cold)
    m["analytics.table_hit_ratio"] = ratio(len(sc) - len(cold), len(sc))
    m["analytics.kernel_calls_per_cold_build"] = ratio(
        sum(1 for s in kt if s[1] in cold_ids), len(cold))
    ee = pick("analytics.energy_efficiency")
    m["analytics.energy_efficiency.calls"] = len(ee)
    m["analytics.energy_efficiency.self_s"] = self_s(ee)

    for fn in CACHING_FNS:
        group = pick(f"caching.{fn}")
        m[f"caching.{fn}.calls"] = len(group)
        m[f"caching.{fn}.self_s"] = self_s(group)
    lru = pick("caching.lru_empirical_policy")
    m["caching.lru_requests_per_s"] = ratio(sum(s[5] for s in lru), total_s(lru))

    est = pick("simulator.estimate_capacity")
    trials = sum(s[5] for s in est)
    m["simulator.estimate_capacity.calls"] = len(est)
    m["simulator.estimate_capacity.self_s"] = self_s(est)
    m["simulator.trials"] = trials
    m["simulator.trials_per_s"] = ratio(trials, total_s(est))
    m["simulator.link_elements_per_trial"] = ratio(elements, trials)
    see = pick("simulator.estimate_ee")
    m["simulator.estimate_ee.calls"] = len(see)
    m["simulator.estimate_ee.self_s"] = self_s(see)

    m["harness.run_sweep.self_s"] = self_s(pick("harness.run_sweep"))
    m["harness.emit_csv_s"] = total_s(pick("harness.emit_csv"))

    cold_s = [dur[s[0]] for s in cold]
    m["analytics.cold_call_s.p50"] = median(cold_s)
    m["analytics.cold_call_s.tail"] = quantile_tail(cold_s)
    return m


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable: not a git checkout"


def source_sha256():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".yaml"):
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    if not (ROOT / "src" / "uavcache" / "__init__.py").is_file():
        sys.exit(f"{ROOT / 'src' / 'uavcache'} not found: run from a checkout of the repository")
    all_refs = gate.load_reference()
    if args.workload not in all_refs:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(all_refs)}")
    refs = all_refs[args.workload]
    out = ROOT / ".perfbench-runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)

    counter = itertools.count()

    def child(**kw):
        return spawn(args.workload, args.seed, out / f"{next(counter):03d}", deadline, **kw)

    warm = child(setup_only=True)  # fills the bytecode and page caches
    probes = [] if args.trace else [child(setup_only=True) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    budget = t_start + args.seconds
    steps = []
    while not steps or time.monotonic() + statistics.fmean(steps) <= budget:
        t0 = time.monotonic()
        # traced pairs alternate their order so that a drift in machine speed
        # over the run does not land on one side of trace.overhead_share
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for trace in order if args.trace else (False,):
            (traced if trace else plain).append(child(trace=trace))
        steps.append(time.monotonic() - t0)

    failures, attempted, digests = [], 0, set()
    reps = plain + traced
    for rep in reps:
        read_csvs(rep)
        n, fails = gate.gate(rep["rows"], refs)
        attempted += n
        failures.extend(fails)
        rep["failed_rows"] = len(fails)
        digests.add(json.dumps(rep["sha256"], sort_keys=True))
    problems = gate.self_test(plain[0]["rows"], refs, all_refs)
    if len(digests) != 1:
        problems.append(f"repetitions of seed {args.seed} wrote {len(digests)} different CSV sets")

    if args.trace:
        per_rep = []
        for rep in traced:
            with open(Path(rep["dir"]) / "spans.json", encoding="utf-8") as fh:
                m = layer_metrics(json.load(fh))
            m["harness.rows"] = len(rep["rows"])
            m["harness.failed_rows"] = rep["failed_rows"]
            per_rep.append(m)
        values = {k: median([m[k] for m in per_rep]) for k in per_rep[0]}
        values["package.import_s"] = median([r["import_s"] for r in plain])
        values["harness.load_config_s"] = median([r["load_config_s"] for r in plain])
        values["trace.overhead_share"] = (median([r["wall_s"] for r in traced])
                                          / median([r["wall_s"] for r in plain]) - 1.0)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": median([r["setup_s"] for r in probes + plain]), "unit": "s"},
            "rows_per_s": {"value": median([len(r["rows"]) / r["wall_s"] for r in plain]),
                           "unit": "1/s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in plain]), "unit": "MB"},
            "s_to_1pct_ci": {"value": median([s_to_1pct_ci(r) for r in plain]), "unit": "s"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "provenance": dict(warm["provenance"], nproc=os.cpu_count(), cpu_model=cpu_model(),
                           git_commit=git_commit(), source_sha256=source_sha256()),
        "fingerprints": plain[0]["sha256"],
        "repetitions": {"untraced": len(plain), "traced": len(traced),
                        "setup_probes": len(probes)},
        "gate_failures": failures[:20],
        "self_test_problems": problems,
        "attempted": attempted, "failed": len(failures),
        "metrics": metrics,
        "elapsed_s": time.monotonic() - t_start,
    }
    with open(out / "record.json", "w", encoding="utf-8") as fh:
        json.dump(dict(record, raw=[{k: v for k, v in r.items() if k != "rows"}
                                    for r in [warm] + probes + reps]), fh, indent=1)
    print(json.dumps({k: record[k] for k in ("provenance", "fingerprints", "repetitions",
                                             "gate_failures", "self_test_problems")}))
    print(json.dumps({"correct": not failures and not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
