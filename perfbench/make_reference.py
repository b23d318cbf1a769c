#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the correctness gate's reference rows.

Usage: python3 perfbench/make_reference.py

Runs every workload in this process on the checked-out program:

- analytic rows with deterministic placement become `exact` references;
- lru_empirical rows are run for every seed in SEEDED_SEEDS and become
  `seeded` references (mean and sample standard deviation per row);
- Monte Carlo rows are rerun with method analytic, and that capacity becomes
  their `mc` reference.

Regenerate only at a commit whose numbers are the accepted baseline. A change
that moves the numbers on purpose regenerates the file and says why.
"""
import json
import shutil
import statistics
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import child  # noqa: E402
import gate  # noqa: E402

SEEDED_SEEDS = range(20)
SCRATCH = child.ROOT / ".perfbench-runs" / "reference"


def run_rows(uavcache, configs, seed):
    out = SCRATCH / f"seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    _, _, csvs = child.run_workload(uavcache, configs, seed, out, child.Tracer())
    rows = {}
    for name in csvs:
        rows.update(gate.parse_csv(Path(name).stem, (out / name).read_text(encoding="utf-8")))
    return rows


def columns(row, **override):
    skip = ("scenario_id",) + gate.METRIC_COLUMNS
    return dict({k: v for k, v in row.items() if k not in skip}, **override)


def main():
    uavcache = child.import_uavcache()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    refs = {}
    for wdir in sorted(p for p in child.WORKLOAD_DIR.iterdir() if p.is_dir()):
        configs = child.load_workload(uavcache, wdir.name, child.Tracer())
        mc_trials = {spec.name: spec.trials for _, rc in configs for spec in rc.sweeps
                     if "monte_carlo" in spec.methods}
        if mc_trials:
            configs = [(stem, replace(rc, sweeps=tuple(replace(s, methods=("analytic",))
                                                      for s in rc.sweeps)))
                       for stem, rc in configs]
        rows = run_rows(uavcache, configs, 0)
        seeded = [k for k, r in rows.items() if r["policy"] == "lru_empirical"]
        samples = {k: [] for k in seeded}
        if seeded:
            for seed in SEEDED_SEEDS:
                seed_rows = run_rows(uavcache, configs, seed)
                for k in seeded:
                    samples[k].append(seed_rows[k])
        w = {}
        for key, row in rows.items():
            if row["method"] != "analytic":
                raise SystemExit(f"{wdir.name} {key}: reference row did not evaluate")
            block = key.split("/")[1].rsplit("-", 1)[0]
            if block in mc_trials:
                w[key] = {"kind": "mc", "capacity_bits": float(row["capacity_bits"]),
                          "columns": columns(row, method="monte_carlo",
                                             n_trials=str(mc_trials[block]))}
            elif key in samples:
                stats = {}
                for name in ("capacity_bits", "ee_bits_per_joule"):
                    vals = [float(r[name]) for r in samples[key]]
                    stats[name] = {"mean": statistics.fmean(vals), "sd": statistics.stdev(vals)}
                w[key] = dict(kind="seeded", columns=columns(row),
                              n_seeds=len(SEEDED_SEEDS), **stats)
            else:
                w[key] = {"kind": "exact", "columns": columns(row),
                          "capacity_bits": float(row["capacity_bits"]),
                          "ee_bits_per_joule": float(row["ee_bits_per_joule"])}
        refs[wdir.name] = w
        print(f"{wdir.name}: {len(w)} reference rows", file=sys.stderr)
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    main()
