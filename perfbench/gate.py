"""Correctness gate: every CSV row of a run against perfbench/reference.json.

Reference kinds (one per row, captured by make_reference.py):

- exact: deterministic analytic rows. capacity_bits and ee_bits_per_joule
  must match within REL_TOL relative, the tolerance ROADMAP sets for the
  analytic engine.
- seeded: lru_empirical rows, whose placement comes from an LRU trace drawn
  from the row seed. Both numbers must lie within SEEDED_SIGMAS standard
  deviations of their mean over the reference seeds.
- mc: Monte Carlo rows. capacity_bits must lie within MC_SIGMAS of its own
  stderr of the analytic capacity of the same scenario, so the check holds on
  any seed (measured 0.1-0.4 sigma at 10k trials). ee_bits_per_joule is not
  cross-checked: the column holds the approximate analytic estimand in
  analytic rows and the exact one in Monte Carlo rows (6.46e-08 against about
  2e-05 at the default point), a known defect that the benchmark records and
  does not work around.

In every kind the scenario columns (env, policy, method, density, altitude,
radius, B, F, S, kappa, n_trials) must equal the reference exactly. A row
with method=failed, a row missing from the run and a row the reference does
not know all count as failed.
"""
import csv
import io
import json
import math
from pathlib import Path

REL_TOL = 1e-6
SEEDED_SIGMAS = 6.0
MC_SIGMAS = 5.0
METRIC_COLUMNS = ("capacity_bits", "ee_bits_per_joule", "stderr", "seed")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def parse_csv(stem, text):
    """Rows of one CSV keyed '<stem>/<scenario_id>', in file order."""
    return {f"{stem}/{r['scenario_id']}": r for r in csv.DictReader(io.StringIO(text))}


def _number(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def check_row(row, ref):
    """None if the row passes, else the reason it fails."""
    if row["method"] == "failed":
        return "method=failed"
    for col, want in ref["columns"].items():
        if row[col] != want:
            return f"{col}={row[col]!r}, reference {want!r}"
    try:
        cap = _number(row["capacity_bits"])
        ee = _number(row["ee_bits_per_joule"])
        kind = ref["kind"]
        if kind == "exact":
            for name, got in (("capacity_bits", cap), ("ee_bits_per_joule", ee)):
                want = ref[name]
                if abs(got - want) > REL_TOL * abs(want):
                    return f"{name}={got!r} off reference {want!r} by more than {REL_TOL:g} relative"
        elif kind == "seeded":
            for name, got in (("capacity_bits", cap), ("ee_bits_per_joule", ee)):
                mean, sd = ref[name]["mean"], ref[name]["sd"]
                if abs(got - mean) > SEEDED_SIGMAS * sd:
                    return f"{name}={got!r} beyond {SEEDED_SIGMAS:g} sd of the reference mean {mean!r}"
        elif kind == "mc":
            stderr = _number(row["stderr"])
            if not stderr > 0.0:
                return f"stderr={stderr!r} is not positive"
            z = (cap - ref["capacity_bits"]) / stderr
            if abs(z) > MC_SIGMAS:
                return f"capacity_bits is {z:+.2f} stderr from the analytic reference"
        else:
            return f"unknown reference kind {kind!r}"
    except ValueError as exc:
        return f"unreadable metric: {exc}"
    return None


def gate(rows, refs):
    """(attempted, failures) for a run's rows against the workload reference;
    failures is a list of (key, reason). Rows the run did not produce count
    as attempted and failed."""
    failures = []
    for key, row in rows.items():
        ref = refs.get(key)
        reason = "no reference row" if ref is None else check_row(row, ref)
        if reason:
            failures.append((key, reason))
    missing = [k for k in refs if k not in rows]
    failures.extend((k, "missing from the run") for k in missing)
    return len(rows) + len(missing), failures


def _synthetic_row(key, ref, **values):
    row = dict(ref["columns"], scenario_id=key.split("/")[-1], capacity_bits="",
               ee_bits_per_joule="", stderr="", seed="0")
    row.update({k: repr(v) for k, v in values.items()})
    return row


def self_test(rows, refs, all_refs):
    """Feed the gate three defective rows next to the run's own rows: an exact
    row perturbed by 1e-5 relative, a method=failed row and a Monte Carlo row
    10 stderr off its reference, each built from a reference entry of any
    workload. Returns a list of problems (empty on success): each defective
    row must fail, the unperturbed rows must not, and the failures must add up
    over the combined table."""
    by_kind = {}
    for w in [refs] + list(all_refs.values()):
        for key, ref in w.items():
            by_kind.setdefault(ref["kind"], (key, ref))
    if "exact" not in by_kind or "mc" not in by_kind:
        return ["the reference lacks an exact or a Monte Carlo row to perturb"]
    exact_key, exact = by_kind["exact"]
    mc_key, mc = by_kind["mc"]
    stderr = float(rows[mc_key]["stderr"]) if mc_key in rows else 1e-3 * mc["capacity_bits"]
    defects = {
        "1e-5 perturbed row": (exact, _synthetic_row(
            exact_key, exact, capacity_bits=exact["capacity_bits"] * (1.0 + 1e-5),
            ee_bits_per_joule=exact["ee_bits_per_joule"])),
        "method=failed row": (exact, dict(_synthetic_row(exact_key, exact),
                                          method="failed", n_trials="0")),
        "Monte Carlo row 10 stderr off": (mc, _synthetic_row(
            mc_key, mc, capacity_bits=mc["capacity_bits"] + 10.0 * stderr,
            ee_bits_per_joule=1e-5, stderr=stderr)),
    }
    problems = []
    attempted, base = gate(rows, refs)
    if base:
        problems.append(f"unperturbed rows fail the gate: {base[:3]}")
    table, table_refs = dict(rows), dict(refs)
    for what, (ref, row) in defects.items():
        if check_row(row, ref) is None:
            problems.append(f"the gate passed a {what}")
        table[f"selftest/{what}"] = row
        table_refs[f"selftest/{what}"] = ref
    t_attempted, t_failures = gate(table, table_refs)
    if (t_attempted, len(t_failures)) != (attempted + 3, len(base) + 3):
        problems.append(f"with the defective rows {len(t_failures)} of {t_attempted} failed, "
                        f"expected {len(base) + 3} of {attempted + 3}")
    return problems
