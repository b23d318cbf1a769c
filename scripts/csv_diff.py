#!/usr/bin/env python3
"""Compare the sweep CSVs of two directories cell by cell.

For every CSV in OLD_DIR the script reads the file of the same name in
NEW_DIR and prints, per numeric column, the worst relative change
|new - old| / |old| over all rows (0 where both cells are 0, inf where only
the old cell is 0). Non-numeric cells must be equal, and so must the header,
the row count, each row's cell count and the set of file names; a mismatch
is printed, and an empty file has no header to match.

Exit status: 0 when every change is within --rel and nothing mismatches,
1 otherwise.

Usage: python3 scripts/csv_diff.py OLD_DIR NEW_DIR [--rel 1e-6]
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _rel_change(old: float, new: float) -> float:
    if old == new:
        return 0.0
    if old == 0.0:
        return math.inf
    return abs(new - old) / abs(old)


def compare(old_path: Path, new_path: Path) -> tuple[dict[str, float], list[str]]:
    """Worst relative change per numeric column, and the mismatches found."""
    with open(old_path, newline="", encoding="utf-8") as fh:
        old = list(csv.reader(fh))
    with open(new_path, newline="", encoding="utf-8") as fh:
        new = list(csv.reader(fh))
    if not old or not new or old[0] != new[0]:
        return {}, ["headers differ"]
    if len(old) != len(new):
        return {}, [f"{len(old) - 1} rows against {len(new) - 1}"]
    header = old[0]
    worst = {}
    problems = []
    for line, (a_row, b_row) in enumerate(zip(old[1:], new[1:]), start=2):
        if len(a_row) != len(b_row):
            problems.append(f"line {line}: {len(a_row)} cells against {len(b_row)}")
            continue
        for col, a, b in zip(header, a_row, b_row):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    problems.append(f"line {line} {col}: {a!r} -> {b!r}")
                continue
            worst[col] = max(worst.get(col, 0.0), _rel_change(x, y))
    return worst, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_dir", type=Path)
    ap.add_argument("new_dir", type=Path)
    ap.add_argument("--rel", type=float, default=1e-6,
                    help="largest relative change accepted (default 1e-6)")
    args = ap.parse_args()
    old_names = {p.name for p in args.old_dir.glob("*.csv")}
    new_names = {p.name for p in args.new_dir.glob("*.csv")}
    ok = old_names == new_names and bool(old_names)
    for name in sorted(old_names ^ new_names):
        print(f"{name}: only in {'OLD' if name in old_names else 'NEW'}_DIR")
    for name in sorted(old_names & new_names):
        worst, problems = compare(args.old_dir / name, args.new_dir / name)
        print(name)
        for col, rel in worst.items():
            flag = "" if rel <= args.rel else "  > --rel"
            print(f"  {col:<20} {rel:.3e}{flag}")
            ok = ok and rel <= args.rel
        for problem in problems:
            print(f"  MISMATCH {problem}")
        ok = ok and not problems
    print(f"{'within' if ok else 'NOT within'} {args.rel:g} relative")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
