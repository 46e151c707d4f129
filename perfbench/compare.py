"""Compare two sets of benchmark runs, metric by metric.

``python3 perfbench/run.py --compare OLD NEW`` where OLD and NEW are each a
file or a directory of files holding run outputs (the JSON last line of
``run.py``; other lines are ignored).  Give each side the runs of one
workload: untraced runs compare end-to-end metrics, traced runs compare the
per-layer self times and counts.  For every metric it prints each side's
median with its quartiles and spread (interquartile range over median), and
the change of the medians, absolute and relative to OLD.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_runs(path: Path) -> list[dict]:
    """Every run result found in ``path`` (a file or a directory)."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    runs = []
    for file in files:
        for line in file.read_text(errors="replace").splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(doc, dict) and isinstance(doc.get("metrics"), dict):
                runs.append(doc)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def compare(old: list[dict], new: list[dict]) -> list[str]:
    lines = []
    for label, runs in (("old", old), ("new", new)):
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        incorrect = sum(1 for r in runs if not r["correct"])
        lines.append(
            f"{label}: {len(runs)} runs, {incorrect} incorrect, "
            f"{failed}/{attempted} operations failed"
        )
    names = list(dict.fromkeys(
        name for r in old + new for name in r["metrics"]
    ))
    header = (f"{'metric':30s} {'unit':6s} {'old median [q1, q3]':>30s} "
              f"{'spread':>7s} {'new median [q1, q3]':>30s} {'spread':>7s} "
              f"{'delta':>10s} {'delta %':>8s}")
    lines += [header, "-" * len(header)]
    for name in names:
        sides = []
        for runs in (old, new):
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            sides.append(quartiles(values) if values else None)
        unit = next(r["metrics"][name]["unit"] for r in old + new if name in r["metrics"])
        cells = []
        for side in sides:
            if side is None:
                cells += [f"{'-':>30s}", f"{'-':>7s}"]
                continue
            q1, med, q3 = side
            spread = f"{(q3 - q1) / abs(med):.3f}" if med else "-"
            cells += [f"{_fmt(med) + ' [' + _fmt(q1) + ', ' + _fmt(q3) + ']':>30s}",
                      f"{spread:>7s}"]
        if sides[0] is not None and sides[1] is not None:
            delta = sides[1][1] - sides[0][1]
            rel = f"{100.0 * delta / abs(sides[0][1]):+.1f}" if sides[0][1] else "-"
            cells += [f"{delta:>+10.4g}", f"{rel:>8s}"]
        lines.append(f"{name:30s} {unit:6s} " + " ".join(cells))
    return lines


def main(old_path: Path, new_path: Path) -> int:
    old, new = load_runs(old_path), load_runs(new_path)
    for label, path, runs in (("OLD", old_path, old), ("NEW", new_path, new)):
        if not runs:
            print(f"no run results found in {label} {path}")
            return 2
    print("\n".join(compare(old, new)))
    return 0
