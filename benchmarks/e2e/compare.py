"""Compare two suite results: ``python -m benchmarks.e2e.compare A.json B.json``.

``A`` is the base (the parent commit, or the first of an A/A pair), ``B``
the change. One row per workload × end-to-end metric: both medians with
min and max, the ratio with its base, the bound from ``BENCHMARK.json``
and a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — not worse, but the runs of one side spread (first to
  third quartile, as a share of the median) wider than the bound, so
  "unchanged" cannot be claimed either;
* ``ok`` — otherwise.

``failed_share`` has no bound: any increase is ``worse``. Exits non-zero
when a row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

from benchmarks.e2e.harness import spread

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_bounds() -> Dict[str, Dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m for m in json.load(handle)["end_to_end"]}


def verdict(a: Dict, b: Dict, better: str, bound: float) -> str:
    change = (b["median"] - a["median"]) / a["median"]
    if (change if better == "lower" else -change) > bound:
        return "worse"
    if any(spread(s["values"]) > bound for s in (a, b)):
        return "unresolved"
    return "ok"


def compare(base: Dict, change: Dict, bounds: Dict[str, Dict]) -> List[Dict]:
    rows = []
    for workload, a_entry in base["workloads"].items():
        b_entry = change["workloads"].get(workload)
        if b_entry is None:
            continue
        for name, spec in bounds.items():
            a, b = a_entry["end_to_end"][name], b_entry["end_to_end"][name]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": a["unit"],
                    "a": a,
                    "b": b,
                    "ratio": b["median"] / a["median"],
                    "bound": spec["bound"],
                    "verdict": verdict(a, b, spec["better"], spec["bound"]),
                }
            )
        rows.append(
            {
                "workload": workload,
                "metric": "failed_share",
                "a_failed": f"{a_entry['failed']}/{a_entry['attempted']}",
                "b_failed": f"{b_entry['failed']}/{b_entry['attempted']}",
                "verdict": "worse" if b_entry["failed_share"] > a_entry["failed_share"] else "ok",
                "counters": "identical" if a_entry["counters"] == b_entry["counters"] else "differ",
            }
        )
    return rows


def render(rows: List[Dict]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<15} {'A median [min, max]':>34} "
        f"{'B median [min, max]':>34} {'B/A':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        if row["metric"] == "failed_share":
            lines.append(
                f"{row['workload']:<14} {'failed_share':<15} {row['a_failed']:>34} "
                f"{row['b_failed']:>34} {'':>7} {'none':>6}  {row['verdict']}"
                f"  (work counters {row['counters']})"
            )
            continue
        a, b = row["a"], row["b"]
        cells = [
            f"{s['median']:.5g} [{s['min']:.5g}, {s['max']:.5g}] {row['unit']}" for s in (a, b)
        ]
        lines.append(
            f"{row['workload']:<14} {row['metric']:<15} {cells[0]:>34} {cells[1]:>34} "
            f"{row['ratio']:>7.3f} {row['bound']:>6.2f}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    with open(argv[0]) as a_file, open(argv[1]) as b_file:
        rows = compare(json.load(a_file), json.load(b_file), load_bounds())
    print(render(rows))
    print("ratios are B/A: A is the base")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
