"""Compare two result files of the ledger: A/A, or parent against change.

    python3 benchmarks/perf/compare.py BASE.json NEW.json

Both files come from ``run.py --out`` (all workloads, ``--trace 0``).  One
row is printed per (workload, end-to-end metric): the base median, the new
median, their ratio (new / base), the bound ``BENCHMARK.json`` fixes and a
verdict:

``ok``          the new median is not worse than the base by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  it is worse by more than the bound, but the base's own spread
                is wider than the bound and the two sets of runs overlap.

With ``--runs`` of 2 or more the spread is the distance between the quartiles
of the runs' values over their median; with a single run it is the spread of
the samples inside that run.  Facts that must repeat exactly under a fixed
seed (``potentials_sha256``, the virtual makespan) are compared for
equality, and a workload that fails more ops than in the base is regressed.
The exit code is 1 when any row is ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]
EXACT_FACTS = ("potentials_sha256", "virtual_makespan_s")
#: where a record keeps the in-run quartiles of a metric
IN_RUN_DETAIL = {"op_s_p50": "op_s", "alt_s_p50": "alt_s"}


def load(path: Path) -> dict[str, list[dict]]:
    """Workload -> its end-to-end records, in run order."""
    by_workload: dict[str, list[dict]] = {}
    for record in json.loads(path.read_text())["records"]:
        if not record["trace"]:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def spread(records: list[dict], metric: str) -> float:
    values = [r["metrics"][metric]["value"] for r in records]
    if len(values) >= 2:
        p25, _, p75 = quantiles(values, n=4)
        return (p75 - p25) / median(values)
    detail = records[0]["detail"].get(IN_RUN_DETAIL.get(metric, ""))
    return (detail["p75"] - detail["p25"]) / detail["p50"] if detail else 0.0


def compare(base: dict, new: dict, spec: dict) -> list[tuple]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in new:
            continue
        b_records, n_records = base[workload], new[workload]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b_values = [r["metrics"][name]["value"] for r in b_records]
            n_values = [r["metrics"][name]["value"] for r in n_records]
            b, n = median(b_values), median(n_values)
            lower = metric["better"] == "lower"
            worsening = (n - b) / b if lower else (b - n) / b
            overlap = min(n_values) <= max(b_values) if lower else max(n_values) >= min(b_values)
            own_spread = spread(b_records, name)
            if worsening <= bound:
                verdict = "ok"
            elif own_spread > bound and overlap:
                verdict = "unresolved"
            else:
                verdict = "regressed"
            rows.append((workload, name, f"{b:.6g}", f"{n:.6g}", f"{n / b:.3f}",
                         f"{bound:g}", f"{own_spread:.3f}", verdict))
        b_first, n_first = b_records[0], n_records[0]
        if (b_first["seed"], b_first["smoke"]) == (n_first["seed"], n_first["smoke"]):
            for fact in EXACT_FACTS:
                if fact in b_first["facts"]:
                    b, n = b_first["facts"][fact], n_first["facts"].get(fact)
                    rows.append((workload, fact, str(b)[:12], str(n)[:12], "-", "exact", "-",
                                 "ok" if b == n else "regressed"))
        b_failed = sum(r["failed"] for r in b_records) / sum(r["attempted"] for r in b_records)
        n_failed = sum(r["failed"] for r in n_records) / sum(r["attempted"] for r in n_records)
        rows.append((workload, "fail_share", f"{b_failed:.4g}", f"{n_failed:.4g}", "-", "0", "-",
                     "ok" if n_failed <= b_failed else "regressed"))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.base), load(args.new), spec)
    header = ("workload", "metric", "base", "new", "new/base", "bound", "spread", "verdict")
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
