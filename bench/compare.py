"""Compare two ``results.json`` files written by ``bench/run.py``.

    python3 bench/compare.py [--same-code] BASE.json NEW.json

One row per workload x end-to-end metric: both medians, NEW/BASE, the bound
from ``BENCHMARK.json`` and a verdict.  ``worse``/``better`` mean the median
moved by more than the bound; ``unresolved`` means it did, but either side's
q1-q3 range is wider than the bound and the two ranges overlap, so the runs
cannot tell.  Per-layer values follow; metrics that are counts (and
``reduced_pct``, ``ops_failed``) must repeat exactly for the same seed and are
flagged on any change.

Exit status 1 on a ``worse`` row or more failed ops.  ``--same-code`` is the
repeatability check of two runs of one commit: every row must be ``same`` and
every exact metric identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """Classify NEW against BASE; both are ``{"value", "q1", "q3"}`` summaries."""
    b, n = base["value"], new["value"]
    worsening = (n - b) / abs(b) if better == "lower" else (b - n) / abs(b)
    if abs(worsening) <= bound:
        return "same"
    spread = max((s["q3"] - s["q1"]) / abs(s["value"]) for s in (base, new))
    overlap = base["q1"] <= new["q3"] and new["q1"] <= base["q3"]
    if spread > bound and overlap:
        return "unresolved"
    return "worse" if worsening > 0 else "better"


def compare(base: dict, new: dict) -> tuple[list[str], list[str]]:
    """Print the comparison; returns the verdicts and the exact metrics that changed.

    A group of metrics one of the files lacks (it was run with ``--trace``) is skipped.
    """
    verdicts, changed = [], []
    workloads = [w for w in base["workloads"] if w in new["workloads"]]
    print(f"{'workload':<26} {'metric':<16} {'base':>12} {'new':>12} {'new/base':>9} "
          f"{'bound':>6}  verdict")
    for name in workloads:
        b, n = base["workloads"][name], new["workloads"][name]
        if b["ops_failed"] != n["ops_failed"]:
            changed.append(f"{name} ops_failed {b['ops_failed']} -> {n['ops_failed']}")
        if "end_to_end" not in b or "end_to_end" not in n:
            continue
        for metric in SPEC["end_to_end"]:
            bs, ns = b["end_to_end"][metric["name"]], n["end_to_end"][metric["name"]]
            row = verdict(bs, ns, metric["better"], metric["bound"])
            verdicts.append(row)
            print(f"{name:<26} {metric['name']:<16} {bs['value']:>12.6g} {ns['value']:>12.6g} "
                  f"{ns['value'] / bs['value']:>9.3f} {metric['bound']:>6}  {row}")
        if b["end_to_end"]["reduced_pct"]["value"] != n["end_to_end"]["reduced_pct"]["value"]:
            changed.append(f"{name} reduced_pct")
    for name in workloads:
        b, n = base["workloads"][name].get("per_layer"), new["workloads"][name].get("per_layer")
        if not b or not n:
            continue
        print(f"\n-- per-layer, {name} (base, new, new/base)")
        for metric in SPEC["per_layer"]:
            bv, nv = b[metric["name"]]["value"], n[metric["name"]]["value"]
            ratio = f"{nv / bv:9.3f}" if bv else f"{'-':>9}"
            flag = ""
            if metric["unit"] == "count" and bv != nv:
                flag = "  EXACT COUNT CHANGED"
                changed.append(f"{name} {metric['name']}")
            print(f"{metric['name']:<30} {bv:>12.6g} {nv:>12.6g} {ratio} {metric['unit']}{flag}")
    return verdicts, changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--same-code", action="store_true",
                        help="both files are runs of one commit: expect every row 'same'")
    args = parser.parse_args(argv)
    base, new = json.loads(args.base.read_text()), json.loads(args.new.read_text())
    for side, data in (("base", base), ("new", new)):
        print(f"{side}: " + ", ".join(f"{k} {v}" for k, v in data.get("provenance", {}).items()))
    verdicts, changed = compare(base, new)
    more_failures = any(
        new["workloads"][w]["ops_failed"] > base["workloads"][w]["ops_failed"]
        for w in base["workloads"] if w in new["workloads"]
    )
    if changed:
        print("\nexact metrics changed: " + "; ".join(changed))
    if args.same_code:
        failed = any(v != "same" for v in verdicts) or bool(changed)
    else:
        failed = "worse" in verdicts or more_failures
    print(f"\n{'FAIL' if failed else 'OK'}: " + ", ".join(
        f"{verdicts.count(v)} {v}" for v in ("better", "same", "worse", "unresolved")))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
