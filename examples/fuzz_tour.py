#!/usr/bin/env python3
"""Tour of the deterministic scenario fuzzer (``repro.fuzz``).

The fuzzer hunts for divergences between the reduction pathways that must
stay byte-identical: scalar scan vs dense-kernel matching, inline vs sharded
pipelines, batch vs incremental sessions (including a checkpoint/restore
mid-stream), binary and text round trips, and the malformed-rank fallback.
Every case is derived from a seed, so a campaign is a pure function of
``(seed, n_cases, families)`` — the same invocation always builds the same
traces, draws the same configs, and reaches the same verdicts.

The tour:

1. runs one case from every workload family and renders the oracle matrix,
2. zooms into the ``threshold_edge`` family, whose probes land exactly one
   ulp on either side of the similarity boundary ``distance == limit``,
3. persists a case to a corpus directory, reloads it, and replays its
   oracles from the stored records alone — the regression-corpus workflow,
4. demonstrates the shrinker on a case that genuinely fails (an off-grid
   timestamp is lossy under the 2-decimal text format).

Run with:  python examples/fuzz_tour.py
"""

import math
import tempfile
from pathlib import Path

from repro.fuzz import (
    CaseDB,
    CorpusCase,
    FAMILY_NAMES,
    make_failure_check,
    plan_cases,
    run_case,
    shrink_records,
)
from repro.fuzz.generators import CaseConfig, edge_boundary_ends, generate_case
from repro.fuzz.oracles import ORACLE_NAMES, run_oracles
from repro.trace.records import RecordKind, TraceRecord
from repro.trace.segments import iter_segments
from repro.util.tables import format_table

SEED = 5


def one_round_matrix():
    """Run one case per family and render the family x oracle matrix."""
    cases = plan_cases(SEED, len(FAMILY_NAMES))
    results = [run_case(case) for case in cases]

    headers = ["family", "config"] + list(ORACLE_NAMES)
    rows = []
    for result in results:
        cell = {o.name: o.status for o in result.outcomes}
        rows.append(
            [result.case.spec.family, result.case.config.describe()]
            + [{"pass": "ok", "fail": "FAIL", None: "-"}.get(cell.get(name), "-") for name in ORACLE_NAMES]
        )
    print(format_table(headers, rows, title=f"one case per family, seed {SEED}"))
    failed = [r for r in results if not r.ok]
    print(f"{len(results)} cases, {len(failed)} failed\n")
    return results


def threshold_edge_zoom():
    """Show how close the adversarial probes sit to the match boundary."""
    script_case = next(
        c for c in plan_cases(SEED, len(FAMILY_NAMES)) if c.spec.family == "threshold_edge"
    )
    trace = generate_case(script_case.spec)
    config = script_case.config
    base = next(iter_segments(trace.ranks[0].records))
    end_match, end_miss = edge_boundary_ends(base, config.method, config.threshold)
    gap = end_miss - end_match
    print(f"threshold_edge zoom ({config.describe()}):")
    print(f"  last matching segment end : {end_match!r}")
    print(f"  first missing segment end : {end_miss!r}")
    print(f"  gap: {gap:.3e} = {'1 ulp' if math.nextafter(end_match, math.inf) == end_miss else 'wider'}")
    print()


def corpus_workflow(workdir: Path):
    """Persist a case, reload it, and replay it from records alone."""
    case = plan_cases(SEED, 1)[0]
    trace = generate_case(case.spec)
    corpus = CorpusCase(
        id=case.id,
        family=case.spec.family,
        seed=case.spec.seed,
        params=dict(case.spec.params),
        config=case.config,
        oracles=list(case.oracles),
        records=[list(r.records) for r in trace.ranks],
        note="fuzz_tour demonstration case",
    )
    db = CaseDB(workdir / "corpus")
    path = db.save(corpus)
    loaded = db.load(case.id)
    outcomes = run_oracles(
        loaded.trace(), loaded.config, workdir, loaded.oracles, seed=loaded.seed
    )
    verdict = "all green" if not any(o.failed for o in outcomes) else "REGRESSED"
    print(f"corpus workflow: saved {path.name} ({corpus.n_records} records), "
          f"replayed {len(outcomes)} oracles -> {verdict}\n")


def shrink_demo():
    """Minimize a genuinely failing case: off-grid time vs the text format."""
    records = []
    t = 0.0
    for i in range(4):
        records.append(TraceRecord(RecordKind.SEGMENT_BEGIN, 0, t, f"main.{i + 1}"))
        records.append(TraceRecord(RecordKind.ENTER, 0, t + 1.0, "compute"))
        records.append(TraceRecord(RecordKind.EXIT, 0, t + 2.0, "compute"))
        records.append(TraceRecord(RecordKind.SEGMENT_END, 0, t + 3.0, "main." f"{i + 1}"))
        t += 4.0
    # One timestamp off the representable grid: "%.2f" loses it, so the
    # text round-trip oracle genuinely fails on these records.
    bad = records[5]
    records[5] = TraceRecord(bad.kind, bad.rank, bad.timestamp + 0.003, bad.name)

    check = make_failure_check(CaseConfig("relDiff", 0.5), ["text_roundtrip"])
    result = shrink_records([records], check, budget=150)
    print("shrink demo (lossy text round trip):")
    print(f"  {result.records_before} records -> {result.records_after} "
          f"({result.reduction:.0%} smaller, {result.checks} oracle checks)")
    print(f"  still fails after shrinking: {check(result.records)}")


def main():
    one_round_matrix()
    threshold_edge_zoom()
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-tour-") as tmp:
        corpus_workflow(Path(tmp))
    shrink_demo()


if __name__ == "__main__":
    main()
