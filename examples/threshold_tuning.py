#!/usr/bin/env python3
"""Threshold tuning: the file-size / error / diagnosis trade-off.

The paper's threshold study (Section 5.1, appendix Figures 9–19) sweeps every
method's threshold and picks the value with the best trade-off between file
size, approximation distance, and retention of performance trends.  This
example reproduces that sweep for one method on one benchmark as one
shared-ingest sweep (`repro.sweep`): the workload's segments are streamed
once for the whole grid and the method's feature vectors are computed once
per segment per feature family, not once per threshold.

Run with:  python examples/threshold_tuning.py [method] [workload]
e.g.       python examples/threshold_tuning.py absDiff dyn_load_balance
"""

import sys

from repro.core.metrics import THRESHOLD_STUDY
from repro.experiments.config import get_scale, prepared_workload
from repro.pipeline.engine import sweep_pipeline
from repro.sweep import SweepPlan
from repro.util.tables import format_table


def main() -> None:
    method = sys.argv[1] if len(sys.argv) > 1 else "absDiff"
    workload_name = sys.argv[2] if len(sys.argv) > 2 else "dyn_load_balance"
    if method not in THRESHOLD_STUDY:
        raise SystemExit(f"unknown method {method!r}; choose one of {sorted(THRESHOLD_STUDY)}")

    scale = get_scale("default")
    # Memoized per (workload, scale): a second study on the same workload
    # reuses the simulated, segmented, analyzed trace instead of re-ingesting.
    prepared = prepared_workload(workload_name, scale)
    print(f"threshold study: {method} on {workload_name} (scale profile: {scale.name})\n")

    plan = SweepPlan.from_grid([method])
    sweep = sweep_pipeline(prepared.segmented, plan, name=prepared.name)

    rows = []
    for result in sweep.evaluation_results(prepared):
        rows.append(
            [
                "-" if result.threshold is None else f"{result.threshold:g}",
                result.pct_file_size,
                result.degree_of_matching,
                result.approx_distance_us,
                result.trends_retained,
            ]
        )
    print(
        format_table(
            ["threshold", "% file size", "matching", "approx dist (us)", "trends retained"],
            rows,
            float_fmt=".3g",
            title=f"{method} on {workload_name}",
        )
    )

    stats = sweep.stats
    print("\nper-family sharing (one shared segment pass for the whole grid):")
    for family in plan.families:
        print(f"  {family.describe()}")
    print(
        format_table(
            ["property", "value"],
            stats.rows(),
            title="shared-ingest stats",
        )
    )
    print(
        "\nThe paper picks the threshold where file size has come down but the\n"
        "approximation distance has not yet jumped and the diagnosis still holds."
    )


if __name__ == "__main__":
    main()
