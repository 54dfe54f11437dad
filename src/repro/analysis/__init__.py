"""KOJAK/EXPERT-style automatic performance analysis.

The paper's most important evaluation criterion is whether the reduced trace
still leads an analyst to the same performance diagnosis as the full trace.
The paper feeds both traces to KOJAK's EXPERT analyzer and compares the CUBE
visualisations by hand; this subpackage provides the equivalent machinery:

* :mod:`repro.analysis.patterns` — the wait-state inefficiency patterns
  (Late Sender, Late Receiver, Late Broadcast, Early Gather, Wait at Barrier,
  Wait at N×N) and how their severities are computed;
* :mod:`repro.analysis.expert` — the analyzer that pairs events across ranks
  and produces per-(metric, code location, process) severities;
* :mod:`repro.analysis.compare` — an automated version of the paper's
  "same conclusions" guidelines, deciding whether a reduced trace retains the
  performance trends of the full trace;
* :mod:`repro.analysis.cube` — a text rendering of the severity charts used
  in Figures 4, 7, and 8.

The names below import their module when first read: the trend criterion
does not load the flat profile or the chart rendering.
"""

from repro._lazy import lazy_getattr

__all__ = [
    "LATE_SENDER",
    "LATE_RECEIVER",
    "LATE_BROADCAST",
    "EARLY_GATHER",
    "WAIT_AT_BARRIER",
    "WAIT_AT_NXN",
    "EXECUTION_TIME",
    "WAIT_METRICS",
    "DiagnosisReport",
    "FlatProfile",
    "flat_profile",
    "analyze",
    "ComparisonOptions",
    "TrendComparison",
    "compare_diagnoses",
    "severity_chart",
    "severity_level",
]

__getattr__ = lazy_getattr(
    __name__,
    {
        ".patterns": (
            "EARLY_GATHER", "EXECUTION_TIME", "LATE_BROADCAST", "LATE_RECEIVER", "LATE_SENDER",
            "WAIT_AT_BARRIER", "WAIT_AT_NXN", "WAIT_METRICS",
        ),
        ".profile": ("FlatProfile", "flat_profile"),
        ".report": ("DiagnosisReport",),
        ".expert": ("analyze",),
        ".compare": ("ComparisonOptions", "TrendComparison", "compare_diagnoses"),
        ".cube": ("severity_chart", "severity_level"),
    },
)
