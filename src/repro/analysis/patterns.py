"""Inefficiency patterns and their severity definitions.

Each pattern mirrors the corresponding KOJAK/EXPERT wait state.  For every
pattern instance the analyzer (:mod:`repro.analysis.expert`) computes two
values per affected rank:

* ``waiting`` — the KOJAK severity: non-negative waiting time in µs;
* ``signed`` — the same quantity without clamping at zero.  On a full trace
  the two agree wherever waiting occurs; on a reconstructed trace with skewed
  timestamps the signed value can go negative, which is how the paper's
  figures end up showing negative severities for some methods.
"""

from __future__ import annotations

__all__ = [
    "LATE_SENDER",
    "LATE_RECEIVER",
    "LATE_BROADCAST",
    "EARLY_GATHER",
    "WAIT_AT_BARRIER",
    "WAIT_AT_NXN",
    "EXECUTION_TIME",
    "WAIT_METRICS",
    "METRIC_ABBREVIATIONS",
]

#: Receiver blocked in a receive because the sender had not reached the send.
LATE_SENDER = "Late Sender"
#: Synchronous sender blocked because the receiver had not reached the receive.
LATE_RECEIVER = "Late Receiver"
#: Non-root ranks blocked in a fan-out collective because the root was late.
LATE_BROADCAST = "Late Broadcast"
#: Root of a fan-in collective blocked waiting for the last sender.
EARLY_GATHER = "Early Gather"
#: Ranks blocked in a barrier waiting for the last arrival.
WAIT_AT_BARRIER = "Wait at Barrier"
#: Ranks blocked in a symmetric N×N collective waiting for the last arrival.
WAIT_AT_NXN = "Wait at NxN"
#: Plain time spent in a function (not a wait state).
EXECUTION_TIME = "Execution Time"

#: The wait-state metrics (everything except plain execution time).
WAIT_METRICS = frozenset(
    {LATE_SENDER, LATE_RECEIVER, LATE_BROADCAST, EARLY_GATHER, WAIT_AT_BARRIER, WAIT_AT_NXN}
)

#: Abbreviations used in the paper's severity charts (Figure 4).
METRIC_ABBREVIATIONS: dict[str, str] = {
    LATE_SENDER: "LS",
    LATE_RECEIVER: "LR",
    LATE_BROADCAST: "LB",
    EARLY_GATHER: "ER",
    WAIT_AT_BARRIER: "WB",
    WAIT_AT_NXN: "NN",
    EXECUTION_TIME: "T",
}
