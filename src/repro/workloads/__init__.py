"""Workload generation: the paper's service model and workload pairs.

Section V.B/V.C: end-user requests arrive with negative-exponentially
distributed inter-arrival times (SPECpower_ssj-style, eq. 4) with the
mean inter-arrival time ``lambda`` proportional to the application's
runtime; 24 pairs labelled A..X combine each Group A (long) app with each
Group B (short) app in Table I order.
"""

from repro.workloads.streams import Request, RequestStream, exponential_stream
from repro.workloads.pairs import PAIRS, pair_apps, pair_label

__all__ = [
    "PAIRS",
    "Request",
    "RequestStream",
    "exponential_stream",
    "pair_apps",
    "pair_label",
]
