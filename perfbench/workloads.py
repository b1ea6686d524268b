"""Benchmark workloads: seeded inputs, one simulation pass, outcome fingerprint.

Each workload turns a seed into simulator inputs (a traffic generator or
a list of pair streams) and runs them through the harness runners on the
paper's 4-GPU supernode.  :meth:`Prepared.run` is one repetition: it
builds a fresh environment, system and telemetry registry and returns an
:class:`Outcome`, whose :meth:`Outcome.fingerprint` must be identical on
every repetition of one seed.

Regenerate the pinned fingerprints (default seed, both sizes) with::

    python3 perfbench/workloads.py > perfbench/fingerprints.json
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from typing import Callable, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprints.json")

#: The seed whose fingerprints are pinned in ``fingerprints.json``.
DEFAULT_SEED = 42

#: ``scale_smoke`` traffic mix at 25 rps (just under the supernode knee);
#: ``duration`` is the arrival horizon of one repetition.
CHURN_SPEC = (
    "poisson:rate=25,tenants=1200,churn=exp:60,duration={duration},"
    "apps=GA*4+SN*2+BS,nodes=2"
)
LAS_POLICIES = ("GWtMin+LAS-Strings", "GWtMin+LAS-Rain")
PAIR_LOAD_FACTOR = 6.0

#: Per-repetition input size.  ``tiny`` is for the self-tests.  ``full``
#: runs six pairs at Fig. 12's paper stream length (SCALE_PAPER: 20
#: requests per stream); at seed 42 their events, dispatch signals, engine
#: ops and CUDA calls per request, and host seconds per request, are within
#: 1.2% of all 24 pairs' (see perfbench/README.md).
SIZES = {
    "full": {
        "duration": 30, "requests_per_stream": 20,
        "pairs": ("C", "I", "J", "O", "Q", "W"),
    },
    "tiny": {"duration": 4, "requests_per_stream": 1, "pairs": ("A", "J", "X")},
}

WORKLOADS = ("churn", "churn_observed", "las_pairs")


def ensure_src_on_path() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


@dataclass
class Outcome:
    """Simulated outcome of one repetition (no host-time figures)."""

    offered: int
    completed: int
    aborted: int
    failed: int
    sessions: int
    latency_sum_s: float
    latency_max_s: float
    sim_time_s: float
    spans_flushed: int = 0

    @property
    def resolved(self) -> int:
        return self.completed + self.aborted + self.failed

    def fingerprint(self) -> Dict[str, object]:
        """Counts plus 9-decimal sim-time sums: byte-comparable."""
        return {
            "offered": self.offered,
            "completed": self.completed,
            "aborted": self.aborted,
            "failed": self.failed,
            "sessions": self.sessions,
            "latency_sum_s": f"{self.latency_sum_s:.9f}",
            "latency_max_s": f"{self.latency_max_s:.9f}",
            "sim_time_s": f"{self.sim_time_s:.9f}",
        }

    def conservation_errors(self):
        errors = []
        if self.offered != self.resolved:
            errors.append(
                f"offered {self.offered} != completed {self.completed} + "
                f"aborted {self.aborted} + failed {self.failed}"
            )
        if self.failed:
            errors.append(f"{self.failed} requests failed with no fault plan")
        if self.offered < 1:
            errors.append("no requests offered")
        return errors


@dataclass
class Prepared:
    """A workload bound to its generated inputs; ``run`` is one repetition."""

    name: str
    seed: int
    size: str
    run: Callable[[], Outcome]


def merge(outcomes: List[Outcome]) -> Outcome:
    """Sum the outcomes of a repetition's units (max for ``latency_max_s``)."""
    total = Outcome(0, 0, 0, 0, 0, 0.0, 0.0, 0.0)
    for o in outcomes:
        for f in fields(Outcome):
            if f.name == "latency_max_s":
                total.latency_max_s = max(total.latency_max_s, o.latency_max_s)
            else:
                setattr(total, f.name, getattr(total, f.name) + getattr(o, f.name))
    return total


def prepare(name: str, seed: int, size: str = "full") -> Prepared:
    """Generate the inputs of workload ``name`` from ``seed``."""
    ensure_src_on_path()
    knobs = SIZES[size]
    if name in ("churn", "churn_observed"):
        run = _churn(seed, knobs["duration"], observed=name == "churn_observed")
    elif name == "las_pairs":
        run = _las_pairs(seed, knobs["requests_per_stream"], knobs["pairs"])
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return Prepared(name, seed, size, run)


def _churn(seed: int, duration: int, observed: bool) -> Callable[[], Outcome]:
    from repro.cluster import build_paper_supernode
    from repro.harness.runner import run_open_loop_experiment, system_factories
    from repro.obs import Sampler, Telemetry, attach_store
    from repro.telemetry import NullTelemetry
    from repro.traffic import TrafficGenerator, parse_traffic_spec

    traffic = TrafficGenerator(
        parse_traffic_spec(CHURN_SPEC.format(duration=duration)), seed=seed
    )
    factory = system_factories()["GMin-Strings"]

    def run() -> Outcome:
        store = None
        with tempfile.TemporaryDirectory(dir=_work_dir()) as shard_dir:
            if observed:
                tel = Telemetry()
                tel.sampler = Sampler(interval_s=1.0)
                store = attach_store(tel, shard_dir, buffer_limit=4096)
            else:
                tel = NullTelemetry()
            res = run_open_loop_experiment(
                factory, traffic, build_paper_supernode, label="perfbench", telemetry=tel
            )
            if store is not None:
                store.close()
        return Outcome(
            offered=res.offered,
            completed=res.completed,
            aborted=res.aborted,
            failed=res.failed,
            sessions=res.sessions,
            latency_sum_s=res.latency_sum_s,
            latency_max_s=res.latency_max_s,
            sim_time_s=res.sim_time_s,
            spans_flushed=store.flushed_spans if store is not None else 0,
        )

    return run


def _las_pairs(seed: int, requests_per_stream: int, pairs) -> Callable[[], Outcome]:
    from repro.cluster import build_paper_supernode
    from repro.harness.pairsweep import pair_streams
    from repro.harness.runner import SCALE_PAPER, run_stream_experiment, system_factories
    from repro.telemetry import NullTelemetry

    # Fig. 12's own streams (long app on node 0, short app on node 1),
    # the same under every policy.
    scale = SCALE_PAPER.scaled(
        seed=seed, requests_per_stream=requests_per_stream,
        pair_load_factor=PAIR_LOAD_FACTOR,
    )
    inputs = [pair_streams(label, scale, split_nodes=True, tag="fig12") for label in pairs]
    factories = system_factories()

    def one(policy, streams) -> Outcome:
        res = run_stream_experiment(
            factories[policy], streams, build_paper_supernode,
            label=policy, telemetry=NullTelemetry(),
        )
        offered = sum(len(s) for s in streams)
        latencies = [r.completion_s for r in res.results]
        return Outcome(
            offered=offered,
            completed=len(latencies),
            aborted=0,
            failed=offered - len(latencies),
            sessions=0,
            latency_sum_s=sum(latencies),
            latency_max_s=max(latencies, default=0.0),
            sim_time_s=res.sim_time_s,
        )

    def run() -> Outcome:
        return merge([one(policy, streams) for policy in LAS_POLICIES for streams in inputs])

    return run


def _work_dir() -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    return WORK_DIR


def remove_work_dir() -> None:
    """Drop the scratch directory if every repetition cleaned up after itself."""
    try:
        os.rmdir(WORK_DIR)
    except OSError:
        pass


def pinned_fingerprint(name: str, size: str):
    with open(FINGERPRINTS) as fh:
        return json.load(fh)[size][name]


def inflate_kernels(frac: float) -> None:
    """Self-test hook: make every kernel ``frac`` slower in simulated time."""
    ensure_src_on_path()
    from repro.simgpu.ops import KernelOp

    original = KernelOp.solo_time

    def inflated(self, spec):
        return original(self, spec) * (1.0 + frac)

    KernelOp.solo_time = inflated


def main() -> int:
    doc = {
        "seed": DEFAULT_SEED,
        **{
            size: {
                name: prepare(name, DEFAULT_SEED, size).run().fingerprint()
                for name in WORKLOADS
            }
            for size in SIZES
        },
    }
    remove_work_dir()
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
