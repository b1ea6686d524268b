"""The LAS and PS dispatchers' fast paths against their reference paths.

Both dispatchers decide by callback.  Three fast paths make a quantum that
changes nothing cost one event and O(1) work (DESIGN.md §2.2):

* a relay that nothing can overtake runs at once (``Environment.relay``);
* while the RCB's change counter has not moved, a pick stands unscanned;
* LAS closes an epoch on a counter, and each entry replays the decays.

Each is monkeypatched back to its reference on Fig. 12 pair C at quick
scale (the perf gate's ``fig12c`` inputs), and the simulated outputs must
not move.  One extra hop on the relay must move them under LAS-Strings,
or the comparison could not see a moved decision.
"""

import itertools

import pytest

from repro.cluster import build_paper_supernode
from repro.core.rcb import RequestControlBlock
from repro.harness.pairsweep import pair_streams
from repro.harness.runner import SCALE_QUICK, run_stream_experiment, system_factories
from repro.obs import Telemetry
from repro.sim import Environment, Event

POLICIES = ["GWtMin+LAS-Strings", "GWtMin+LAS-Rain", "GWtMin+PS-Strings"]


def run_pair_c(policy):
    """One pair-C run: its outputs and its DES event count."""
    clock = {}

    def testbed(env):
        clock["env"] = env
        return build_paper_supernode(env)

    tel = Telemetry()
    run = run_stream_experiment(
        system_factories()[policy],
        pair_streams("C", SCALE_QUICK, split_nodes=True, tag="fig12"),
        testbed,
        telemetry=tel,
    )
    outputs = {
        # Request ids come from a process-wide counter: left out.
        "results": [(r.app, r.arrival_s, r.start_s, r.finish_s) for r in run.results],
        "latency_sum_s": run.latency_sum_s,
    }
    for name in ("dispatch.wakes", "dispatch.sleeps"):
        outputs[name] = sum(i.value for i in tel.instruments() if i.name == name)
    return outputs, clock["env"].events_processed


@pytest.fixture(scope="module")
def fast():
    """Each policy's run with every fast path on."""
    return {policy: run_pair_c(policy) for policy in POLICIES}


def queue_every_relay(monkeypatch):
    def relay(env, callback):
        event = Event(env)
        event.callbacks.append(lambda _event: callback())
        event.succeed()

    monkeypatch.setattr(Environment, "relay", relay)


def miss_every_change(monkeypatch):
    # Each read of the counter differs from every earlier one, so no
    # pick is ever taken as standing.
    reads = itertools.count()
    monkeypatch.setattr(
        RequestControlBlock,
        "changes",
        property(lambda rcb: next(reads), lambda rcb, value: None),
        raising=False,
    )


def roll_every_epoch_eagerly(monkeypatch):
    # The epoch counter never moves, so no entry has a decay to replay.
    def close_epoch(rcb, k):
        for e in rcb.entries():
            e.roll_epoch(k)

    monkeypatch.setattr(RequestControlBlock, "close_epoch", close_epoch)


@pytest.mark.parametrize(
    "reference", [queue_every_relay, miss_every_change, roll_every_epoch_eagerly]
)
@pytest.mark.parametrize("policy", POLICIES)
def test_a_reference_path_gives_the_same_outputs(monkeypatch, fast, policy, reference):
    reference(monkeypatch)
    outputs, _ = run_pair_c(policy)
    assert outputs == fast[policy][0]


def test_one_more_hop_on_the_relay_moves_the_outputs(monkeypatch, fast):
    # LAS-Strings only: no Fig. 12 pair at quick scale has a same-time
    # tie that one more hop reorders under LAS-Rain or PS-Strings.
    policy = "GWtMin+LAS-Strings"
    relay = Environment.relay

    def hop_then_relay(env, callback):
        event = Event(env)
        event.callbacks.append(lambda _event: relay(env, callback))
        event.succeed()

    monkeypatch.setattr(Environment, "relay", hop_then_relay)
    outputs, _ = run_pair_c(policy)
    assert outputs != fast[policy][0]


@pytest.mark.parametrize(
    "policy, events",
    [
        # 12 requests each: 1,954.8, 2,145.1 and 3,077.4 per request.
        # The outputs above cannot see a fast path that stopped firing;
        # these counts can (a queued relay is one more event).
        ("GWtMin+LAS-Strings", 23_458),
        ("GWtMin+LAS-Rain", 25_741),
        ("GWtMin+PS-Strings", 36_929),
    ],
)
def test_event_count_pins(fast, policy, events):
    assert fast[policy][1] == events
