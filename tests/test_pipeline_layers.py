"""Unit tests for the request-pipeline layers (DESIGN.md §12).

Layer by layer: the FrontendInterposer's channel (the RpcCostModel cost
arithmetic and the bind-time locality flip), the shared BackendIssueLoop
(FIFO order, async pipelining, per-owner cancellation, error
marshalling), the composable TranslationStack, each design system's
worker release, plus the label() zero-GPU guard and the malloc knobs
that moved into SchedulerConfig.
"""

import pytest

from repro.sim import Environment
from repro.cluster import Network, Node, build_single_gpu_server
from repro.core import (
    DEFAULT_CONFIG,
    Design2System,
    RainSystem,
    SchedulerConfig,
    StringsSystem,
    TranslationStack,
    native_stack,
    packed_stack,
    shared_thread_stack,
)
from repro.core.policies import GMin
from repro.core.translation import (
    ContextSync,
    NativeLaunch,
    PackedContextSync,
    PageableCopy,
    QueuedStreamSync,
    StagedAsyncCopy,
    StreamLaunch,
    StreamPageableCopy,
    StreamSync,
)
from repro.remoting import BackendIssueLoop, IssueItem, RpcCostModel
from repro.apps import app_by_short, run_request


# -- layer 1: the interposer's channel ---------------------------------------


def test_transport_roundtrip_is_request_plus_response():
    net, rpc = Network(), RpcCostModel()
    assert rpc.roundtrip_delay(net, True, 128) == pytest.approx(
        rpc.request_delay(net, True, 128) + rpc.response_delay(net, True)
    )


def test_transport_remote_costs_more_than_local():
    net, rpc = Network(), RpcCostModel()
    assert rpc.request_delay(net, False) > rpc.request_delay(net, True)
    assert rpc.roundtrip_delay(net, False) > rpc.roundtrip_delay(net, True)
    assert rpc.bulk_data_delay(net, False, 1 << 20) > rpc.bulk_data_delay(net, True, 1 << 20)


def test_transport_staging_is_host_side_only():
    # MOT staging is a host memcpy: it takes no network or locality, and
    # scales linearly in bytes.
    rpc = RpcCostModel()
    assert rpc.staging_delay(2 << 20) == pytest.approx(2 * rpc.staging_delay(1 << 20))
    assert rpc.staging_delay(0) == 0.0


def test_interposer_locality_flips_at_bind():
    env = Environment()
    nodes, net = build_single_gpu_server(env)
    system = StringsSystem(env, nodes, net, balancing=GMin())
    sess = system.session("MC", nodes[0])
    # Pre-bind, the interception hop is node-local by construction.
    assert sess.interposer.local is True
    assert sess.interposer.network is net
    env.process(run_request(env, sess, app_by_short("MC")))
    env.run()
    # The only GPU shares the frontend's node, so it stays local.
    assert sess.interposer.local is True


# -- layer 2: BackendIssueLoop -----------------------------------------------


def _item(env, make, blocking, gated=False):
    return IssueItem(
        owner=None,
        phase=None,
        make=make,
        blocking=blocking,
        done=env.event(),
        gated=gated,
        posted_at=env.now,
    )


def test_issue_loop_runs_blocking_items_fifo():
    env = Environment()
    loop = BackendIssueLoop(env, name="test-loop")
    finished = []

    def op(tag, dur):
        def make():
            def _gen():
                yield env.timeout(dur)
                finished.append((tag, env.now))
                return tag

            return env.process(_gen())

        return make

    items = [_item(env, op("a", 0.3), True), _item(env, op("b", 0.1), True)]
    for it in items:
        loop.post(it)
    env.run()
    # FIFO: b (shorter) still finishes after a — head-of-line blocking.
    assert finished == [("a", 0.3), ("b", 0.4)]
    assert items[0].done.value == "a" and items[1].done.value == "b"
    assert loop.depth == 0


def test_issue_loop_pipelines_async_items():
    env = Environment()
    loop = BackendIssueLoop(env, name="test-loop")
    finished = []

    def op(tag, dur):
        def make():
            def _gen():
                yield env.timeout(dur)
                finished.append((tag, env.now))

            return env.process(_gen())

        return make

    loop.post(_item(env, op("slow", 0.3), blocking=False))
    loop.post(_item(env, op("fast", 0.1), blocking=False))
    env.run()
    # Non-blocking issue does not wait: fast overtakes slow on the device.
    assert finished == [("fast", 0.1), ("slow", 0.3)]


def test_issue_loop_none_completion_succeeds_immediately():
    env = Environment()
    loop = BackendIssueLoop(env, name="test-loop")
    served = []
    loop._on_served = lambda item, result: served.append(result)
    it = _item(env, lambda: None, blocking=True)
    loop.post(it)
    env.run()
    assert it.done.ok and it.done.value is None
    assert served == [None]


def test_issue_loop_marshals_make_exception_to_done():
    env = Environment()
    loop = BackendIssueLoop(env, name="test-loop")

    def boom():
        raise RuntimeError("dead worker")

    it = _item(env, boom, blocking=True)
    loop.post(it)
    env.run()
    assert it.done.triggered and not it.done.ok
    assert isinstance(it.done.value, RuntimeError)
    # Pre-defused: no waiter is required for the failure.
    assert it.done.defused


def test_cancel_owner_spares_other_tenants():
    env = Environment()
    loop = BackendIssueLoop(env, name="test-loop")
    mine, other = object(), object()

    def never():
        raise AssertionError("cancelled item must not be issued")

    victims = []
    for owner in (mine, other, mine):
        it = IssueItem(
            owner=owner, phase=None, make=never, blocking=True,
            done=env.event(), gated=False, posted_at=env.now,
        )
        # Don't start the loop on them: occupy it with a long op first.
        victims.append(it)

    def hold():
        def _gen():
            yield env.timeout(10.0)

        return env.process(_gen())

    loop.post(_item(env, hold, blocking=True))
    for it in victims:
        loop.post(it)

    def do_cancel():
        yield env.timeout(0.5)
        n = loop.cancel_owner(mine, RuntimeError("aborted"))
        assert n == 2

    env.process(do_cancel())
    env.run(until=1.0)
    assert victims[0].done.triggered and not victims[0].done.ok
    assert victims[2].done.triggered and not victims[2].done.ok
    assert not victims[1].done.triggered  # other tenant still queued
    assert loop.depth == 1


# -- layer 3: TranslationStack -----------------------------------------------


def test_stack_factories_compose_the_right_strategies():
    nat = native_stack()
    assert isinstance(nat.copy, PageableCopy)
    assert isinstance(nat.launch, NativeLaunch)
    assert isinstance(nat.sync, ContextSync)

    full = packed_stack(mot_enabled=True, sst_enabled=True)
    assert isinstance(full.copy, StagedAsyncCopy)
    assert isinstance(full.launch, StreamLaunch)
    assert isinstance(full.sync, StreamSync)

    ablated = packed_stack(mot_enabled=False, sst_enabled=False)
    assert isinstance(ablated.copy, StreamPageableCopy)
    assert isinstance(ablated.sync, PackedContextSync)

    d2 = shared_thread_stack(mot_enabled=True)
    assert isinstance(d2.copy, StagedAsyncCopy)
    assert isinstance(d2.sync, QueuedStreamSync)


def test_stack_is_immutable():
    stack = native_stack()
    with pytest.raises(Exception):
        stack.sync = StreamSync()
    assert isinstance(stack, TranslationStack)


def test_sessions_get_their_design_stack():
    env = Environment()
    nodes, net = build_single_gpu_server(env)
    rain = RainSystem(env, nodes, net, balancing=GMin()).session("MC", nodes[0])
    assert isinstance(rain.translation.copy, PageableCopy)
    strings = StringsSystem(env, nodes, net, balancing=GMin()).session("MC", nodes[0])
    assert isinstance(strings.translation.copy, StagedAsyncCopy)
    assert isinstance(strings.translation.sync, StreamSync)


# -- each design system releases its worker its own way ----------------------


@pytest.mark.parametrize("how", ["finish", "abort"])
@pytest.mark.parametrize(
    "system_cls, exits_thread, packs",
    [
        (RainSystem, True, False),
        (StringsSystem, True, True),
        (Design2System, False, True),
    ],
)
def test_each_design_releases_its_worker_its_own_way(system_cls, exits_thread, packs, how):
    env = Environment()
    nodes, net = build_single_gpu_server(env)
    system = system_cls(env, nodes, net, balancing=GMin())
    sess = system.session("MC", nodes[0])
    env.process(sess.bind())
    env.run()
    packers = getattr(system, "packers", {}).values()
    assert sum(p.packed_count for p in packers) == int(packs)

    if how == "finish":
        env.process(sess.finish())
        env.run()
    else:
        sess.abort(RuntimeError("tenant gone"))

    # Rain's process thread and Strings' per-app thread exit; Design II's
    # worker is the device master's one thread, which outlives its tenants.
    assert sess.worker.exited is exits_thread
    assert sum(p.packed_count for p in packers) == 0
    if system_cls is Design2System:
        assert sess.packed is None


# -- satellite: label() on a zero-GPU pool -----------------------------------


def test_label_survives_empty_scheduler_map():
    env = Environment()
    gpuless = Node(env, [], hostname="cpu-only")
    system = StringsSystem(env, [gpuless], Network(), balancing=GMin())
    assert system.schedulers == {}
    assert system.label() == "GMin-Strings"


def test_label_with_device_policy_suffix():
    env = Environment()
    nodes, net = build_single_gpu_server(env)
    system = StringsSystem(env, nodes, net, balancing=GMin())
    assert system.label() == "GMin-Strings"


# -- satellite: malloc knobs in SchedulerConfig ------------------------------


def test_malloc_knobs_have_sane_defaults():
    assert DEFAULT_CONFIG.malloc_retry_s > 0
    assert DEFAULT_CONFIG.malloc_max_wait_s >= 0


@pytest.mark.parametrize("retry", [0.0, -0.1])
def test_malloc_retry_must_be_positive(retry):
    with pytest.raises(ValueError, match="malloc_retry_s"):
        SchedulerConfig(malloc_retry_s=retry)


def test_malloc_max_wait_must_be_nonnegative():
    with pytest.raises(ValueError, match="malloc_max_wait_s"):
        SchedulerConfig(malloc_max_wait_s=-1.0)


def test_config_reaches_sessions():
    env = Environment()
    nodes, net = build_single_gpu_server(env)
    cfg = SchedulerConfig(malloc_retry_s=0.5, malloc_max_wait_s=7.0)
    system = StringsSystem(env, nodes, net, balancing=GMin(), config=cfg)
    sess = system.session("MC", nodes[0])
    assert sess.config.malloc_retry_s == 0.5
    assert sess.config.malloc_max_wait_s == 7.0
