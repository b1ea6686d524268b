"""Generic experiment machinery shared by every figure runner."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import repro.faults as faults
import repro.obs as obs
from repro.sim import Environment
from repro.cluster import Network, Node
from repro.cuda.errors import CudaError
from repro.apps.models import AppSpec, RequestResult, run_request
from repro.apps.catalog import REFERENCE_SPEC
from repro.core.feedback import AppProfile
from repro.core.policies import (
    DTF,
    GMin,
    GRR,
    GUF,
    GWtMin,
    LAS,
    MBF,
    PS,
    RTF,
    TFS,
)
from repro.core.systems import (
    CudaRuntimeSystem,
    Design2System,
    RainSystem,
    StringsSystem,
)
from repro.telemetry import DecisionLog
from repro.workloads.streams import Request, RequestStream
from repro.traffic import TenantDeparted, TenantSession, TrafficGenerator

#: (env, nodes, network) -> system with a ``.session(...)`` method.
SystemFactory = Callable[[Environment, List[Node], Network], object]


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs of a harness run.

    ``requests_per_stream`` is the number of end-user requests per node
    stream; ``load_factor`` dials the offered load (requests per solo
    runtime); ``fairness_window_s`` bounds the closed-loop fairness runs.
    """

    requests_per_stream: int = 20
    load_factor: float = 1.6
    #: Offered load of the paired-workload supernode experiments
    #: (Figs. 10, 12-15).  Deliberately higher: spread over four GPUs, the
    #: per-device multi-tenancy must reach the regime in which device-level
    #: scheduling and feedback collocation have decisions to make (3-6
    #: tenants per GPU, matching the paper's burst-and-queue service model).
    pair_load_factor: float = 6.0
    fairness_window_s: float = 120.0
    seed: int = 42

    def scaled(self, **kw) -> "ExperimentScale":
        return replace(self, **kw)


SCALE_PAPER = ExperimentScale()
SCALE_QUICK = ExperimentScale(requests_per_stream=6, fairness_window_s=45.0)


# --------------------------------------------------------------------------
# System factory registry
# --------------------------------------------------------------------------


def system_factories() -> Dict[str, SystemFactory]:
    """Named factories for every system/policy combination the paper runs.

    Names follow the paper's labels, e.g. ``GMin-Strings``,
    ``GWtMin+LAS-Strings``, ``RTF-Rain``, ``MBF-Strings``.
    """

    def cuda(env, nodes, net):
        return CudaRuntimeSystem(env, nodes, net)

    def rain(balancing, device=None):
        def make(env, nodes, net):
            return RainSystem(env, nodes, net, balancing=balancing(), device_policy=device)

        return make

    def strings(balancing, device=None):
        def make(env, nodes, net):
            return StringsSystem(env, nodes, net, balancing=balancing(), device_policy=device)

        return make

    def design2(balancing, device=None):
        def make(env, nodes, net):
            return Design2System(env, nodes, net, balancing=balancing(), device_policy=device)

        return make

    def rain_fb(policy_cls, device=None):
        def make(env, nodes, net):
            sys_ = RainSystem(env, nodes, net, balancing=GMin(), device_policy=device)
            sys_.mapper.policy = policy_cls(sys_.sft, fallback=GMin())
            return sys_

        return make

    def strings_fb(policy_cls, device=None):
        def make(env, nodes, net):
            sys_ = StringsSystem(env, nodes, net, balancing=GMin(), device_policy=device)
            sys_.mapper.policy = policy_cls(sys_.sft, fallback=GMin())
            return sys_

        return make

    return {
        "CUDA": cuda,
        # -- workload balancing (Fig. 9 / 10) --------------------------------
        "GRR-Rain": rain(GRR),
        "GMin-Rain": rain(GMin),
        "GWtMin-Rain": rain(GWtMin),
        "GRR-Strings": strings(GRR),
        "GMin-Strings": strings(GMin),
        "GWtMin-Strings": strings(GWtMin),
        # -- backend design ablation (paper Fig. 5, middle design) ----------
        "GRR-Design2": design2(GRR),
        "GMin-Design2": design2(GMin),
        # -- device-level scheduling (Figs. 11-13) -----------------------------
        "TFS-Rain": rain(GMin, device=TFS),
        "TFS-Strings": strings(GMin, device=TFS),
        "GWtMin+LAS-Rain": rain(GWtMin, device=LAS),
        "GWtMin+LAS-Strings": strings(GWtMin, device=LAS),
        "GWtMin+PS-Strings": strings(GWtMin, device=PS),
        "LAS-Rain": rain(GRR, device=LAS),
        "LAS-Strings": strings(GRR, device=LAS),
        "PS-Strings": strings(GRR, device=PS),
        # -- feedback-based balancing (Figs. 14-15) -------------------------------
        "RTF-Rain": rain_fb(RTF),
        "GUF-Rain": rain_fb(GUF),
        "RTF-Strings": strings_fb(RTF),
        "GUF-Strings": strings_fb(GUF),
        "DTF-Strings": strings_fb(DTF),
        "MBF-Strings": strings_fb(MBF),
    }


# --------------------------------------------------------------------------
# The request path: finite streams and generated traffic share one body
# --------------------------------------------------------------------------


@dataclass
class RunResult:
    """Outcome of one run through the request path (either runner).

    Latencies live in a telemetry histogram (a mergeable quantile
    sketch) and everything else is counters, so a
    production-scale open-loop run (10^5-10^6 requests) never keeps a
    ``RequestResult`` list.  ``results`` (completion order) is populated
    for stream runs and under ``keep_results=True`` (tests, small runs).
    """

    label: str = ""
    #: Requests issued into the system (completed + aborted + failed).
    offered: int = 0
    completed: int = 0
    #: Requests killed mid-flight by tenant churn (session departed).
    aborted: int = 0
    #: Requests lost to fault injection (retry budget exhausted).
    failed: int = 0
    sessions: int = 0
    churned_sessions: int = 0
    sim_time_s: float = 0.0
    wall_time_s: float = 0.0
    #: Arrival horizon (requests stop arriving here; the run itself
    #: drains until the last in-flight request resolves).
    duration_s: float = 0.0
    latency_sum_s: float = 0.0
    latency_max_s: float = 0.0
    per_app: Dict[str, int] = field(default_factory=dict)
    #: Telemetry histogram of completion latencies (``quantile(q)``).
    latency_hist: object = None
    #: Availability summary when fault injection was active, else None.
    faults_summary: Optional[Dict[str, object]] = None
    results: Optional[List[RequestResult]] = None

    @property
    def goodput_rps(self) -> float:
        """Completed requests per sim second over the arrival horizon."""
        horizon = self.duration_s if self.duration_s > 0 else self.sim_time_s
        return self.completed / horizon if horizon > 0 else 0.0

    @property
    def mean_latency_s(self) -> float:
        return self.latency_sum_s / self.completed if self.completed else 0.0

    def latency_quantile(self, q: float) -> float:
        if self.latency_hist is None or not self.completed:
            return 0.0
        return self.latency_hist.quantile(q)


def run_stream_experiment(
    factory: SystemFactory,
    streams: Sequence[RequestStream],
    testbed: Callable[[Environment], Tuple[List[Node], Network]],
    label: str = "",
    prewarm: bool = False,
    telemetry=None,
    fault_plan=None,
) -> RunResult:
    """Run request streams (one per node index) through a system.

    The streams enter the request path as one tenant session that
    arrives at t=0 and never departs, holding every request in stream
    order; each request waits for its own arrival time, opens a session
    on its node and drives :func:`run_request`.  ``prewarm=True`` seeds
    the system's SFT with analytic solo profiles (the "system has seen
    this application before" steady state of the feedback experiments).
    ``telemetry`` overrides the installed default registry (see
    :mod:`repro.obs`); spans/decisions of this run are labelled
    ``label``.  ``fault_plan`` overrides the installed process-wide
    fault plan (see :mod:`repro.faults`); with neither, the run takes
    the unchanged null path.
    """
    # The requests mix apps and tenants, so the session names neither.
    session = TenantSession(
        session_id=0, tenant_id="", app=None, arrival_s=0.0, departure_s=math.inf,
        requests=tuple(req for stream in streams for req in stream),
    )
    horizon_s = max((s.horizon_s for s in streams), default=0.0)
    return _run_sessions(
        factory, [session], testbed, label, prewarm, telemetry, fault_plan,
        horizon_s, keep_results=True,
    )


def run_open_loop_experiment(
    factory: SystemFactory,
    traffic: TrafficGenerator,
    testbed: Callable[[Environment], Tuple[List[Node], Network]],
    label: str = "",
    prewarm: bool = False,
    telemetry=None,
    fault_plan=None,
    keep_results: bool = False,
) -> RunResult:
    """Drive generated traffic through a system until the last request drains.

    The lazy session stream of a :class:`~repro.traffic.TrafficGenerator`
    enters the request path as is, so sessions materialize only as the
    run reaches their arrival and memory stays O(active sessions)
    however many requests the run offers.  The traffic's duration is the
    arrival horizon.  Parameters as for :func:`run_stream_experiment`;
    ``keep_results=True`` also keeps every ``RequestResult``.
    """
    return _run_sessions(
        factory, traffic.sessions(), testbed, label, prewarm, telemetry,
        fault_plan, traffic.duration_s, keep_results,
    )


def _run_sessions(
    factory: SystemFactory,
    sessions: Iterable[TenantSession],
    testbed: Callable[[Environment], Tuple[List[Node], Network]],
    label: str,
    prewarm: bool,
    telemetry,
    fault_plan,
    horizon_s: float,
    keep_results: bool,
) -> RunResult:
    """The request path both runners share.

    A driver process walks ``sessions`` (arrival-ordered, possibly lazy),
    spawning one process per request as each session arrives, and a
    counting barrier fires once the driver is exhausted and the last
    in-flight request resolves.

    Churn: a session whose tenant departs mid-flight is killed with
    :class:`~repro.traffic.TenantDeparted` via ``session.abort`` — the
    scheduler evicts its RCB entry without emitting an SFT profile and
    only that session's queued work is cancelled (see
    ``ManagedSession.abort``).  The CUDA baseline's sessions cannot be
    aborted (no scheduler to unwind) and simply run to completion, as do
    requests routed through the fault-recovery path.
    """
    tel = telemetry if telemetry is not None else obs.current()
    env = Environment(telemetry=tel)
    tel.run_label = label
    nodes, network = testbed(env)
    if type(tel.decisions) is DecisionLog and not tel.decisions.placements:
        # One placement record per request is an O(run) retainer under an
        # unbounded horizon; keep a recent window for reports instead.
        tel.decisions = DecisionLog(tel, maxlen=10_000)
    system = factory(env, nodes, network)

    if prewarm:
        prewarm_sft(system)

    # Fault injection (repro.faults): only scheduled systems have a gPool
    # to heal around — the CUDA baseline runs any plan as a no-op.
    plan = fault_plan if fault_plan is not None else faults.current_plan()
    recovery = None
    if plan is not None and getattr(system, "pool", None) is not None:
        recovery = faults.RecoveryManager(
            env, system, retry=plan.retry, warmup_s=plan.warmup_s
        )
        faults.FaultInjector(env, plan, recovery).start()

    # Continuous sampling: the sampler loops forever, which is safe
    # because the run ends at the barrier below.
    sampler = getattr(tel, "sampler", None)
    if sampler is not None and tel.sampling:
        # Progress for the live console: sim time over the arrival
        # horizon (the request count is unknown for lazy traffic).
        tel.run_horizon_s = horizon_s
        sampler.start(env, system)

    run = RunResult(
        label=label,
        duration_s=horizon_s,
        latency_hist=tel.histogram("harness.latency_s", label=label),
        results=[] if keep_results else None,
    )
    outstanding = 0
    driver_done = False
    done = env.event()

    def finish_one():
        nonlocal outstanding
        outstanding -= 1
        if driver_done and outstanding == 0 and not done.triggered:
            done.succeed()

    def _close_root_span(session):
        # An aborted request never reaches run_request's root.finish();
        # close the span here (flagged) or the streaming store retains
        # its whole span group — an O(aborts) leak over a long run.
        root = getattr(session, "root_span", None)
        if root is not None and not root.finished:
            if root.args is not None:
                root.args["aborted"] = True
            root.finish(env.now)

    def request_proc(req: Request, live: list, state: dict):
        if req.arrival_s > env.now:
            yield env.timeout(req.arrival_s - env.now)
        try:
            if state["departed"]:
                run.aborted += 1
                return
            node = nodes[min(req.node_index, len(nodes) - 1)]
            if recovery is not None:
                try:
                    result = yield env.process(recovery.run_resilient(node, req))
                except CudaError:
                    # Retry budget exhausted: the request is lost (counted
                    # in the availability summary), the run carries on.
                    run.failed += 1
                    return
            else:
                session = system.session(
                    req.app.short,
                    node,
                    tenant_id=req.tenant_id,
                    tenant_weight=req.tenant_weight,
                )
                live.append(session)
                try:
                    result = yield env.process(
                        run_request(env, session, req.app, arrival_s=req.arrival_s)
                    )
                except TenantDeparted:
                    run.aborted += 1
                    _close_root_span(session)
                    return
                except CudaError:
                    # An aborted session's in-flight work can surface as
                    # a CudaError (its worker is torn down underneath
                    # it); attribute that to the churn abort.  Anything
                    # else is a real failure and must propagate.
                    if not getattr(session, "aborted", False):
                        raise
                    run.aborted += 1
                    _close_root_span(session)
                    return
                finally:
                    live.remove(session)
            run.completed += 1
            latency = result.completion_s
            run.latency_sum_s += latency
            if latency > run.latency_max_s:
                run.latency_max_s = latency
            run.latency_hist.observe(latency)
            run.per_app[result.app] = run.per_app.get(result.app, 0) + 1
            if run.results is not None:
                run.results.append(result)
        finally:
            finish_one()

    def departure_watch(ts, live: list, state: dict):
        if ts.departure_s > env.now:
            yield env.timeout(ts.departure_s - env.now)
        state["departed"] = True
        exc = TenantDeparted(
            f"tenant {ts.tenant_id} departed at {ts.departure_s:.3f}s"
        )
        for session in list(live):
            abort = getattr(session, "abort", None)
            if abort is not None:
                abort(exc)

    def driver():
        nonlocal outstanding, driver_done
        for ts in sessions:
            if ts.arrival_s > env.now:
                yield env.timeout(ts.arrival_s - env.now)
            run.sessions += 1
            if ts.churned:
                run.churned_sessions += 1
            live: list = []
            state = {"departed": False}
            for req in ts.requests:
                run.offered += 1
                outstanding += 1
                env.process(
                    request_proc(req, live, state), name=f"req:{req.app.short}"
                )
            if ts.churned:
                env.process(
                    departure_watch(ts, live, state), name=f"churn:{ts.tenant_id}"
                )
        driver_done = True
        if outstanding == 0 and not done.triggered:
            done.succeed()

    env.process(driver(), name="traffic-driver")
    with tel.stopwatch("harness.wall_s", label=label) as sw:
        env.run(until=done)
    tel.gauge("harness.sim_time_s", label=label).set(env.now)
    run.sim_time_s, run.wall_time_s = env.now, sw.elapsed
    if recovery is not None:
        run.faults_summary = recovery.summary()
    return run


def prewarm_sft(system) -> None:
    """Seed a scheduled system's SFT with analytic solo profiles.

    Models the steady state in which the Policy Arbiter has already
    received feedback for every catalog application (paper: "decisions
    are refined over time as the system learns").  No-op for systems
    without an SFT (the CUDA baseline).
    """
    mapper = getattr(system, "mapper", None)
    if mapper is None:
        return
    from repro.apps.catalog import ALL_APPS

    for app in ALL_APPS:
        runtime = app.solo_runtime_s(REFERENCE_SPEC)
        gpu_time = app.iterations * app.kernel_solo_s(REFERENCE_SPEC)
        transfer = app.iterations * app.transfer_solo_s(REFERENCE_SPEC)
        mapper.deliver_feedback(
            AppProfile(
                app_name=app.short,
                runtime_s=runtime,
                gpu_time_s=gpu_time,
                transfer_time_s=transfer,
                bytes_accessed_gb=app.iterations * app.kernel_bytes_gb,
            )
        )


# --------------------------------------------------------------------------
# Solo references and closed-loop sharing (fairness experiments)
# --------------------------------------------------------------------------


def solo_completion_time(
    factory: SystemFactory,
    app: AppSpec,
    testbed: Callable[[Environment], Tuple[List[Node], Network]],
) -> float:
    """Completion time of one request running *alone* under a system."""
    env = Environment()
    nodes, network = testbed(env)
    system = factory(env, nodes, network)
    session = system.session(app.short, nodes[0])
    proc = env.process(run_request(env, session, app))
    result = env.run(until=proc)
    return result.completion_s


def closed_loop_shared_run(
    factory: SystemFactory,
    apps: Sequence[AppSpec],
    testbed: Callable[[Environment], Tuple[List[Node], Network]],
    window_s: float,
    tenant_weights: Optional[Sequence[float]] = None,
) -> Dict[str, float]:
    """Run one instance of each app back-to-back for ``window_s`` on a
    shared testbed; returns each app's mean per-request completion time.

    This is the fairness rig of paper Fig. 11: application pairs share a
    single GPU with pre-defined (equal) tenant shares.
    """
    env = Environment()
    nodes, network = testbed(env)
    system = factory(env, nodes, network)
    weights = list(tenant_weights) if tenant_weights else [1.0] * len(apps)
    times: Dict[str, List[float]] = {a.short: [] for a in apps}

    def loop(app: AppSpec, weight: float, tenant: str):
        while env.now < window_s:
            session = system.session(
                app.short, nodes[0], tenant_id=tenant, tenant_weight=weight
            )
            result = yield env.process(run_request(env, session, app))
            times[app.short].append(result.completion_s)

    procs = [
        env.process(loop(app, w, f"tenant{i}"), name=f"loop:{app.short}")
        for i, (app, w) in enumerate(zip(apps, weights))
    ]
    env.run(until=env.all_of(procs))

    out: Dict[str, float] = {}
    for app in apps:
        samples = times[app.short]
        if not samples:
            # The app never completed a request inside the window: charge
            # the whole window as its (censored) completion time.
            out[app.short] = window_s
        else:
            out[app.short] = sum(samples) / len(samples)
    return out


__all__ = [
    "ExperimentScale",
    "SCALE_PAPER",
    "SCALE_QUICK",
    "RunResult",
    "SystemFactory",
    "closed_loop_shared_run",
    "prewarm_sft",
    "run_open_loop_experiment",
    "run_stream_experiment",
    "solo_completion_time",
    "system_factories",
]
