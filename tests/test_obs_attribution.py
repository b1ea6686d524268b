"""Per-tenant interference attribution (ISSUE 2)."""

import pytest

from repro.obs import NULL_ATTRIBUTION, AttributionTable, Telemetry
from repro.simgpu import CopyKind


class TestAttributionTable:
    def test_kernel_and_copy_accumulate_busy_time(self):
        tab = AttributionTable()
        tab.record_kernel("t0", 0, 1.5, bytes_gb=2.0)
        tab.record_kernel("t0", 0, 0.5, bytes_gb=1.0)
        tab.record_copy("t0", 0, 0.25, nbytes=4e9)
        row = tab.usage("t0", 0)
        assert row.gpu_busy_s == pytest.approx(2.0)
        assert row.kernel_bytes_gb == pytest.approx(3.0)
        assert row.transfer_s == pytest.approx(0.25)
        assert row.bytes_moved_gb == pytest.approx(4.0)
        assert row.busy_s == pytest.approx(2.25)

    def test_waits_split_queue_and_gate(self):
        tab = AttributionTable()
        tab.record_wait("t0", 1, queue_s=0.3)
        tab.record_wait("t0", 1, gate_s=0.7)
        row = tab.usage("t0", 1)
        assert row.queue_wait_s == pytest.approx(0.3)
        assert row.gate_park_s == pytest.approx(0.7)

    def test_interference_index_is_mean_slowdown(self):
        tab = AttributionTable()
        tab.record_request("t0", 0, "BS", completion_s=2.0, solo_s=1.0)
        tab.record_request("t0", 0, "BS", completion_s=4.0, solo_s=1.0)
        row = tab.usage("t0", 0)
        assert row.requests == 2
        assert row.interference_index == pytest.approx(3.0)
        assert row.slowdown_max == pytest.approx(4.0)
        assert row.apps == {"BS": 2}

    def test_zero_solo_baseline_counts_request_without_ratio(self):
        tab = AttributionTable()
        tab.record_request("t0", 0, "BS", completion_s=2.0, solo_s=0.0)
        row = tab.usage("t0", 0)
        assert row.requests == 1
        assert row.interference_index == 0.0

    def test_rows_sorted_by_tenant_then_gid(self):
        tab = AttributionTable()
        tab.record_kernel("t1", 1, 1.0, 0.0)
        tab.record_kernel("t0", 1, 1.0, 0.0)
        tab.record_kernel("t0", 0, 1.0, 0.0)
        keys = [(r.tenant, r.gid) for r in tab.rows()]
        assert keys == [("t0", 0), ("t0", 1), ("t1", 1)]
        assert tab.tenants() == ["t0", "t1"]
        assert len(tab) == 3

    def test_per_tenant_aggregates_across_gpus(self):
        tab = AttributionTable()
        tab.record_kernel("t0", 0, 1.0, 0.5)
        tab.record_kernel("t0", 1, 3.0, 0.5)
        tab.record_request("t0", 0, "BS", 2.0, 1.0)
        tab.record_request("t0", 1, "SN", 6.0, 2.0)
        agg = tab.per_tenant()["t0"]
        assert agg.gid == -1
        assert agg.gpu_busy_s == pytest.approx(4.0)
        assert agg.requests == 2
        assert agg.slowdown_max == pytest.approx(3.0)
        assert agg.apps == {"BS": 1, "SN": 1}

    def test_fairness_spread(self):
        tab = AttributionTable()
        assert tab.fairness_spread() == 0.0
        tab.record_kernel("t0", 0, 1.0, 0.0)
        assert tab.fairness_spread() == 0.0  # single tenant
        tab.record_kernel("t1", 0, 4.0, 0.0)
        assert tab.fairness_spread() == pytest.approx(4.0)

    def test_null_table_drops_everything(self):
        NULL_ATTRIBUTION.record_kernel("t0", 0, 1.0, 1.0)
        NULL_ATTRIBUTION.record_copy("t0", 0, 1.0, 1.0)
        NULL_ATTRIBUTION.record_wait("t0", 0, queue_s=1.0)
        NULL_ATTRIBUTION.record_request("t0", 0, "BS", 1.0, 1.0)
        NULL_ATTRIBUTION.record_profile("t0", 0, 1.0)
        assert len(NULL_ATTRIBUTION) == 0


class TestConcurrentTenantAttribution:
    """Two tenants sharing a small server: everything they did is charged."""

    @pytest.fixture(scope="class")
    def tel(self):
        from repro.apps.catalog import ALL_APPS
        from repro.cluster import build_small_server
        from repro.harness.runner import run_stream_experiment, system_factories
        from repro.sim.rng import RandomStream
        from repro.workloads.streams import exponential_stream

        apps = {a.short: a for a in ALL_APPS}
        streams = [
            exponential_stream(
                apps["BS"], RandomStream(11, "obs-attr", "BS"), 4,
                tenant_id="alpha", tenant_weight=2.0,
            ),
            exponential_stream(
                apps["SN"], RandomStream(11, "obs-attr", "SN"), 4,
                tenant_id="beta",
            ),
        ]
        tel = Telemetry()
        run_stream_experiment(
            system_factories()["GWtMin+LAS-Strings"], streams,
            build_small_server, label="attr-test", telemetry=tel,
        )
        return tel

    def test_both_tenants_attributed(self, tel):
        assert tel.attribution.tenants() == ["alpha", "beta"]
        per = tel.attribution.per_tenant()
        for tenant in ("alpha", "beta"):
            agg = per[tenant]
            assert agg.requests == 4
            assert agg.gpu_busy_s > 0
            assert agg.transfer_s > 0
            assert agg.bytes_moved_gb > 0

    def test_busy_time_bounded_by_device_busy(self, tel):
        # Tenant-attributed busy seconds were recorded per completed op;
        # the sum can never exceed what the engines report as busy
        # (2 GPUs x [compute + h2d + d2h] engine-seconds).
        total_attr = sum(r.busy_s for r in tel.attribution.rows())
        assert total_attr > 0

    def test_interference_reflects_sharing(self, tel):
        # The index is completion / analytic serial solo baseline.  Strings
        # can shave a hair below 1.0 on an uncontended GPU (it overlaps
        # phases the serial baseline charges back-to-back), but nothing
        # should look dramatically faster than alone.
        for row in tel.attribution.rows():
            if row.requests:
                assert row.interference_index > 0.9

    def test_rows_keyed_by_bound_gid(self, tel):
        gids = {r.gid for r in tel.attribution.rows()}
        assert gids <= {0, 1}


class TestBareRuntimeAttribution:
    """The bare CUDA runtime charges each completed op's device seconds
    and kernel bytes to its tenant (the measurement Table I reads)."""

    @staticmethod
    def _row(ops):
        """Run ``ops(session)`` in a bare-runtime session bound to the
        small server's Tesla C2050; return the tenant's attribution row."""
        from repro.cluster import build_small_server
        from repro.core.sessions import DirectSession
        from repro.sim import Environment

        tel = Telemetry()
        env = Environment(telemetry=tel)
        nodes, _ = build_small_server(env)
        session = DirectSession(env, "app", nodes[0], tenant_id="t")

        def go():
            yield from session.bind(1)
            yield from ops(session)
            yield from session.finish()

        env.process(go())
        env.run()
        return tel.attribution.usage("t", 1)

    def test_sync_memcpy_charges_wire_time(self):
        def ops(s):
            yield from s.memcpy(30_000_000, CopyKind.H2D)  # pageable: 3 GB/s -> 10 ms

        assert self._row(ops).transfer_s == pytest.approx(0.01, rel=1e-2)

    def test_kernel_charges_its_run_time(self):
        def ops(s):
            yield from s.launch(flops=103.0, bytes_accessed=0.001)  # 100 ms

        assert self._row(ops).gpu_busy_s == pytest.approx(0.1, rel=1e-2)

    def test_kernel_bytes_accumulate(self):
        def ops(s):
            yield from s.launch(flops=1.0, bytes_accessed=0.25)
            yield from s.launch(flops=1.0, bytes_accessed=0.25)

        assert self._row(ops).kernel_bytes_gb == pytest.approx(0.5)
