"""The declarative experiment registry (repro.harness.registry).

Covers discovery/listing/lookup, the ParamGrid algebra, JSON
round-tripping, the GridExperiment protocol (a two-axis sweep as one
registered class, no CLI plumbing), and the cached-analysis contract:
``analyze_from`` re-renders a saved run byte-identically without
touching the DES kernel.
"""

import json

import pytest

import repro.obs as obs
from repro.harness import registry
from repro.harness.runner import SCALE_QUICK
from repro.sim.core import Environment


EXPECTED_NAMES = {
    "table1", "fig1", "fig2", "fig9", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "ablations", "chaos", "pairsweep",
    "scale", "scaleout",
}


# -- discovery & lookup ------------------------------------------------------


def test_discovery_registers_every_harness_entry_point():
    assert set(registry.names()) >= EXPECTED_NAMES
    for name in EXPECTED_NAMES:
        cls = registry.get(name)
        assert issubclass(cls, registry.Experiment)
        assert cls.name == name
        assert "run" in cls.phases()


def test_listing_shows_name_phases_grid_and_description():
    text = registry.format_listing()
    for name in EXPECTED_NAMES:
        assert name in text
    # pairsweep implements all three phases and declares a 2-axis grid.
    pairsweep_line = next(
        line for line in text.splitlines() if line.startswith("pairsweep")
    )
    assert "prepare/run/analyze" in pairsweep_line
    assert "policy[" in pairsweep_line and "pair[" in pairsweep_line
    # Descriptions come from the class docstrings.
    assert registry.get("fig9").describe() in text


def test_unknown_name_raises_with_near_miss_suggestions():
    with pytest.raises(registry.UnknownExperiment) as exc:
        registry.get("fig99")
    msg = str(exc.value)
    assert "fig99" in msg and "did you mean" in msg and "fig9" in msg
    assert "python -m repro.harness list" in msg
    assert "fig9" in exc.value.suggestions


def test_unknown_name_without_suggestions_still_actionable():
    with pytest.raises(registry.UnknownExperiment) as exc:
        registry.get("zzzzzzzz")
    assert "python -m repro.harness list" in str(exc.value)


def test_alias_resolves_to_canonical_experiment():
    assert registry.get("ablate") is registry.get("ablations")


def test_prepare_rejects_undeclared_options_with_a_hint():
    ctx = registry.ExperimentContext(options={"polices": ["GRR-Strings"]})
    with pytest.raises(registry.OptionError, match="-O polices: .*did you mean 'policies'"):
        registry.prepare("fig9", ctx)
    ctx = registry.ExperimentContext(options={"loads": [0]})
    with pytest.raises(registry.OptionError, match="-O loads: multipliers must be > 0"):
        registry.prepare("scale", ctx)


def test_observe_keeps_null_registry_unless_asked_but_points_always_observe(tmp_path):
    ctx = registry.ExperimentContext(out_dir=str(tmp_path))
    with registry.observe(ctx, "t") as observed:
        assert observed.telemetry is obs.current()
        assert not observed.telemetry.enabled
    with registry.observe(ctx, "t", point="1x") as observed:
        tel = observed.telemetry
        assert obs.current() is tel and tel.enabled and tel.sampler is not None
    assert not obs.current().enabled  # the previous registry is restored
    assert ctx.artifacts == [] and list(tmp_path.iterdir()) == []

    ctx.obs = registry.ObsSpec(emit=frozenset({"metrics", "heartbeat"}))
    with registry.observe(ctx, "t", point="2x"):
        pass
    assert sorted(ctx.artifacts) == ["point-2x/heartbeat.jsonl", "point-2x/metrics.json"]
    assert all((tmp_path / rel).exists() for rel in ctx.artifacts)


# -- ParamGrid ---------------------------------------------------------------


def test_param_grid_points_product_order():
    grid = registry.ParamGrid.of(a=(1, 2), b=("x", "y", "z"))
    assert grid.axis_names == ["a", "b"]
    assert len(grid) == 6
    pts = list(grid.points())
    assert pts[0] == {"a": 1, "b": "x"}
    assert pts[1] == {"a": 1, "b": "y"}  # last axis fastest
    assert pts[-1] == {"a": 2, "b": "z"}
    assert grid.describe() == "a[2]xb[3]"


def test_param_grid_single_axis():
    grid = registry.ParamGrid.of(load=(0.5, 1.0, 2.0))
    assert len(grid) == 3
    assert [p["load"] for p in grid.points()] == [0.5, 1.0, 2.0]


# -- JSON round-tripping -----------------------------------------------------


def test_to_jsonable_normalizes_tuples_and_keys():
    doc = {1: ("a", 2.5), "nested": {True: [(0, 1)]}}
    out = registry.to_jsonable(doc)
    assert out == {"1": ["a", 2.5], "nested": {"True": [[0, 1]]}}
    # Round-trip is a fixed point: what analyze sees live is exactly
    # what json.load returns from the cached artifact.
    assert registry.roundtrip(doc) == out
    assert registry.roundtrip(out) == out


def test_to_jsonable_collapses_numpy():
    np = pytest.importorskip("numpy")
    out = registry.to_jsonable({"xs": np.array([1.0, 2.0]), "n": np.int64(3)})
    assert out == {"xs": [1.0, 2.0], "n": 3}
    json.dumps(out)  # genuinely serializable


# -- GridExperiment: a 2-axis sweep as one registered class ------------------


def test_two_axis_grid_sweep_needs_only_one_registered_class():
    """ISSUE acceptance demo: a new >=2-axis sweep is one GridExperiment
    subclass — registration, execution and rendering all come from the
    shared machinery, no new CLI plumbing."""
    calls = []

    @registry.register("_test_grid")
    class TwoAxis(registry.GridExperiment):
        """A two-axis test sweep."""

        grid = registry.ParamGrid.of(alpha=(1, 2, 3), beta=("x", "y"))

        def run_point(self, params, ctx):
            calls.append((params["alpha"], params["beta"]))
            return {"score": params["alpha"] * 10 + len(params["beta"])}

    try:
        exp, results = registry.execute("_test_grid")
        assert calls == [(a, b) for a in (1, 2, 3) for b in ("x", "y")]
        assert results["grid"] == {"alpha": [1, 2, 3], "beta": ["x", "y"]}
        assert len(results["points"]) == len(TwoAxis.grid) == 6
        text = exp.analyze(results, registry.ExperimentContext())
        lines = text.splitlines()
        assert lines[0] == "_test_grid — declared grid sweep"
        assert lines[1].split() == ["alpha", "beta", "score"]
        assert len(lines) == 3 + 6  # title, header, rule, one row per point
    finally:
        registry._REGISTRY.pop("_test_grid", None)


def test_grid_experiment_without_grid_is_an_error():
    class NoGrid(registry.GridExperiment):
        pass

    with pytest.raises(NotImplementedError):
        NoGrid().run(registry.ExperimentContext())


# -- run artifacts -----------------------------------------------------------


def test_load_run_rejects_non_run_directory(tmp_path):
    with pytest.raises(ValueError, match="not a harness run directory"):
        registry.load_run(str(tmp_path))


def test_load_run_rejects_format_mismatch(tmp_path):
    (tmp_path / "experiment.json").write_text(
        json.dumps({"format": 999, "experiment": "fig1"})
    )
    with pytest.raises(ValueError, match="format 999"):
        registry.load_run(str(tmp_path))


def test_load_run_rejects_missing_results(tmp_path):
    (tmp_path / "experiment.json").write_text(
        json.dumps({"format": registry.RUN_FORMAT, "experiment": "fig1"})
    )
    with pytest.raises(ValueError, match="results.json missing"):
        registry.load_run(str(tmp_path))


def _events_processed(tel) -> float:
    """Total of every ``sim.events_processed`` gauge in a registry."""
    return sum(
        inst.value
        for (_, (name, _labels)), inst in tel._instruments.items()
        if name == "sim.events_processed"
    )


def test_cached_analysis_is_byte_identical_and_never_simulates(
    tmp_path, monkeypatch
):
    """ISSUE round-trip contract: ``analyze --from <run-dir>`` re-renders
    the report byte-identically, and the DES kernel never runs — the
    ``sim.events_processed`` gauge stays 0 and Environment is never even
    constructed."""
    tiny = SCALE_QUICK.scaled(requests_per_stream=2)
    run_dir = tmp_path / "run"
    options = {"apps": ["GA"], "policies": ["GRR-Strings"]}

    tel_live = obs.Telemetry()
    tel_live.sampler = obs.Sampler(interval_s=1.0)
    obs.install(tel_live)
    try:
        ctx = registry.ExperimentContext(
            scale=tiny, options=dict(options), out_dir=str(run_dir)
        )
        exp, results = registry.execute("fig9", ctx)
        live_text = exp.analyze(results, ctx)
    finally:
        obs.reset()
    # Control: the gauge really does count simulation when one runs.
    assert _events_processed(tel_live) > 0
    assert (run_dir / "experiment.json").exists()
    assert (run_dir / "results.json").exists()
    meta = json.loads((run_dir / "experiment.json").read_text())
    assert meta["format"] == registry.RUN_FORMAT
    assert meta["experiment"] == "fig9"
    assert meta["scale"]["requests_per_stream"] == 2

    tel_cached = obs.Telemetry()
    tel_cached.sampler = obs.Sampler(interval_s=1.0)
    obs.install(tel_cached)

    def no_sim(*args, **kwargs):
        raise AssertionError("analyze --from must not construct the DES kernel")

    monkeypatch.setattr(Environment, "__init__", no_sim)
    try:
        cached_text = registry.analyze_from(str(run_dir))
    finally:
        obs.reset()

    assert cached_text == live_text
    assert _events_processed(tel_cached) == 0


def test_run_main_prints_and_returns_report(capsys):
    tiny = SCALE_QUICK.scaled(requests_per_stream=2)
    text = registry.run_main(
        "fig9", scale=tiny, apps=["GA"], policies=["GRR-Strings"]
    )
    out = capsys.readouterr().out
    assert text in out
    assert "Fig. 9" in text and "GRR-Strings" in text
