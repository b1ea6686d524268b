"""Smoke tests: every figure runner produces sane output at tiny scale.

These complement the benchmark suite (which runs the figures at CI scale
with shape assertions) by running each registered experiment quickly:
subset options, results document structure, positive values.
"""

from repro.harness import registry
from repro.harness.runner import SCALE_QUICK

TINY = SCALE_QUICK.scaled(
    requests_per_stream=3, load_factor=1.2, pair_load_factor=2.0,
    fairness_window_s=20.0,
)


def _run(name, **options):
    ctx = registry.ExperimentContext(scale=TINY, options=options)
    return registry.execute(name, ctx)[1]


def test_fig9_runner_subset():
    data = _run("fig9", apps=["GA"], policies=["GRR-Strings", "GRR-Rain"])
    assert set(data) == {"GRR-Strings", "GRR-Rain"}
    for row in data.values():
        assert set(row) == {"GA", "avg"}
        assert row["avg"] > 0


def test_fig10_runner_subset():
    data = _run("fig10", pairs=["G"], policies=["GRR-Strings"])
    assert data["GRR-Strings"]["G"] > 0
    assert data["GRR-Strings"]["avg"] > 0


def test_fig11_runner_subset():
    data = _run("fig11", pairs=["G"], systems=["TFS-Strings"])
    assert 0 < data["TFS-Strings"]["G"] <= 1.0
    assert 0 < data["TFS-Strings"]["avg"] <= 1.0
    assert data["TFS-Strings"]["max"] >= data["TFS-Strings"]["avg"]


def test_fig12_runner_subset():
    data = _run("fig12", pairs=["G"], policies=["GWtMin+PS-Strings"])
    assert data["GWtMin+PS-Strings"]["G"] > 0
    assert "_means" in data


def test_fig13_runner_subset():
    data = _run("fig13", pairs=["G"], policies=["PS-Strings"])
    assert data["PS-Strings"]["G"] > 0


def test_fig14_runner_subset():
    data = _run("fig14", pairs=["G"], policies=["RTF-Strings"])
    assert data["RTF-Strings"]["G"] > 0


def test_fig15_runner_subset():
    data = _run("fig15", pairs=["G"], policies=["MBF-Strings"], cuda_headline=True)
    assert data["MBF-Strings"]["G"] > 0
    assert data["mbf_vs_cuda_avg"] > 0


def test_ablations_runner_structure():
    from repro.harness.ablations import ablate_arbiter_cold_start

    cold = ablate_arbiter_cold_start()
    assert cold["switched"] is True
    assert cold["transitions"][0][1] == "GMin"
    assert cold["transitions"][-1][1] == "MBF"
