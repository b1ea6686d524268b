"""Benchmarks regenerating Fig. 9 (workload balancing) and Fig. 10 (sharing)."""

from repro.harness import fig9, fig10
from conftest import PAIR_SUBSET, run_experiment


def test_fig9_benchmark():
    """Fig. 9: balancing policies vs the CUDA runtime (2-GPU node)."""
    data = run_experiment("fig9")

    # Every policy beats static provisioning on average.
    for policy in fig9.POLICIES:
        assert data[policy]["avg"] > 1.0, policy

    # Strings beats Rain for each balancing policy (context packing).
    for pol in ("GRR", "GMin", "GWtMin"):
        assert data[f"{pol}-Strings"]["avg"] > data[f"{pol}-Rain"]["avg"]

    # Load-aware balancing beats round robin under Strings on average.
    assert data["GMin-Strings"]["avg"] > data["GRR-Strings"]["avg"]

    # The paper's counter-intuitive inversion: GRR beats GMin for at
    # least one app under Strings (queue length is a poor proxy for
    # device load when requests execute concurrently, Section V.D).
    apps = [a for a in data["GMin-Strings"] if a != "avg"]
    assert any(
        data["GRR-Strings"][a] >= data["GMin-Strings"][a] for a in apps
    )
    # NOTE: the paper also reports GMin narrowly beating GWtMin on
    # average (their static weights were miscalibrated); our weights
    # track the simulated hardware better, so GWtMin comes out ahead —
    # a documented divergence (EXPERIMENTS.md), not asserted either way.


def test_fig10_benchmark():
    """Fig. 10: benefit of sharing the 4-GPU supernode, pair subset."""
    data = run_experiment("fig10", pairs=PAIR_SUBSET)

    # Sharing all four GPUs beats the single-node deployment on average
    # for every policy/system combination.
    for policy in fig10.POLICIES:
        assert data[policy]["avg"] > 1.0, policy

    # The compute-heavy pairs (A: DC-BS, Q: HI-BS) gain the most from
    # two extra GPUs; transfer-dominated pairs (J: BO-MC) gain least —
    # remote GPUs sit behind a link far slower than PCIe.
    for policy in fig10.POLICIES:
        assert data[policy]["A"] > 1.3, policy
        assert data[policy]["Q"] > 1.3, policy
        assert data[policy]["J"] < data[policy]["Q"], policy
