"""Smoke tests for the harness CLI and the cheap figure runners."""

import json

import pytest

import repro.faults as faults
from repro.harness.__main__ import EXPERIMENTS, main
from repro.harness import registry
from repro.sim.core import Environment

#: A sub-second open-loop scenario for the scale sweep.
TINY_TRAFFIC = "poisson:rate=3,tenants=20,churn=exp:10,duration=15,apps=GA"


def test_cli_lists_every_paper_experiment():
    assert EXPERIMENTS == [
        "table1", "fig1", "fig2", "fig9", "fig10",
        "fig11", "fig12", "fig13", "fig14", "fig15",
    ]
    assert "scaleout" in registry.names()


def test_cli_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit):
        main(["figXX"])


def test_cli_runs_fig1(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 1" in out
    assert "DXTC" in out


def test_table1_main_prints_all_apps(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    for short in ("DC", "SC", "BO", "MM", "HI", "EV", "BS", "MC", "GA", "SN"):
        assert f"({short})" in out


def test_fig2_quick_runs_and_prints(capsys):
    assert main(["fig2", "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert "sequential" in out
    assert "concurrent" in out
    assert "ctx switches" in out


def test_cli_lists_chaos_extension():
    assert "chaos" in registry.names()


def test_cli_rejects_bad_fault_spec(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "--faults", "gpu_melt@5:gid=0"])
    assert "--faults" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fig2", "--scale", "quick", "--faults", "gpu_fail@5:gid=3"],
        ["ablations", "--scale", "quick", "--faults", "gpu_fail@0.5:gid=0,retries=0"],
    ],
    ids=["gid-outside-pool", "needed-request-lost"],
)
def test_cli_reports_a_plan_the_experiment_cannot_honour(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--faults: " in err
    assert "Traceback" not in err
    assert faults.current_plan() is None


def test_cli_rejects_bad_link_flags(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "--link-gbps", "0"])
    assert "--link-gbps" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["fig1", "--link-latency-us", "-1"])
    assert "--link-latency-us" in capsys.readouterr().err


def test_cli_link_flags_apply_and_reset(capsys):
    from repro.cluster import Network

    assert main(["fig1", "--link-gbps", "20", "--link-latency-us", "50"]) == 0
    # Defaults are restored once the run finishes.
    net = Network()
    assert net.bandwidth_gbps == 10.0
    assert net.latency_s == pytest.approx(120e-6)


def test_cli_scale_link_flags_reset(capsys):
    """The scale sweep runs down the same path, so its link override is
    reset too (it used to leak into the rest of the process)."""
    from repro.cluster import Network

    assert main([
        "scale", "-O", f"traffic={TINY_TRAFFIC}", "-O", "loads=1", "--link-gbps", "20",
    ]) == 0
    assert Network().bandwidth_gbps == 10.0


def test_cli_runs_chaos_with_fault_spec(capsys):
    import repro.faults as faults

    assert (
        main(
            ["chaos", "--scale", "quick",
             "--faults", "gpu_fail@20:gid=1:down=10,retries=8,warmup=1"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "[chaos] requests lost: 0" in out
    assert faults.current_plan() is None  # plan slot reset after the run


# -- ISSUE 4: analysis & diff tools -----------------------------------------


def test_cli_rejects_bad_top_k(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "--analyze", "--top-k", "0"])
    err = capsys.readouterr().err
    assert "--top-k" in err and "must be > 0" in err


def test_cli_rejects_bad_tolerance_spec(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "--tolerance", "kernel=fast"])
    assert "--tolerance" in capsys.readouterr().err


def test_cli_rejects_missing_diff_baseline(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["fig1", "--diff-against", str(tmp_path / "nope.json")])
    assert "--diff-against" in capsys.readouterr().err


def test_cli_analyze_requires_run(capsys):
    with pytest.raises(SystemExit):
        main(["analyze"])
    assert "--run" in capsys.readouterr().err


def test_cli_diff_requires_both_runs(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["diff", "--run", str(tmp_path / "a.json")])
    assert "--baseline" in capsys.readouterr().err


def test_cli_analyze_rejects_doc_without_analysis(capsys, tmp_path):
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"counters": {}}))
    with pytest.raises(SystemExit):
        main(["analyze", "--run", str(stale)])
    assert "no 'analysis' section" in capsys.readouterr().err


def test_cli_run_analyze_diff_round_trip(capsys, tmp_path):
    """fig1 --emit metrics, then offline analyze + self-diff + tolerance."""
    assert main(["fig1", "--out-dir", str(tmp_path), "--emit", "metrics", "--analyze"]) == 0
    metrics = tmp_path / "metrics.json"
    out = capsys.readouterr().out
    assert "critical-path blame" in out
    assert "scheduler overhead (unattributed)" in out

    assert main(["analyze", "--run", str(metrics), "--top-k", "3"]) == 0
    assert "per-phase blame" in capsys.readouterr().out

    diff_json = tmp_path / "delta.json"
    assert main([
        "diff", "--run", str(metrics), "--baseline", str(metrics),
        "--diff-out", str(diff_json), "--tolerance", "default=0",
    ]) == 0
    out = capsys.readouterr().out
    assert "run comparison" in out
    assert "tolerance check passed" in out
    delta = json.loads(diff_json.read_text())
    assert delta["total_latency_s"]["delta"] == 0.0


def test_cli_diff_against_flags_regression(capsys, tmp_path):
    """--diff-against with an impossible tolerance exits 1 on real drift."""
    # fig2 (unlike the analytic fig1) drives real requests, so the
    # exported analysis has a non-zero latency total to doctor.
    base_dir = tmp_path / "base"
    assert main(["fig2", "--scale", "quick", "--out-dir", str(base_dir),
                 "--emit", "metrics"]) == 0
    metrics = base_dir / "metrics.json"
    capsys.readouterr()
    doc = json.loads(metrics.read_text())
    assert doc["analysis"]["total_s"] > 0
    # Doctor the baseline so the fresh (identical) run looks 50% faster.
    doc["analysis"]["total_s"] = doc["analysis"]["total_s"] * 2
    metrics.write_text(json.dumps(doc))
    run_dir = tmp_path / "run"
    assert main([
        "fig2", "--scale", "quick", "--out-dir", str(run_dir), "--emit", "diff,report",
        "--diff-against", str(metrics), "--tolerance", "total_s=0.01",
    ]) == 1
    assert "tolerance check FAILED" in capsys.readouterr().out
    delta = json.loads((run_dir / "diff.json").read_text())
    assert delta["total_latency_s"]["delta"] != 0.0
    assert "Run comparison" in (run_dir / "report.html").read_text()


def test_cli_streaming_run_and_offline_analyze(capsys, tmp_path):
    """fig2 --emit shards: spans shard to disk, exporters read the union,
    and the analyze tool profiles the shard dir offline (ISSUE 6)."""
    stream = tmp_path / "shards"
    hb = tmp_path / "heartbeat.jsonl"
    metrics = tmp_path / "metrics.json"
    assert main([
        "fig2", "--scale", "quick", "--out-dir", str(tmp_path),
        "--emit", "shards,heartbeat,metrics", "--span-buffer", "64",
        "--live", "0.01", "--analyze",
    ]) == 0
    out = capsys.readouterr().out
    assert "span stream:" in out
    assert "critical-path blame" in out
    shards = list(stream.glob("spans-*.jsonl"))
    assert shards, "no shard files written"

    records = [json.loads(line) for line in hb.read_text().splitlines()]
    assert records and all("completed" in r for r in records)
    doc = json.loads(metrics.read_text())
    assert doc["analysis"]["requests"] > 0
    assert doc["spans"] > 0

    assert main(["analyze", "--stream-dir", str(stream)]) == 0
    assert "per-phase blame" in capsys.readouterr().out


def test_cli_streaming_flag_validation(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["fig1", "--span-buffer", "0", "--out-dir", str(tmp_path), "--emit", "shards"])
    assert "--span-buffer" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["fig1", "--stream-dir", str(tmp_path)])  # only 'analyze' reads shards
    assert "--stream-dir" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["fig1", "--emit", "shards"])
    assert "--emit needs --out-dir" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["fig1", "--out-dir", str(tmp_path), "--emit", "shards,trcae"])
    err = capsys.readouterr().err
    assert "--emit" in err and "trcae" in err
    with pytest.raises(SystemExit):
        main(["fig1", "--live", "0"])
    assert "--live" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["analyze", "--stream-dir", str(tmp_path / "missing")])
    assert "--stream-dir" in capsys.readouterr().err


# -- scale extension (ISSUE 8) ------------------------------------------------


def test_cli_lists_scale_extension():
    assert "scale" in registry.names()


def test_cli_rejects_bad_traffic_spec(capsys):
    with pytest.raises(SystemExit):
        main(["scale", "-O", "traffic=weibull:rate=5"])
    err = capsys.readouterr().err
    assert "-O traffic" in err and "unknown arrival process" in err
    with pytest.raises(SystemExit):
        main(["scale", "-O", "traffic=poisson:rate=0"])
    assert "must be > 0" in capsys.readouterr().err


def test_cli_rejects_bad_loads(capsys):
    with pytest.raises(SystemExit):
        main(["scale", "-O", "loads=0.5,fast"])
    assert "-O loads" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["scale", "-O", "loads=0"])
    assert "must be > 0" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["scale", "-O", "loads=,"])
    assert "at least one" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["scale", "-O", "system=quantum"])
    assert "-O system" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("fig12", "pairs", '["ZZ"]'),
        ("fig12", "policies", '["Nope"]'),
        ("fig11", "systems", '["TFS"]'),
        ("chaos", "policy", "Nope"),
        ("fig15", "policies", '["DTF-Strings","GRR-Strings"]'),
        ("fig9", "apps", '["XX"]'),
        ("fig9", "policies", "[]"),
        ("fig15", "cuda_headline", "no"),
        ("scaleout", "max_nodes", "0"),
        ("scaleout", "max_nodes", "-1"),
        ("scaleout", "max_nodes", "2.5"),
        ("scaleout", "max_nodes", "true"),
        ("scale", "loads", "true"),
        ("scale", "loads", "[1,1,2]"),
    ],
)
def test_cli_rejects_bad_option_values_before_simulating(capsys, monkeypatch, name, key, value):
    def no_sim(*args, **kwargs):
        raise AssertionError("a rejected option must not simulate")

    monkeypatch.setattr(Environment, "__init__", no_sim)
    with pytest.raises(SystemExit) as exit_:
        main([name, "--scale", "quick", "-O", f"{key}={value}"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"-O {key}: " in err
    assert "Traceback" not in err


def test_fig15_headline_needs_mbf(capsys):
    """DTF alone runs without the CUDA headline, which compares MBF."""
    rc = main(["fig15", "--scale", "quick", "-O", 'pairs=["G"]',
               "-O", 'policies=["DTF-Strings"]'])
    assert rc == 0
    out = capsys.readouterr().out
    assert "DTF-Strings" in out and "headline" not in out


def test_cli_scale_flags_require_scale_experiment(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "-O", "traffic=poisson:rate=5"])
    err = capsys.readouterr().err
    assert "-O traffic" in err and "not an option of fig1" in err
    with pytest.raises(SystemExit):
        main(["scale", "-O", "lods=1,2"])
    err = capsys.readouterr().err
    assert "-O lods" in err and "did you mean 'loads'" in err
    with pytest.raises(SystemExit):  # the per-experiment flags are gone
        main(["scale", "--traffic", "poisson:rate=5"])
    assert "--traffic" in capsys.readouterr().err


def test_cli_scale_sweep_runs_and_writes_artifacts(capsys, tmp_path):
    rc = main([
        "run", "scale", "--scale", "quick",
        "-O", f"traffic={TINY_TRAFFIC}", "-O", "loads=[1]",
        "--out-dir", str(tmp_path), "--emit", "heartbeat,report",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Scale sweep" in out and "Goodput rps" in out
    doc = json.loads((tmp_path / "results.json").read_text())
    assert doc["tool"] == "scale"
    # -O reaches the sweep: one point, under the given traffic.
    assert doc["traffic"].startswith("poisson:rate=3,tenants=20,")
    assert [p["multiplier"] for p in doc["points"]] == [1.0]
    for p in doc["points"]:
        assert p["offered"] == p["completed"] + p["aborted"] + p["failed"]
        assert "marginal_efficiency" in p
    assert "knee_multiplier" in doc
    html = (tmp_path / "scale.html").read_text()
    assert "<svg" in html and "goodput" in html
    # Each load point gets a run-directory layout of its own.
    point = tmp_path / "point-1x"
    assert (point / "heartbeat.jsonl").stat().st_size > 0
    assert "<svg" in (point / "report.html").read_text()
    # The manifest lists every file the run wrote, and nothing else.
    listed = json.loads((tmp_path / "experiment.json").read_text())["artifacts"]
    assert "point-1x/report.html" in listed and "scale.html" in listed
    for rel in listed:
        assert (tmp_path / rel).exists(), rel
    written = {
        str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()
    } - {"experiment.json"}
    assert written == set(listed)


# -- wall-clock self-profiling -----------------------------------------------


def test_cli_profile_flag_validation(capsys, tmp_path):
    for rate in ("-5", "0"):
        with pytest.raises(SystemExit):
            main(["fig1", "--profile", rate])
        assert "--profile" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["fig1", "--out-dir", str(tmp_path), "--emit", "flame"])
    assert "requires --profile" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["fig1", "--profile", "--out-dir", str(tmp_path), "--emit", "speedscope"])
    assert "unknown artifact speedscope" in capsys.readouterr().err


def test_cli_profile_round_trip_writes_artifacts(capsys, tmp_path):
    rc = main([
        "fig2", "--scale", "quick", "--profile", "200",
        "--out-dir", str(tmp_path), "--emit", "flame",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== CPU by layer (stack samples) " in out
    table = out.split("== CPU by layer (stack samples) ", 1)[1]
    assert "Hz achieved" in table
    # Collapsed stacks: "layer;frame;... count" lines, each root a row
    # of the printed layer table.
    for line in (tmp_path / "flame.collapsed").read_text().splitlines():
        head, count = line.rsplit(" ", 1)
        assert int(count) >= 1 and ";" in head
        assert f"\n{head.split(';')[0]} " in table


def test_cli_profile_rejected_for_scale_flame_outputs(capsys, tmp_path):
    with pytest.raises(SystemExit):  # the per-artifact path flags are gone
        main(["scale", "--profile", "--flame-out", str(tmp_path / "f.txt")])
    assert "--flame-out" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["scale", "--out-dir", str(tmp_path), "--emit", "flame"])
    assert "requires --profile" in capsys.readouterr().err


def test_cli_scale_profile_records_per_point_ledgers(capsys, tmp_path):
    rc = main([
        "scale", "-O", f"traffic={TINY_TRAFFIC}", "-O", "loads=1", "--profile",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "results.json").read_text())
    for p in doc["points"]:
        shares = p["cpu_layers"]
        assert shares
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-3)


# -- experiment registry (ISSUE 10) ------------------------------------------


def test_cli_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "registered experiments" in out
    for name in EXPERIMENTS + ["scaleout", "ablations", "chaos", "scale"]:
        assert name in out
    assert "pairsweep" not in out
    # Phase and declared-option columns are populated.
    assert "run/analyze" in out
    assert "traffic,loads,system" in out


def test_cli_list_takes_no_target(capsys):
    with pytest.raises(SystemExit):
        main(["list", "fig1"])
    assert "unrecognized arguments: fig1" in capsys.readouterr().err


def test_cli_run_requires_target(capsys):
    with pytest.raises(SystemExit):
        main(["run"])
    assert "required: NAME" in capsys.readouterr().err


def test_cli_run_unknown_name_suggests_near_misses(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig99"])
    err = capsys.readouterr().err
    assert "did you mean" in err and "fig9" in err


def test_cli_stray_target_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "fig2"])
    assert "unrecognized arguments: fig2" in capsys.readouterr().err


def test_cli_run_spelling_matches_legacy(capsys):
    assert main(["fig1"]) == 0
    legacy = capsys.readouterr().out
    assert main(["run", "fig1"]) == 0
    new = capsys.readouterr().out
    # Identical modulo the wall-clock footer.
    strip = lambda s: [l for l in s.splitlines() if "done in" not in l]
    assert strip(new) == strip(legacy)


def test_cli_run_alias_resolves(capsys):
    # 'run ablate' resolves to the canonical 'ablations' banner without
    # executing anything extra (the experiment itself is too slow here,
    # so just check resolution fails cleanly for a wrong alias).
    with pytest.raises(SystemExit):
        main(["run", "ablat"])
    assert "did you mean" in capsys.readouterr().err


def test_cli_opt_restricts_experiment(capsys):
    assert main([
        "run", "fig9", "--scale", "quick",
        "-O", 'apps=["GA"]', "-O", 'policies=["GRR-Strings"]',
    ]) == 0
    out = capsys.readouterr().out
    assert "GRR-Strings" in out
    assert "GMin-Rain" not in out  # the restriction really applied


def test_cli_opt_requires_key_value(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "-O", "nokey"])
    err = capsys.readouterr().err
    assert "--opt" in err and "expects KEY=VALUE" in err


def test_cli_out_dir_then_analyze_from_round_trip(capsys, tmp_path):
    run_dir = tmp_path / "run"
    assert main(["run", "fig2", "--scale", "quick",
                 "--out-dir", str(run_dir)]) == 0
    live = capsys.readouterr().out
    assert f"[run artifacts written to {run_dir}]" in live
    meta = json.loads((run_dir / "experiment.json").read_text())
    assert meta["artifacts"] == ["results.json"]
    assert (run_dir / "results.json").exists()

    assert main(["analyze", "--from", str(run_dir)]) == 0
    cached = capsys.readouterr().out
    # The cached re-render reproduces the report body byte-for-byte.
    body = [
        l for l in live.splitlines()
        if not (l.startswith("====") or l.startswith("[")) and l
    ]
    assert [l for l in cached.splitlines() if l] == body


def test_cli_analyze_from_rejects_non_run_dir(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["analyze", "--from", str(tmp_path)])
    assert "not a harness run directory" in capsys.readouterr().err


def test_cli_from_only_applies_to_analyze(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["fig1", "--from", str(tmp_path)])
    assert "--from" in capsys.readouterr().err
    with pytest.raises(SystemExit):  # --diff-out belongs to 'diff' alone
        main(["fig1", "--diff-out", str(tmp_path / "d.json")])
    assert "--diff-out" in capsys.readouterr().err


def test_cli_out_dir_rejected_for_tools_and_all(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["analyze", "--from", str(tmp_path), "--out-dir", str(tmp_path / "d")])
    assert "unrecognized arguments: --out-dir" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["all", "--out-dir", str(tmp_path / "d")])
    assert "--out-dir needs a single experiment run" in capsys.readouterr().err
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(SystemExit):
        main(["fig1", "--out-dir", str(blocker / "sub")])
    assert "--out-dir: cannot create" in capsys.readouterr().err
