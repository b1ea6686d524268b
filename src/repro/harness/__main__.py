"""Command-line entry point: ``python -m repro.harness {list,run,analyze,diff}``.

A bare ``NAME`` means ``run NAME``.  Every run takes one path:
:func:`~repro.harness.registry.prepare` checks its ``-O`` options before
anything simulates, and one :func:`~repro.harness.registry.observe`
wiring builds the telemetry and writes the ``--emit`` artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import repro.cluster.network as network_mod
import repro.faults as faults
from repro.harness import registry
from repro.harness.runner import SCALE_PAPER, SCALE_QUICK
from repro.obs import (
    DEFAULT_HZ,
    diff_runs,
    parse_slo_spec,
    parse_tolerance_spec,
    profile_dict,
    profile_shard_dir,
    render_analysis,
    render_diff,
)

#: The paper's evaluation, in order: what ``all`` runs.
EXPERIMENTS = ["table1", "fig1", "fig2", "fig9", "fig10",
               "fig11", "fig12", "fig13", "fig14", "fig15"]


def _checked(parse, ok=lambda value: True, bound: str = ""):
    """An argparse ``type=``: ``parse(text)``; a usage error unless ``ok``."""

    def convert(text):
        try:
            value = parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return convert


def _slo(text):
    parse_slo_spec(text)  # validate now; each registry binds its own monitor
    return text


def _metrics_doc(error, flag: str, path: str) -> dict:
    """Load an exported metrics JSON; a bad file is a usage error."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        error(f"{flag}: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        error(f"{flag}: {path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        error(f"{flag}: {path} is not a metrics document (expected an object)")
    return doc


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness", description="Regenerate the paper's tables and figures."
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    opt, top_k, tolerance = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    opt.add_argument("-O", "--opt", metavar="KEY=VALUE", type=_checked(registry.parse_option),
                     action="append", default=[], help="an option the experiment declares "
                     "(see 'list'); VALUE is parsed as JSON when it can be")
    top_k.add_argument("--top-k", metavar="N", type=_checked(int, lambda v: v > 0, "> 0"),
                       default=10, help="slowest-request digest length (default 10)")
    tolerance.add_argument("--tolerance", metavar="SPEC", type=_checked(parse_tolerance_spec),
                           help="relative diff tolerances, e.g. 'p99=0.10,default=0.02'; "
                           "exit 1 when exceeded")
    commands.add_parser("list", help="print the experiment registry").set_defaults(
        handler=lambda args: print(registry.format_listing()) or 0
    )

    run = commands.add_parser("run", parents=[opt, top_k, tolerance],
                              help="run an experiment (a bare NAME means 'run NAME')")
    run.add_argument("experiment", metavar="NAME", help="see 'list'; 'all' = the paper's set")
    run.add_argument("--scale", choices=["quick", "paper"], default="paper",
                     help="experiment size (quick = CI-sized runs)")
    run.add_argument("--out-dir", metavar="DIR", help="write experiment.json (the manifest), "
                     "results.json and the --emit artifacts under DIR")
    run.add_argument("--emit", metavar="KINDS", type=_checked(registry.parse_emit),
                     default=frozenset(), help="comma list: " + ", ".join(registry.ARTIFACTS))
    run.add_argument("--slo", metavar="SPEC", type=_checked(_slo),
                     help="SLO targets, e.g. 'MC:2.5,*:30:0.99,window=20'")
    run.add_argument("--sample-interval", metavar="SIM_S", default=1.0,
                     type=_checked(float, lambda v: v > 0, "> 0 sim-seconds"),
                     help="sim time between sampler snapshots (default 1.0)")
    run.add_argument("--span-buffer", metavar="N", type=_checked(int, lambda v: v >= 1, ">= 1"),
                     default=10_000, help="spans buffered between shard flushes (default 10000)")
    run.add_argument("--live", metavar="SECONDS", nargs="?", const=1.0,
                     type=_checked(float, lambda v: v > 0, "> 0 wall-seconds"),
                     help="live status line, redrawn at most every SECONDS (default 1.0)")
    run.add_argument("--profile", metavar="HZ", nargs="?", const=DEFAULT_HZ,
                     type=_checked(float, lambda v: v > 0, "> 0 Hz"),
                     help=f"sample stacks at HZ and bill CPU by layer (default {DEFAULT_HZ:.0f})")
    run.add_argument("--faults", metavar="SPEC", type=_checked(faults.parse_fault_spec),
                     help="fault plan, e.g. 'gpu_fail@30:gid=1:down=20,retries=8'")
    run.add_argument("--link-gbps", metavar="GBPS", type=_checked(float, lambda v: v > 0, "> 0"),
                     help="interconnect bandwidth in Gb/s (default 10.0)")
    run.add_argument("--link-latency-us", metavar="US",
                     type=_checked(float, lambda v: v >= 0, ">= 0"),
                     help="one-way interconnect latency in microseconds (default 120)")
    run.add_argument("--analyze", action="store_true", help="print the critical-path blame")
    run.add_argument("--diff-against", metavar="PATH", help="diff the run against a metrics.json")
    run.set_defaults(handler=_run, error=run.error)

    analyze = commands.add_parser("analyze", parents=[opt, top_k],
                                  help="critical-path blame or re-render of a saved run")
    source = analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("--run", metavar="RUN.json", help="a saved metrics.json")
    source.add_argument("--from", dest="from_dir", metavar="DIR",
                        help="re-render a saved --out-dir without simulating")
    source.add_argument("--stream-dir", metavar="DIR", help="a run's span shard directory")
    analyze.set_defaults(handler=_analyze, error=analyze.error)

    diff = commands.add_parser("diff", parents=[tolerance], help="compare two metrics.json")
    diff.add_argument("--run", metavar="RUN.json", required=True)
    diff.add_argument("--baseline", metavar="BASE.json", required=True)
    diff.add_argument("--diff-out", metavar="PATH", help="write the delta as JSON to PATH")
    diff.set_defaults(handler=_diff, error=diff.error)
    return parser, commands


def parse_args(argv):
    """Parse ``argv`` without running anything; a bare NAME means 'run NAME'."""
    parser, commands = _build_parser()
    argv = list(argv)
    if argv and not argv[0].startswith("-") and argv[0] not in commands.choices:
        argv.insert(0, "run")
    return parser.parse_args(argv)


def prepare_run(args):
    """Check a parsed ``run`` and prepare its experiments, simulating nothing."""
    error = args.error
    if args.emit and args.out_dir is None:
        error("--emit needs --out-dir DIR")
    if "flame" in args.emit and not args.profile:
        error("--emit flame requires --profile")
    if "diff" in args.emit and args.diff_against is None:
        error("--emit diff requires --diff-against")
    if args.experiment == "all" and args.out_dir is not None:
        error("--out-dir needs a single experiment run")
    ctx = registry.ExperimentContext(
        scale=SCALE_QUICK if args.scale == "quick" else SCALE_PAPER,
        options=dict(args.opt),
        out_dir=args.out_dir,
        obs=registry.ObsSpec(
            emit=args.emit, slo=args.slo, sample_interval=args.sample_interval,
            span_buffer=args.span_buffer, live=args.live, profile=args.profile,
            analyze=args.analyze, top_k=args.top_k, tolerances=args.tolerance,
        ),
    )
    names = EXPERIMENTS if args.experiment == "all" else [args.experiment]
    try:
        return [registry.prepare(name, ctx) for name in names], ctx
    except (registry.UnknownExperiment, registry.OptionError) as e:
        error(str(e))


def _run(args) -> int:
    experiments, ctx = prepare_run(args)
    if args.diff_against is not None:
        doc = _metrics_doc(args.error, "--diff-against", args.diff_against)
        ctx.obs.baseline = (args.diff_against, doc)
    if args.out_dir is not None:
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as e:
            args.error(f"--out-dir: cannot create {args.out_dir}: {e}")
    network_mod.configure_defaults(
        latency_s=None if args.link_latency_us is None else args.link_latency_us * 1e-6,
        bandwidth_gbps=args.link_gbps,
    )
    if args.faults is not None:
        faults.install_plan(args.faults)
    try:
        with registry.observe(ctx, args.experiment) as observed:
            for exp in experiments:
                print(f"==== {exp.name} ".ljust(70, "="))
                with observed.telemetry.stopwatch("experiment.wall_s", experiment=exp.name) as sw:
                    print(exp.analyze(registry.run_prepared(exp, ctx), ctx))
                print(f"[{exp.name} done in {sw.elapsed:.1f}s]\n")
    finally:
        faults.reset_plan()
        network_mod.reset_defaults()
    if args.out_dir is not None:
        print(f"[run artifacts written to {args.out_dir}]")
    return 1 if observed.failed else 0


def _analyze(args) -> int:
    if args.from_dir is not None:
        # Re-render from the saved artifacts: no simulation Environment.
        try:
            print(registry.analyze_from(args.from_dir, options=dict(args.opt)))
        except (ValueError, registry.UnknownExperiment) as e:
            args.error(f"--from: {e}")
        return 0
    if args.stream_dir is not None:
        profile = profile_shard_dir(args.stream_dir) if os.path.isdir(args.stream_dir) else None
        if profile is None or not profile.requests:
            args.error(f"--stream-dir: no finished request spans under {args.stream_dir}")
        analysis = profile_dict(profile, top_k=args.top_k)
    else:
        analysis = _metrics_doc(args.error, "--run", args.run).get("analysis")
        if not analysis:
            args.error(f"--run: {args.run} has no 'analysis' section (export with --emit metrics)")
    print(render_analysis(analysis, top_k=args.top_k))
    return 0


def _diff(args) -> int:
    doc = _metrics_doc(args.error, "--run", args.run)
    base = _metrics_doc(args.error, "--baseline", args.baseline)
    delta = diff_runs(base, doc, base_label=args.baseline, other_label=args.run)
    print(render_diff(delta))
    if args.diff_out is not None:
        with open(args.diff_out, "w") as fh:
            json.dump(delta, fh, indent=2, sort_keys=True)
        print(f"[diff written to {args.diff_out}]")
    if args.tolerance is not None and not registry.report_tolerances(delta, args.tolerance):
        return 1
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
