"""Same-code spread of the end-to-end metrics across seeds.

Runs ``perfbench/run.py --trace 0`` once per seed (1 to ``--runs``) on
every workload of ``BENCHMARK.json``, interleaving the workloads (their
order rotates from seed to seed), and reports for each metric its median
and its spread: the distance between
the first and third quartiles (``statistics.quantiles(n=4)``) as a share
of the median.  With ``--sets 2`` the whole schedule runs twice and the
relative drift between the two sets' medians is reported as well.

    python3 perfbench/steadiness.py --runs 10 --sets 2 --out perfbench/steadiness.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if not doc["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect:\n{proc.stdout}")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", default=None, help="also write the report here")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    sets = []
    for s in range(args.sets):
        samples = {w: {} for w in names}
        for i in range(args.runs):
            seed = 1 + i
            for w in names[i % len(names):] + names[: i % len(names)]:
                for metric, v in run_once(w, seed, bench["run_seconds"]).items():
                    samples[w].setdefault(metric, []).append(v)
                print(f"set {s} seed {seed} {w} done", file=sys.stderr, flush=True)
        sets.append({
            w: {m: summarize(v) for m, v in metrics.items()}
            for w, metrics in samples.items()
        })

    report = {"runs": args.runs, "run_seconds": bench["run_seconds"], "sets": sets}
    if len(sets) > 1:
        report["median_drift"] = {
            w: {
                m: sets[1][w][m]["median"] / sets[0][w][m]["median"] - 1.0
                for m in sets[0][w]
            }
            for w in names
        }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    for s, doc in enumerate(sets):
        for w, metrics in doc.items():
            for m, st in metrics.items():
                drift = report.get("median_drift", {}).get(w, {}).get(m)
                extra = f" drift {drift:+.2%}" if drift is not None and s == 1 else ""
                print(f"set {s} {w:<16} {m:<16} median {st['median']:12.4f} "
                      f"spread {st['spread']:7.2%}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
