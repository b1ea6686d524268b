#!/usr/bin/env python
"""Pin every registered experiment's quick-scale ``results.json``.

Runs each experiment as ``python -m repro.harness run NAME --scale quick
--out-dir TMP``, each in its own process (``scale`` on the traffic spec of
CI's scale smoke), drops ``wall_time_s`` wherever it appears, rounds
floats to 9 decimals (the perf gate's rule) and compares the document
with its pin, ``results/quick/<name>.json``.  A change meant to move no
simulated number must leave every pin equal.

    PYTHONPATH=src python tools/check_results.py            # check all
    PYTHONPATH=src python tools/check_results.py fig9 fig12 # check some
    PYTHONPATH=src python tools/check_results.py --write    # re-record

Exit 1 if an experiment fails to run, has no pin, or differs from it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PIN_DIR = os.path.join(ROOT, "results", "quick")

#: Extra ``run`` arguments per experiment: ``scale``'s default traffic is
#: sized for a paper-scale sweep, so it runs CI's smoke spec instead.
EXTRA_ARGS = {
    "scale": [
        "-O",
        "traffic=poisson:rate=8,tenants=100,churn=exp:20,duration=30,apps=GA*2+SN",
    ],
}

#: Wall-clock fields: the only part of a results document that may vary
#: between runs of the same code.
WALL_CLOCK_KEYS = frozenset({"wall_time_s"})


def normalise(doc):
    """``doc`` without wall-clock fields and with floats rounded to 9 places."""
    if isinstance(doc, dict):
        return {k: normalise(v) for k, v in doc.items() if k not in WALL_CLOCK_KEYS}
    if isinstance(doc, list):
        return [normalise(v) for v in doc]
    if isinstance(doc, float):
        return round(doc, 9)
    return doc


def experiment_names():
    sys.path.insert(0, SRC)
    from repro.harness import registry

    return registry.names()


def run_experiment(name: str) -> dict:
    """One quick-scale run of ``name`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix=f"check-results-{name}-") as out_dir:
        cmd = [
            sys.executable, "-m", "repro.harness", "run", name,
            "--scale", "quick", "--out-dir", out_dir, *EXTRA_ARGS.get(name, []),
        ]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        with open(os.path.join(out_dir, "results.json")) as fh:
            return normalise(json.load(fh))


def differences(pinned, fresh, path="", limit=5):
    """Up to ``limit`` human-readable paths where the two documents differ."""
    out = []
    if isinstance(pinned, dict) and isinstance(fresh, dict):
        for key in sorted(set(pinned) | set(fresh)):
            if len(out) >= limit:
                break
            where = f"{path}.{key}" if path else key
            if key not in fresh:
                out.append(f"{where}: gone")
            elif key not in pinned:
                out.append(f"{where}: new")
            else:
                out.extend(differences(pinned[key], fresh[key], where, limit - len(out)))
    elif isinstance(pinned, list) and isinstance(fresh, list) and len(pinned) == len(fresh):
        for i, (a, b) in enumerate(zip(pinned, fresh)):
            if len(out) >= limit:
                break
            out.extend(differences(a, b, f"{path}[{i}]", limit - len(out)))
    elif pinned != fresh:
        out.append(f"{path}: {json.dumps(pinned)[:80]} -> {json.dumps(fresh)[:80]}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="experiments (default: every registered one)")
    parser.add_argument("--write", action="store_true", help="re-record the pins")
    args = parser.parse_args(argv)

    names = args.names or experiment_names()
    if args.write:
        os.makedirs(PIN_DIR, exist_ok=True)
    failed = []
    for name in names:
        pin_path = os.path.join(PIN_DIR, f"{name}.json")
        try:
            fresh = run_experiment(name)
        except RuntimeError as exc:
            print(f"{name}: ERROR {exc}")
            failed.append(name)
            continue
        if args.write:
            with open(pin_path, "w") as fh:
                json.dump(fresh, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{name}: written")
            continue
        if not os.path.exists(pin_path):
            print(f"{name}: FAIL no pin (record one with --write)")
            failed.append(name)
            continue
        with open(pin_path) as fh:
            pinned = json.load(fh)
        if pinned == fresh:
            print(f"{name}: ok")
            continue
        print(f"{name}: FAIL")
        for line in differences(pinned, fresh):
            print(f"    {line}")
        failed.append(name)
    if failed:
        print(f"{len(failed)} of {len(names)} experiment(s) failed: {', '.join(failed)}")
        if not args.write:
            print("If the change is intentional, re-record with: "
                  "PYTHONPATH=src python tools/check_results.py --write")
        return 1
    print(f"wrote {len(names)} pin(s) under {PIN_DIR}" if args.write
          else f"all {len(names)} experiment(s) match their pins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
