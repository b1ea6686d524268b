"""Child process of the ``setup_s`` measurement.

Imports ``repro``, generates the workload's inputs and starts its first
repetition; at the first simulated event (the first
``Environment.step``) it prints ``time.monotonic()`` and stops.  The
parent subtracts the monotonic time it read just before spawning this
process, so the figure covers interpreter start-up, imports and building
the testbed, system and inputs.

With ``--reference`` it only imports ``numpy`` (the simulator's one
third-party dependency) and prints the stamp: a start-up that no change
to the simulator can change, timed right before each probe to measure
the host's current speed at this kind of work.

    python3 perfbench/setup_probe.py --workload churn --seed 42 [--size tiny]
    python3 perfbench/setup_probe.py --reference
"""

import argparse
import sys
import time

import workloads


class _FirstEvent(Exception):
    """Raised from the first ``Environment.step`` to end the probe."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)

    if args.reference:
        import numpy  # noqa: F401

        print(repr(time.monotonic()))
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required without --reference")

    stamp = []

    def first_step(env):
        stamp.append(time.monotonic())
        raise _FirstEvent

    workloads.ensure_src_on_path()
    from repro.sim.core import Environment

    prepared = workloads.prepare(args.workload, args.seed, args.size)
    Environment.step = first_step
    try:
        prepared.run()
    except _FirstEvent:
        pass
    workloads.remove_work_dir()
    if not stamp:
        print("setup probe: the workload scheduled no event", file=sys.stderr)
        return 1
    print(repr(stamp[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
