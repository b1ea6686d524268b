#!/usr/bin/env python
"""Import-layering lint for the repro package.

The codebase is a strict layer stack (DESIGN.md §12): every package may
import only packages of *strictly lower* rank (plus itself).  Back-edges
— a lower layer importing a higher one — are how "the simulator knows
about the scheduler" bugs start, so CI fails on any.

    rank  layer        may see
    ----  -----------  ------------------------------------------------
      1   telemetry    (nothing — the instrument kernel)
      2   sim          telemetry
      3   simgpu       sim, telemetry
      4   cuda         simgpu, ...
      5   cluster      cuda, ...
      6   remoting     cluster, ...
      7   apps         remoting, ...
      8   workloads    apps, ...
      8   metrics      apps, ...
      9   traffic      workloads, apps, sim (generation, never cores)
     10   core         remoting, cluster, cuda, ...
     11   obs          telemetry (analysis layer over the kernel)
     12   faults       core, apps, ...
     13   harness      everything

Equal-rank packages (workloads/metrics) are siblings and may not import
each other.  Run:  python tools/check_layering.py  (exit 1 on violation).

Within ``repro.harness`` the same discipline applies one level down
(DESIGN.md §16): ``format`` and ``runner`` are the leaves, ``registry``
builds the experiment protocol over them, ``pairsweep`` layers the
shared pair-figure class over the registry, the figure/table/extension
modules sit above that, and ``__main__`` dispatches over everything.  The registry
deliberately reaches experiment modules only through
``importlib.import_module`` at discovery time — a *call*, not an import
statement — so no static back-edge exists.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Layer rank of each top-level repro subpackage.  A module in package P
#: may import repro.Q only when RANK[Q] < RANK[P] (or Q == P).
RANK = {
    "telemetry": 1,
    "sim": 2,
    "simgpu": 3,
    "cuda": 4,
    "cluster": 5,
    "remoting": 6,
    "apps": 7,
    "workloads": 8,
    "metrics": 8,
    "traffic": 9,
    "core": 10,
    "obs": 11,
    "faults": 12,
    "harness": 13,
}

#: Intra-package layer rank of each repro.harness module.  A harness
#: module M may import repro.harness.N only when HARNESS_RANK[N] <
#: HARNESS_RANK[M]; equal ranks are siblings and may not import each
#: other.  ``__init__`` is the thin facade over the runner.
HARNESS_RANK = {
    "format": 1,
    "runner": 2,
    "__init__": 3,
    "registry": 3,
    "pairsweep": 4,
    "table1": 5,
    "fig1": 5,
    "fig2": 5,
    "fig9": 5,
    "fig10": 5,
    "fig11": 5,
    "fig12": 5,
    "fig13": 5,
    "fig14": 5,
    "fig15": 5,
    "ablations": 5,
    "chaos": 5,
    "scale": 5,
    "scaleout": 5,
    "__main__": 6,
}

REPRO_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported_repro_packages(tree: ast.AST):
    """Yield (lineno, top-level repro subpackage) for every repro import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    yield node.lineno, parts[1]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: stays inside its package
                continue
            if node.module:
                parts = node.module.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    yield node.lineno, parts[1]
                elif parts == ["repro"]:
                    # ``from repro import X``: X may be a subpackage.
                    for alias in node.names:
                        if alias.name in RANK:
                            yield node.lineno, alias.name


def _imported_harness_modules(tree: ast.AST):
    """Yield (lineno, harness submodule) for every repro.harness import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[:2] == ["repro", "harness"] and len(parts) > 2:
                    yield node.lineno, parts[2]
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            parts = node.module.split(".")
            if parts[:2] != ["repro", "harness"]:
                continue
            if len(parts) > 2:
                yield node.lineno, parts[2]
            else:
                # ``from repro.harness import X``: X may be a submodule
                # (registry), or a name re-exported by __init__.
                for alias in node.names:
                    if alias.name in HARNESS_RANK:
                        yield node.lineno, alias.name
                    else:
                        yield node.lineno, "__init__"


def _check_harness(path: Path, module: str, tree: ast.AST, violations):
    """Apply the intra-harness layer ranks to one harness module."""
    rank = HARNESS_RANK.get(module)
    if rank is None:
        violations.append(
            f"{path}: unranked harness module repro.harness.{module}"
            " (add it to HARNESS_RANK in tools/check_layering.py)"
        )
        return
    for lineno, target in _imported_harness_modules(tree):
        if target == module:
            continue
        if target not in HARNESS_RANK:
            violations.append(
                f"{path}:{lineno}: import of unranked harness module "
                f"repro.harness.{target} (add it to HARNESS_RANK in "
                "tools/check_layering.py)"
            )
        elif HARNESS_RANK[target] >= rank:
            violations.append(
                f"{path}:{lineno}: harness back-edge: {module} (rank "
                f"{rank}) imports repro.harness.{target} (rank "
                f"{HARNESS_RANK[target]}) — harness modules may only "
                "import strictly lower ranks"
            )


def check(root: Path = REPRO_ROOT):
    """Return a list of human-readable violation strings."""
    violations = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        package = rel.parts[0] if len(rel.parts) > 1 else None
        if package is None or package not in RANK:
            # Top-level modules (repro/__init__.py) may import anything.
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        if package == "harness" and len(rel.parts) == 2:
            _check_harness(path, rel.parts[1][:-3], tree, violations)
        for lineno, target in _imported_repro_packages(tree):
            if target == package:
                continue
            if target not in RANK:
                violations.append(
                    f"{path}:{lineno}: import of unranked package repro.{target}"
                    " (add it to RANK in tools/check_layering.py)"
                )
            elif RANK[target] >= RANK[package]:
                violations.append(
                    f"{path}:{lineno}: back-edge: {package} (rank "
                    f"{RANK[package]}) imports repro.{target} (rank "
                    f"{RANK[target]}) — layers may only import strictly "
                    "lower ranks"
                )
    return violations


def main() -> int:
    violations = check()
    if violations:
        print(f"layering lint: {len(violations)} violation(s)")
        for v in violations:
            print(f"  {v}")
        return 1
    print("layering lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
