"""Generate (or check) the golden-graph exports and fingerprints.

The golden suite pins the canonical structure of every built-in method's
DAG - fmm (merge-and-shift), fmm-basic (direct M2L) and bh - over two
fixed point sets, so refactors of the assembly can't silently reshape
the graph.  Full canonical exports (``<method>_<pointset>.json``) back
the structural `diff` regression test; ``fingerprints.json`` records the
graph fingerprint for every method x kernel x point set cell (the graph
is kernel-independent, and the kernel axis asserts exactly that).

Regenerate after an *intentional* graph change:

    PYTHONPATH=src python tests/goldens/generate.py

Verify without writing (CI does this and uploads the fingerprints):

    PYTHONPATH=src python tests/goldens/generate.py --check
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent

#: deterministic evaluation workloads; small enough that the full
#: exports stay reviewable, together covering every operator class:
#: the deep uniform cube reaches L2L, the clustered shell populates the
#: adaptive coarse-leaf lists (S2L / M2T) and prunes boxes
POINT_SETS = ("cube", "shell")
METHODS = ("fmm", "fmm-basic", "bh")
KERNELS = ("laplace", "yukawa")
THRESHOLDS = {"cube": 8, "shell": 20}
THETA = 0.5


def point_set(name: str) -> np.ndarray:
    if name == "cube":
        rng = np.random.default_rng(101)
        return rng.random((250, 3))
    if name == "shell":
        rng = np.random.default_rng(202)
        u = rng.normal(size=(150, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = 0.35 + 0.08 * rng.random(150)
        return 0.5 + u * r[:, None]
    raise KeyError(name)


def make_kernel(name: str):
    if name == "laplace":
        from repro.kernels.laplace import LaplaceKernel

        return LaplaceKernel(4)
    from repro.kernels.yukawa import YukawaKernel

    return YukawaKernel(4)


def build(method: str, kernel_name: str, ps: str):
    """The (schema, DAG) a phantom evaluator builds for one golden cell."""
    from repro.dag import validate_dag
    from repro.dashmm.evaluator import DashmmEvaluator
    from repro.tree.dualtree import build_dual_tree

    threshold = THRESHOLDS[ps]
    ev = DashmmEvaluator(
        make_kernel(kernel_name),
        method=method,
        threshold=threshold,
        theta=THETA,
        mode="phantom",
    )
    pts = point_set(ps)
    dual = build_dual_tree(pts, pts, threshold)
    dag, _ = ev.build_dag(dual)
    validate_dag(ev.schema, dag)
    return ev.schema, dag


def generate() -> tuple[dict, dict]:
    """All golden artifacts: full exports and the fingerprint table."""
    from repro.dag import dag_fingerprint, export_dag

    exports: dict[str, dict] = {}
    fingerprints: dict[str, str] = {}
    for method in METHODS:
        for ps in POINT_SETS:
            per_kernel = {}
            for kernel_name in KERNELS:
                schema, dag = build(method, kernel_name, ps)
                per_kernel[kernel_name] = (schema, export_dag(dag, schema))
                fingerprints[f"{method}/{kernel_name}/{ps}"] = dag_fingerprint(dag)
            # the graph is a function of tree + lists only - never of
            # the kernel; bake that invariant into the golden set
            (_, ex_a), (_, ex_b) = per_kernel.values()
            if ex_a != ex_b:
                raise AssertionError(
                    f"{method}/{ps}: graph export differs between kernels"
                )
            exports[f"{method}_{ps}"] = ex_a
    return exports, fingerprints


def write(exports: dict, fingerprints: dict) -> None:
    for name, ex in exports.items():
        (GOLDEN_DIR / f"{name}.json").write_text(
            json.dumps(ex, indent=1, sort_keys=True) + "\n"
        )
    (GOLDEN_DIR / "fingerprints.json").write_text(
        json.dumps(fingerprints, indent=2, sort_keys=True) + "\n"
    )


def check(exports: dict, fingerprints: dict) -> list[str]:
    """Mismatches between freshly built graphs and the committed goldens."""
    from repro.dag import diff_dags

    problems = []
    committed = json.loads((GOLDEN_DIR / "fingerprints.json").read_text())
    if committed != fingerprints:
        for key in sorted(set(committed) | set(fingerprints)):
            a, b = committed.get(key), fingerprints.get(key)
            if a != b:
                problems.append(f"fingerprint {key}: committed {a} != built {b}")
    for name, ex in exports.items():
        want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        d = diff_dags(want, ex)
        if not d.empty:
            problems.append(f"export {name}:\n{d.report()}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check", action="store_true", help="verify, don't write")
    ap.add_argument("--out", help="also write the fingerprint table here (CI artifact)")
    args = ap.parse_args(argv)
    exports, fingerprints = generate()
    if args.out:
        Path(args.out).write_text(json.dumps(fingerprints, indent=2, sort_keys=True) + "\n")
    if args.check:
        problems = check(exports, fingerprints)
        if problems:
            print("\n".join(problems))
            return 1
        print(f"{len(exports)} exports, {len(fingerprints)} fingerprints match")
        return 0
    write(exports, fingerprints)
    print(f"wrote {len(exports)} exports + fingerprints.json to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
