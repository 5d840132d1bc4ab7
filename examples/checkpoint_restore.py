#!/usr/bin/env python
"""Kill-and-restore certification: lose a run at a random checkpoint.

Runs a matrix of evaluations (FMM and Barnes-Hut, clean and fuzzed
schedules, a clean network, a lossy one, and an outage longer than the
retry budget, whose kill points may hold parcels the transport parked
until the outage lifts) with periodic checkpointing
enabled, "kills" each run by picking one checkpoint at random, restores
it and drives the resumed run to completion.  The gate: the resumed
run must be *bit-identical* - potentials AND virtual clock - to the
uninterrupted one.  A JSON report of every kill point is written for
CI artifact upload.

Run:  python examples/checkpoint_restore.py [--seed N] [--out FILE]
"""

import argparse
import json
import random
import sys

import numpy as np

from repro.dashmm import DashmmEvaluator
from repro.hpx import FaultyNetwork
from repro.hpx.runtime import RuntimeConfig
from repro.kernels import LaplaceKernel


#: the faulty networks of the matrix, by name, with the transport
#: settings each runs under
NETWORKS = {
    "lossy": dict(network=FaultyNetwork(drop=0.05, duplicate=0.05, reorder=0.5, seed=7)),
    # a 2 ms blackout of locality 1 against a retry budget of ~0.14 ms
    "outage": dict(
        network=FaultyNetwork(outages=((1, 1e-4, 2.1e-3),), seed=5),
        retry_timeout=20e-6,
        retry_limit=3,
    ),
}


def certify(rng: random.Random, method: str, fuzz, faulty) -> dict:
    cfg = dict(
        n_localities=3,
        workers_per_locality=2,
        checkpoint_every=3e-4,
        fuzz_schedule=fuzz,
    )
    if faulty is not None:
        cfg.update(reliable=True, **NETWORKS[faulty])
    ev = DashmmEvaluator(
        LaplaceKernel(p=6),
        method=method,
        threshold=30,
        runtime_config=RuntimeConfig(**cfg),
    )
    prng = np.random.default_rng(42)
    n = 800
    src = prng.uniform(0, 1, (n, 3))
    w = prng.normal(size=n)
    tgt = prng.uniform(0, 1, (n, 3))

    baseline = ev.evaluate(src, w, tgt)
    cps = baseline.extras.get("checkpoints", [])
    if not cps:
        raise SystemExit(f"{method}: run finished before the first checkpoint")
    kill = rng.randrange(len(cps))  # the random kill point
    runtime = baseline.extras["runtime"]
    runtime.restore(cps[kill])
    parked = runtime.stats().get("transport", {}).get("suspended", 0)
    resumed = ev.resume(baseline, cps[kill])
    identical = bool(
        np.array_equal(baseline.potentials, resumed.potentials)
        and resumed.time == baseline.time
    )
    return {
        "method": method,
        "fuzz_schedule": fuzz,
        "faulty_network": faulty,
        "checkpoints": len(cps),
        "killed_at_index": kill,
        "killed_at_time": cps[kill].time,
        "suspended_at_kill": parked,
        "final_time": baseline.time,
        "bit_identical": identical,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=None,
                    help="seed for the kill-point picker (default: entropy)")
    ap.add_argument("--out", default=None, help="JSON report path")
    args = ap.parse_args(argv)
    seed = args.seed if args.seed is not None else random.randrange(2**32)
    rng = random.Random(seed)

    rows = []
    for method, fuzz, faulty in [
        ("fmm", None, None),
        ("fmm", rng.randrange(2**16), None),
        ("fmm", None, "lossy"),
        ("fmm", None, "outage"),
        ("bh", None, None),
        ("bh", rng.randrange(2**16), None),
    ]:
        row = certify(rng, method, fuzz, faulty)
        rows.append(row)
        status = "ok" if row["bit_identical"] else "DIVERGED"
        print(
            f"{row['method']:4s} fuzz={str(row['fuzz_schedule']):>6s} "
            f"network={row['faulty_network'] or 'clean':6s} "
            f"killed at checkpoint {row['killed_at_index'] + 1}"
            f"/{row['checkpoints']} "
            f"(t={row['killed_at_time'] * 1e3:.3f} ms, "
            f"{row['suspended_at_kill']} parked) ... {status}"
        )

    report = {"seed": seed, "rows": rows}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.out}")
    failed = [r for r in rows if not r["bit_identical"]]
    if failed:
        print(f"FAILED: {len(failed)} restored run(s) diverged", file=sys.stderr)
        return 1
    print("OK - every killed-and-restored run was bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
