#!/usr/bin/env python
"""Self-gravity of a Plummer star cluster, integrated with leapfrog.

Barnes-Hut is the second HMM built into DASHMM: only source-side
expansions, a multipole-acceptance-criterion traversal, and a much
shallower DAG than the FMM - one of the method-dependent DAG topologies
the paper uses to exercise the runtime.  The Plummer density is heavily
clustered, stressing the adaptive tree.

This mini-app is the intended customer of the *persistent* evaluation
layer: a time integrator calls the solver once per step with slightly
perturbed positions.  A cold ``evaluate()`` would re-carve the tree,
rebuild interaction lists and re-assemble the DAG every step; the
:class:`~repro.dashmm.service.EvaluatorSession` instead splices the
previous tree and re-fires the cached DAG template, so per-step cost
collapses to the numeric operator work.  The forces ride the same
session: one ``submit(positions, masses, gradients=True)`` per step
returns the potentials and their gradients together, both summed by
the compiled plan's outputs stage.

Run:  python examples/gravity_barneshut.py
"""

import numpy as np

from repro.dashmm import DashmmEvaluator, EvaluatorSession
from repro.hpx.runtime import RuntimeConfig
from repro.kernels import LaplaceKernel
from repro.methods.direct import direct_potentials
from repro.workloads.distributions import plummer_points


def main() -> None:
    n = 2000
    positions = plummer_points(n, seed=3, scale=0.1)
    masses = np.full(n, 1.0 / n)  # equal-mass cluster, total mass 1
    velocities = np.zeros_like(positions)  # cold collapse, a few steps

    kernel = LaplaceKernel(p=6)  # gravity: modest order suffices for BH
    evaluator = DashmmEvaluator(
        kernel,
        method="bh",
        threshold=30,
        theta=0.4,  # opening angle of the acceptance criterion
        runtime_config=RuntimeConfig(n_localities=4, workers_per_locality=4),
    )
    dt, steps = 2e-4, 5
    energies = []
    with EvaluatorSession(evaluator) as session:
        # the kernel sums +1/r and gravity attracts, so the acceleration
        # is +grad(sum m/r): the gradients a submit returns
        _, acc = session.submit(positions, masses, gradients=True)
        for step in range(steps):
            # kick-drift-kick leapfrog
            velocities += 0.5 * dt * acc
            positions += dt * velocities
            # potentials and forces of this step's configuration ride the
            # session's warm path: spliced tree, cached DAG template
            phi, acc = session.submit(positions, masses, gradients=True)
            velocities += 0.5 * dt * acc
            U = -0.5 * float(np.sum(masses * phi))
            K = 0.5 * float(np.sum(masses * np.sum(velocities**2, axis=1)))
            energies.append(K + U)
            print(f"step {step}: K={K:.4f}  U={U:.4f}  E={K + U:.4f}")

        stats = session.stats
        reused = sum(
            1
            for t in stats["tree_updates"]
            if t["source"] in ("unchanged", "spliced")
        )
        print(f"submits                 : {stats['submits']}")
        print(f"DAG template hits       : {stats['template_hits']}")
        print(f"incremental tree reuses : {reused}")

    # accuracy of the last step's BH potentials against direct summation
    probe = slice(0, 400)
    exact = direct_potentials(kernel, positions[probe], positions, masses)
    err = np.linalg.norm(phi[probe] - exact) / np.linalg.norm(exact)
    drift = abs(energies[-1] - energies[0]) / abs(energies[0])
    print(f"relative L2 error       : {err:.2e}")
    print(f"energy drift over run   : {drift:.2e}")
    # Plummer sphere with scale a, mass M: U = -3 pi M^2 / (32 a)
    print(f"U theory (t=0)          : {-3 * np.pi / 32 / 0.1:.4f}")

    assert err < 5e-3, "BH potentials drifted from direct summation"
    assert drift < 0.05, "leapfrog energy drift too large"
    assert stats["template_hits"] >= steps - 1, "warm path not exercised"
    assert reused >= steps - 1, "incremental tree not exercised"
    print("OK")


if __name__ == "__main__":
    main()
