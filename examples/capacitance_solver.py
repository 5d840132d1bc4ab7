#!/usr/bin/env python
"""FMM-accelerated iterative solver: charging a conducting plate.

The paper motivates its design with the FMM's typical use "in an
iterative procedure where the same DAG is evaluated multiple times for
different inputs" (Section IV).  This example solves a first-kind
integral equation for the surface charge on a unit square conductor
held at unit potential,

    integral over plate  sigma(y) / |x - y|  dy  =  1   for x on the plate,

discretized by point collocation, with scipy's GMRES whose matrix-vector
product is the FMM - a charge-only submit to one
:class:`~repro.dashmm.EvaluatorSession`: the dual tree, the DAG, its
compiled plan, the translation operators and the geometry-derived
operator rows are built once and reused for every iteration, exactly
the amortization the paper describes.  The resulting capacitance is checked
against the known value for the unit square plate (C ~ 0.367 in
Gaussian units; see e.g. higher-order panel-method references).

Run:  python examples/capacitance_solver.py
"""

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from repro.dashmm import DashmmEvaluator, EvaluatorSession
from repro.kernels import LaplaceKernel


def main() -> None:
    m = 48  # collocation points per side -> m*m unknowns
    grid = (np.arange(m) + 0.5) / m
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    panels = np.column_stack([X.ravel(), Y.ravel(), np.zeros(m * m)])
    n = len(panels)
    area = 1.0 / n  # panel area (unit plate)

    kernel = LaplaceKernel(p=8)
    # the panels never move: every matvec after the first is a
    # charge-only resubmission over the same tree and DAG
    session = EvaluatorSession(DashmmEvaluator(kernel, threshold=60))

    # self-interaction of a square panel of side a with itself:
    # integral of 1/r over the square, evaluated at its centre
    a = 1.0 / m
    self_term = 4.0 * a * np.log(1.0 + np.sqrt(2.0))  # exact for the square

    matvecs = []

    def matvec(sigma):
        matvecs.append(1)
        phi = session.submit(panels, sigma)
        return phi * area + self_term / area * sigma * area

    A = LinearOperator((n, n), matvec=matvec)
    rhs = np.ones(n)
    with session:
        sigma, info = gmres(A, rhs, rtol=1e-8, maxiter=200)
        warm = session.stats["template_hits"]
    assert info == 0, "GMRES did not converge"
    assert warm == len(matvecs) - 1, "matvecs should reuse one template"

    # Gaussian units (phi = q/r): C = Q/V = total charge at unit potential
    capacitance = float(np.sum(sigma) * area)
    print(f"plate discretized into {n} panels; GMRES matvecs: {len(matvecs)}")
    print(f"capacitance of the unit square plate : {capacitance:.4f}")
    print("reference value (literature)          : ~0.3667")
    # charge density must peak at edges/corners of the conductor
    s = sigma.reshape(m, m)
    assert s[0, 0] > 2.0 * s[m // 2, m // 2], "edge singularity expected"
    assert abs(capacitance - 0.3667) < 0.02
    print("OK - edge-singular charge profile and capacitance within 5%")


if __name__ == "__main__":
    main()
