"""repro: reproduction of "Scalable Hierarchical Multipole Methods using
an Asynchronous Many-Tasking Runtime System" (IPDPSW 2017).

Public entry points:

* :class:`repro.dashmm.DashmmEvaluator` - the one evaluator of every
  method (FMM, basic FMM, Barnes-Hut): potentials and, on the simulator,
  gradients, on the simulated AMT runtime or real cores (the paper's
  DASHMM); :class:`repro.dashmm.EvaluatorSession` serves repeated
  submissions.
* :func:`repro.methods.direct_potentials` - O(N^2) direct summation,
  the accuracy reference.
* :mod:`repro.kernels` - Laplace / Yukawa / user-defined kernels.
* :mod:`repro.hpx` - the HPX-5-like runtime itself.
"""

__version__ = "1.0.0"

from repro.dashmm import DashmmEvaluator
from repro.kernels import LaplaceKernel, YukawaKernel
from repro.methods import direct_potentials

__all__ = [
    "DashmmEvaluator",
    "LaplaceKernel",
    "YukawaKernel",
    "direct_potentials",
    "__version__",
]
