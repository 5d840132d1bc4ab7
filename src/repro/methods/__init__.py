"""Evaluation methods: the FMM (basic and advanced) and Barnes-Hut as
declared DAG schemas, plus O(N^2) direct summation.

:mod:`repro.methods.fmm` and :mod:`repro.methods.barneshut` declare what
each method's DAG holds (and Barnes-Hut's MAC traversal); the one
evaluator of every method is :class:`repro.dashmm.DashmmEvaluator`.
:func:`direct_potentials` is the accuracy reference.
"""

from repro.methods.direct import direct_potentials

__all__ = ["direct_potentials"]
