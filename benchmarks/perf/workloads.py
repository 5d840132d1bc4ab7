"""The four fixed workloads of the performance ledger.

Every workload is a closed loop with one client: the next operation is
issued when the previous one has returned.  A run is a sequence of
*blocks*, each one ``alt`` operation followed by three ``op``
operations (``BLOCK``), so every workload yields the same two timing
metrics (``op_s_p50`` and ``alt_s_p50``; the README says what they are
on each workload).  Inputs are made from ``--seed`` only and prepared
outside the timed region; the program under test receives arrays.

The three numeric workloads share one canonical problem so that cold,
warm, incremental, simulated and real-parallel numbers are comparable:
4 096 points in the slab [0,1]^2 x [0,0.24] (targets are the sources),
Laplace p=6, ``method="fmm"``, threshold 60, eps 1e-4 and a fresh,
non-shared ``OperatorFactory`` per set-up.  The slab keeps the depth-3
tree of a filled cube (S2M/M2M/M2I/I2I/I2L/L2L/L2T/S2T edges all
present) at a quarter of its boxes, which is what lets a run take tens
of samples inside the driver's time cap.  The points are stratified, 32
uniform points in each of the 8 x 8 x 2 level-3 leaves, so the seed
changes every coordinate and charge but not the tree shape, the DAG or
the split of work between localities: timings of different seeds are
comparable, which the driver's ten-seed spread check relies on.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from typing import Callable

import numpy as np

from repro.dashmm import DashmmEvaluator, EvaluatorSession, FmmPolicy
from repro.hpx.gas import ShmArena
from repro.hpx.runtime import RuntimeConfig
from repro.kernels.fitops import OperatorFactory
from repro.kernels.laplace import LaplaceKernel
from repro.methods.direct import direct_potentials
from repro.sim.costmodel import CostModel
from repro.workloads.distributions import random_charges, sphere_points

THRESHOLD = 60
EPS = 1e-4
#: the paper's 3-digit setting; an op whose sampled error exceeds it fails
ERR_CAP = 1e-3
ERR_TARGETS = 256
DRIFT_POINTS = 50
DRIFT_SIGMA = 1e-3
#: one block of the closed loop: an alt op, then three ops (a time step
#: that moves points, then three solves on the new geometry)
BLOCK = ("alt", "op", "op", "op")

SLAB_CELLS = (8, 8, 2)
SLAB_PER_LEAF = {False: 32, True: 20}
SPHERE_N = {False: 10_000, True: 3_000}


def sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def rel_err_l2(kernel, points, charges, potentials) -> float:
    """Relative L2 error against direct summation on evenly strided targets."""
    idx = np.linspace(0, len(points) - 1, ERR_TARGETS).astype(int)
    ref = direct_potentials(kernel, points[idx], points, charges)
    return float(np.linalg.norm(potentials[idx] - ref) / np.linalg.norm(ref))


class Workload:
    """One workload: set-up, the two operation kinds, and the checks.

    ``setup()`` may be called several times in a run (``teardown()``
    between calls); the measured blocks run against the last one.
    """

    name = ""
    numeric = True
    #: all the work happens in this process (the noise guard relies on it)
    single_process = True

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.session = None

    def generate(self) -> None:
        """Make the inputs from the seed."""
        raise NotImplementedError

    def start(self) -> np.ndarray:
        """Build the evaluator (fresh operator factory) and run the first op."""
        raise NotImplementedError

    def setup(self) -> np.ndarray:
        self.generate()
        return self.start()

    def prepare(self, kind: str) -> Callable[[], np.ndarray]:
        """Prepare the inputs of the next ``"op"`` or ``"alt"``; return the call to time."""
        raise NotImplementedError

    def observe(self, kind: str, out: np.ndarray) -> str | None:
        """Check one output outside the timed region; a message means the op failed."""
        if not np.all(np.isfinite(out)):
            return f"{self.name}: {kind} returned non-finite values"
        return None

    def verify(self) -> tuple[int, list[str]]:
        """End-of-run checks: (number of checks made, failure messages)."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def facts(self) -> dict:
        """Fields of the record that are not metrics."""
        return {}


def slab_problem(per_leaf: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``per_leaf`` uniform points in each cell of an 8 x 8 x 2 grid, and charges.

    The cells are the level-3 leaves of the tree: the slab is a little
    under a quarter thick because the bounding cube is centred on it,
    and a full quarter would touch a third layer of leaves.
    """
    rng = np.random.default_rng(seed)
    cells = np.indices(SLAB_CELLS).reshape(3, -1).T
    offsets = rng.random((len(cells), per_leaf, 3))
    points = ((cells[:, None, :] + offsets) / 8.0).reshape(-1, 3)
    points[:, 2] *= 0.96
    return points, random_charges(len(points), seed + 1)


def fresh_factory() -> OperatorFactory:
    """A non-shared operator factory, so every set-up pays the fits."""
    return OperatorFactory(LaplaceKernel(6), eps=EPS)


def numeric_evaluator(factory: OperatorFactory, config: RuntimeConfig) -> DashmmEvaluator:
    return DashmmEvaluator(
        factory.kernel,
        method="fmm",
        threshold=THRESHOLD,
        eps=EPS,
        factory=factory,
        runtime_config=config,
    )


class EvaluateWorkload(Workload):
    """``op`` is a one-shot ``evaluate()`` from raw points on the simulated ``machine``."""

    #: (localities, workers per locality) of the simulated machine, and of
    #: the smaller one that is the base of ``analysis.sim_efficiency``
    machine = (1, 1)
    baseline = (1, 1)

    def evaluator(self, machine: tuple[int, int], tracing: bool = False) -> DashmmEvaluator:
        raise NotImplementedError

    def alt_report(self):
        """Run the alt op; returns its evaluation report."""
        raise NotImplementedError

    def op_report(self):
        return self.ev.evaluate(self.src, self.w, self.tgt)

    def start(self) -> np.ndarray:
        self.ev = self.evaluator(self.machine)
        self.reports: dict = {}
        self.distinct: dict[str, set] = {"op": set(), "alt": set()}
        return self.prepare("op")()

    def output(self, report) -> np.ndarray:
        return report.potentials if self.numeric else np.array([report.time])

    def prepare(self, kind: str) -> Callable[[], np.ndarray]:
        run = self.op_report if kind == "op" else self.alt_report

        def call() -> np.ndarray:
            report = self.reports[kind] = run()
            return self.output(report)

        return call

    def observe(self, kind: str, out: np.ndarray) -> str | None:
        self.distinct[kind].add(sha256(out))
        untriggered = self.reports[kind].extras["untriggered"]
        if untriggered:
            return f"{self.name}: {kind} left {untriggered} LCOs untriggered"
        return super().observe(kind, out)

    def verify(self) -> tuple[int, list[str]]:
        failures = [
            f"{self.name}: {kind} gave {len(seen)} distinct outputs on identical inputs"
            for kind, seen in self.distinct.items()
            if len(seen) > 1
        ]
        return 2, failures

    def facts(self) -> dict:
        return {"virtual_makespan_s": self.reports["op"].time}


class ColdSim(EvaluateWorkload):
    name = "cold-sim"
    machine = (4, 8)

    def generate(self) -> None:
        self.src, self.w = slab_problem(SLAB_PER_LEAF[self.smoke], self.seed)
        self.tgt = self.src

    def start(self) -> np.ndarray:
        self.factory = fresh_factory()
        out = super().start()
        first = self.reports["op"]
        self.prebuilt = {"dual": first.dual, "lists": first.lists, "dag": first.dag}
        return out

    def evaluator(self, machine: tuple[int, int], tracing: bool = False) -> DashmmEvaluator:
        localities, workers = machine
        return numeric_evaluator(
            self.factory,
            RuntimeConfig(
                n_localities=localities, workers_per_locality=workers, tracing=tracing
            ),
        )

    def alt_report(self):
        """``evaluate()`` reusing the tree, lists and DAG of the set-up's op (paper IV)."""
        return self.ev.evaluate(self.src, self.w, self.tgt, **self.prebuilt)

    def verify(self) -> tuple[int, list[str]]:
        checks, failures = super().verify()
        if self.distinct["op"] != self.distinct["alt"]:
            failures.append(
                f"{self.name}: evaluate() with prebuilt tree, lists and DAG is not "
                "bit-identical to evaluate() from raw points"
            )
        self.err = rel_err_l2(self.ev.kernel, self.src, self.w, self.reports["op"].potentials)
        if not self.err <= ERR_CAP:
            failures.append(f"{self.name}: rel_err_l2 {self.err:.3e} > {ERR_CAP:g}")
        return checks + 2, failures

    def facts(self) -> dict:
        return {
            **super().facts(),
            "potentials_sha256": sha256(self.reports["op"].potentials),
            "rel_err_l2": self.err,
        }


class PhantomSphere(EvaluateWorkload):
    name = "phantom-sphere"
    numeric = False
    machine = (16, 32)
    baseline = (1, 32)

    def generate(self) -> None:
        n = SPHERE_N[self.smoke]
        self.src = sphere_points(n, self.seed)
        self.tgt = sphere_points(n, self.seed + 1)
        self.w = random_charges(n, self.seed + 2)

    def start(self) -> np.ndarray:
        self.ev_baseline = self.evaluator(self.baseline)
        return super().start()

    def evaluator(self, machine: tuple[int, int], tracing: bool = False) -> DashmmEvaluator:
        localities, workers = machine
        return DashmmEvaluator(
            LaplaceKernel(9),
            method="fmm",
            threshold=THRESHOLD,
            mode="phantom",
            cost_model=CostModel.for_kernel("laplace"),
            policy=FmmPolicy(balance="work"),
            runtime_config=RuntimeConfig(
                n_localities=localities, workers_per_locality=workers, tracing=tracing
            ),
        )

    def alt_report(self):
        """The 32-core point of the strong-scaling curve."""
        return self.ev_baseline.evaluate(self.src, self.w, self.tgt)


class ServeWorkload(Workload):
    """One ``EvaluatorSession``: ``op`` is a charge-only warm submit, ``alt`` a drift submit."""

    def config(self) -> RuntimeConfig:
        raise NotImplementedError

    def generate(self) -> None:
        self.points, self.w = slab_problem(SLAB_PER_LEAF[self.smoke], self.seed)
        self.rng = np.random.default_rng(self.seed + 2)
        # drifting points are clipped to the initial extent, so the
        # session's pinned domain always holds them
        self.lo, self.hi = self.points.min(axis=0), self.points.max(axis=0)

    def start(self) -> np.ndarray:
        self.ev = numeric_evaluator(fresh_factory(), self.config())
        self.session = EvaluatorSession(self.ev)
        self.last: dict = {}
        out = self.session.submit(self.points, self.w)
        # the cold submit is the one op whose inputs do not depend on how
        # many blocks the run had time for
        self.cold_sha256 = sha256(out)
        return out

    def prepare(self, kind: str) -> Callable[[], np.ndarray]:
        n = len(self.points)
        if kind == "alt":
            moved = self.rng.choice(n, DRIFT_POINTS, replace=False)
            points = self.points.copy()
            step = self.rng.normal(scale=DRIFT_SIGMA, size=(DRIFT_POINTS, 3))
            points[moved] = np.clip(points[moved] + step, self.lo, self.hi)
            self.points = points
        else:
            self.w = self.rng.uniform(-1.0, 1.0, n)
        points, w = self.points, self.w

        def call() -> np.ndarray:
            out = self.session.submit(points, w)
            self.last[kind] = (points, w, out)
            return out

        return call

    def verify(self) -> tuple[int, list[str]]:
        failures = []
        # the measured session is closed first: two live parallel services
        # of one process would collide on their shm segment names
        domain = self.session.domain
        self.teardown()
        for kind, (points, w, out) in self.last.items():
            with EvaluatorSession(self.ev, domain=domain) as fresh:
                cold = fresh.submit(points, w)
            if not np.array_equal(cold, out):
                failures.append(
                    f"{self.name}: last {kind} submit is not bit-identical to a cold "
                    "submit of the same inputs over the same domain"
                )
        points, w, out = self.last["op"]
        self.err = rel_err_l2(self.ev.kernel, points, w, out)
        if not self.err <= ERR_CAP:
            failures.append(f"{self.name}: rel_err_l2 {self.err:.3e} > {ERR_CAP:g}")
        return len(self.last) + 1, failures

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()

    def facts(self) -> dict:
        return {
            "potentials_sha256": self.cold_sha256,
            "rel_err_l2": self.err,
            "session_stats": {
                k: v for k, v in self.session.stats.items() if k != "tree_updates"
            },
        }


class ServeSim(ServeWorkload):
    name = "serve-sim"

    def config(self) -> RuntimeConfig:
        return RuntimeConfig(n_localities=4, workers_per_locality=8, tracing=False)


def leaked_segments() -> list[str]:
    """Shared-memory segments this process created that are still in /dev/shm."""
    return ShmArena.leaked(f"hmmgas_{os.getpid()}_")


class ServePar2(ServeWorkload):
    name = "serve-par2"

    single_process = False

    def config(self) -> RuntimeConfig:
        return RuntimeConfig(backend="parallel", n_localities=2, tracing=False)

    def verify(self) -> tuple[int, list[str]]:
        checks, failures = super().verify()
        failures += [f"{self.name}: leaked shm segment {s}" for s in leaked_segments()]
        failures += [
            f"{self.name}: child {p.pid} alive after close()"
            for p in multiprocessing.active_children()
        ]
        return checks + 2, failures


WORKLOADS = {w.name: w for w in (ColdSim, ServeSim, ServePar2, PhantomSphere)}
