"""Persistent evaluation service: the session API over DASHMM.

:class:`~repro.dashmm.evaluator.DashmmEvaluator.evaluate` rebuilds the
dual tree, the interaction lists and the explicit DAG on every call.
The serving regime this module targets - many repeated queries over a
slowly-moving point set, the time-stepped reuse case of Section IV -
amortizes all of that:

* **Incremental trees** (:mod:`repro.tree.incremental`): a perturbed
  point set updates the previous tree by splicing or re-carving only
  the dirty Morton ranges; unchanged boxes keep their ids.
* **One template store** (:class:`TemplateStore`): an LRU of registrars
  with no runtime - each one a structural DAG, its tree, localities,
  compiled plan and geometry cache - keyed by the method's
  declared-schema fingerprint (:meth:`repro.dag.MethodSchema.fingerprint`)
  and the tree-shape fingerprint (:mod:`repro.tree.fingerprint`).  A
  repeat shape under the same schema skips interaction lists and DAG
  assembly; a method (or schema) change misses instead of replaying a
  stale graph.  A session and every parallel worker hold one store and
  bring it to each submission with :meth:`TemplateStore.advance`, so
  every resubmit is ``advance -> reset -> stages`` on both backends.
* **Patched geometry**: a drift submit keeps the template's geometry
  cache.  :meth:`~repro.dashmm.registrar.Registrar.rebind` diffs the
  template's previous tree against the new one, and the next walk of
  the plan recomputes only the cached rows (and S->T columns) whose
  point moved; the distribution policy re-runs only when a leaf's count
  moved.
* **A long-lived session**: :class:`EvaluatorSession` exposes
  ``submit(points, charges) -> potentials`` over both backends.  On
  ``sim`` a submit is ``advance -> reset -> flush_deferred`` on the
  store's registrar; on ``parallel`` the worker processes - each with
  its own store - their shared-memory arena and their frame channels
  survive across submissions
  (:class:`repro.dashmm.parallel.PersistentParallelService`).

Correctness bar: every ``submit`` returns potentials bit-identical to a
cold-start evaluation over the same tree.  A drain only decides *when*
work happens, never *what* is computed: folds run in canonical edge
order and every batched stage groups canonically, both a
function of the DAG and the node localities - which is what the plan
compiles, so running it is just another legal schedule of the same
dataflow.  A session has no virtual clock and no schedule, so what only
a drain honours - phantom mode, the Section VI ablations, schedule
fuzzing and replay, hazard detection - is rejected
(:func:`check_plan_only`), not silently served by a run it never touched.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Any

import numpy as np

from repro.dashmm.dag import refresh_n_points
from repro.dashmm.geomcache import GeometryCache
from repro.dashmm.registrar import Registrar
from repro.tree.box import Domain
from repro.tree.dualtree import DualTree, build_dual_tree, checked_points, checked_weights
from repro.tree.fingerprint import dual_shape_fingerprint
from repro.tree.incremental import update_dual_tree


def check_plan_only(evaluator, who: str) -> None:
    """Refuse what only a simulated drain honours, for ``who`` - a
    session or the parallel backend, which run the compiled plan in
    place of a drain: numeric mode only, no Section VI ablation (they
    move a virtual clock there is none of), and no schedule fuzzing,
    replay or hazard detection (there is no schedule)."""
    if evaluator.mode != "numeric":
        raise ValueError(
            f"{who} computes numeric potentials; phantom-mode scaling "
            "studies run through evaluate() on backend='sim'"
        )
    for flag in ("coalesce", "sequential_edges"):
        if not getattr(evaluator, flag):
            raise ValueError(
                f"{who} requires {flag}=True (the ablation paths run "
                "through evaluate() on backend='sim')"
            )
    cfg = evaluator.runtime_config
    for option, on in (
        ("fuzz_schedule", cfg.fuzz_schedule is not None),
        ("replay_schedule", cfg.replay_schedule is not None),
        ("detect_hazards", cfg.detect_hazards),
    ):
        if on:
            raise ValueError(
                f"{who} runs the compiled plan and makes no schedule "
                f"decision: {option} instruments the simulator's drain; "
                "run it through evaluate() on backend='sim'"
            )


def same_points(dual: DualTree, sources: np.ndarray, targets: np.ndarray) -> bool:
    """Whether ``dual`` holds exactly these points on both sides, byte
    for byte: a charge-only submission."""
    # np.take gathers rows a few times faster than raw[perm]
    return all(
        len(raw) == tree.n_points
        and np.array_equal(np.take(raw, tree.perm, axis=0).view(np.int64), tree.points.view(np.int64))
        for tree, raw in ((dual.source, sources), (dual.target, targets))
    )


class TemplateStore:
    """The per-shape templates of a session or a parallel worker: an LRU
    of at most ``max_templates`` registrars with no runtime, keyed by
    (schema fingerprint, tree shape).

    :meth:`advance` brings the store to one submission's inputs and
    returns the registrar to run; the caller then runs ``reset`` and the
    plan's stages.  A worker's store sets ``rank`` (the registrars'
    ``_rank``) and ``result`` (the shared result vector every template
    writes into).  ``tree_update`` and ``hit`` describe the last
    advance.
    """

    def __init__(self, evaluator, domain, max_templates: int, rank=None, result=None):
        self.evaluator = evaluator
        self.domain = domain
        self.max_templates = max_templates
        self.rank = rank
        self.result = result
        self._templates: "OrderedDict[tuple, Registrar]" = OrderedDict()
        self.tree_update: dict | None = None
        self.hit = False

    @property
    def current(self) -> Registrar | None:
        """The registrar the last :meth:`advance` returned."""
        return next(reversed(self._templates.values()), None)

    def advance(self, sources, weights, targets) -> Registrar:
        """The template of these inputs, its tree, charges, node sizes
        and localities brought up to date.  Idempotent: advancing twice
        to the same inputs changes nothing the second time."""
        ev = self.evaluator
        schema = ev.schema.fingerprint()
        reg = self.current
        if (
            reg is not None
            and next(reversed(self._templates))[0] == schema
            and same_points(reg.dual, sources, targets)
        ):
            # charge-only: the template's own tree and every geometry
            # cache entry stay as they are
            reg.dual.source.set_weights(weights)
            self.tree_update = {"source": "unchanged", "target": "unchanged"}
            self.hit = True
        else:
            if reg is None:
                dual = build_dual_tree(
                    sources, targets, ev.threshold, source_weights=weights, domain=self.domain
                )
                self.tree_update = {"source": "rebuilt", "target": "rebuilt"}
            else:
                # rebuilds a side whose size changed, over the same domain
                dual, self.tree_update = update_dual_tree(
                    reg.dual, sources, targets, source_weights=weights
                )
            # the declared method schema is the identity of the
            # graph-shaping rules: swapping the evaluator's method misses
            # instead of replaying a stale graph
            key = (schema, dual_shape_fingerprint(dual))
            reg = self._templates.get(key)
            self.hit = reg is not None
            if reg is None:
                dag, _ = ev.build_dag(dual)
                ev.policy.assign(dag, dual, ev.runtime_config.n_localities)
                reg = Registrar(None, dag, dual, ev.kernel, ev.factory)
                reg._rank = self.rank
                if self.result is not None:
                    reg.result = self.result
                self._templates[key] = reg
                while len(self._templates) > max(self.max_templates, 1):
                    self._templates.popitem(last=False)
                return reg
            self._templates.move_to_end(key)
            # the registrar diffs its own previous tree - the one its
            # cache was computed over, also when the template is
            # revisited after a shape change - against this one
            if reg.rebind(dual):
                # points crossed leaf boundaries: node sizes and (under
                # work balancing) locality cuts may have shifted
                refresh_n_points(reg.dag, dual)
                old_locs = reg.dag.locality.copy()
                ev.policy.assign(reg.dag, dual, ev.runtime_config.n_localities)
                if not np.array_equal(reg.dag.locality, old_locs):
                    # both plan sections bake group-by-locality
                    # compositions in; the next reset seeds the rank's
                    # new nodes
                    reg.invalidate_plans()
        if reg.geom_cache is None and reg._plan is not None:
            # advanced again after its plan ran: a template that runs
            # once (a one-shot parallel evaluate) never holds the cache
            reg.geom_cache = GeometryCache()
        return reg


class EvaluatorSession:
    """Long-lived evaluation service over one :class:`DashmmEvaluator`.

    ``submit(points, charges)`` evaluates the potentials of ``charges``
    at ``points`` (or at an explicit ``targets`` ensemble), reusing
    everything legitimately reusable from previous submissions:

    * identical geometry  -> weights-only refill (no tree work at all:
      the coordinates are compared byte for byte);
    * perturbed points    -> incremental tree update; a preserved shape
      reuses the cached DAG template (zero list construction, zero DAG
      assembly - assert via ``repro.tree.lists.COUNTERS`` and
      ``repro.dashmm.dag.COUNTERS``);
    * new shape           -> full template build, cached for next time.

    The session pins the root cube at first use (or takes an explicit
    ``domain``), so every tree of the session lives in one coordinate
    frame and Morton keys stay comparable across submissions; points
    drifting outside the cube are clamped to the boundary cells exactly
    like a cold build over the same domain would clamp them.

    Results are bit-identical to a cold-start
    :meth:`~repro.dashmm.evaluator.DashmmEvaluator.evaluate` over the
    same domain, on both the ``sim`` and ``parallel`` backends.
    """

    def __init__(
        self,
        evaluator,
        domain: Domain | None = None,
        max_templates: int = 4,
    ):
        check_plan_only(evaluator, "EvaluatorSession")
        self.evaluator = evaluator
        self.backend = evaluator.runtime_config.backend
        self.domain = domain
        self.max_templates = max_templates
        self._store: TemplateStore | None = None
        self._parallel = None
        self._shapes_seen: set = set()
        self.stats: dict[str, Any] = {
            "submits": 0,
            "template_hits": 0,
            "template_misses": 0,
            "tree_updates": [],
        }

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Release templates and shut down parallel workers (idempotent)."""
        self._store = None
        if self._parallel is not None:
            self._parallel.close()
            self._parallel = None

    def __enter__(self) -> "EvaluatorSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission --------------------------------------------------------------
    def submit(
        self,
        points: np.ndarray,
        charges: np.ndarray,
        targets: np.ndarray | None = None,
    ) -> np.ndarray:
        """Potentials at ``targets`` (default: ``points``) due to ``charges``."""
        # validated here, before a bad first submit can pin the domain
        sources = np.ascontiguousarray(checked_points(points))
        charges = np.ascontiguousarray(checked_weights(charges, len(sources)))
        tgts = (
            sources
            if targets is None
            else np.ascontiguousarray(checked_points(targets))
        )
        if self.domain is None:
            # first use pins the session frame; identical to what a cold
            # evaluate() derives for the same inputs
            self.domain = Domain.bounding(sources, tgts)
        self.stats["submits"] += 1
        if self.backend == "parallel":
            return self._submit_parallel(sources, charges, tgts)
        return self._submit_sim(sources, charges, tgts)

    def submit_many(self, requests) -> list[np.ndarray]:
        """Evaluate a batch of ``(points, charges[, targets])`` requests.

        Requests are coalesced by point-set identity: all queries over
        one geometry run back to back, so after the first one the rest
        ride the pure warm path - shared tree, shared DAG template,
        shared geometry matrices - and their numeric work collapses to
        the batched GEMMs against the cached operator stacks.  Results
        come back in the original request order.
        """
        reqs = [tuple(r) for r in requests]
        order: dict[int, list[int]] = {}
        for i, req in enumerate(reqs):
            gkey = zlib.crc32(np.ascontiguousarray(req[0], dtype=np.float64).tobytes())
            if len(req) > 2 and req[2] is not None:
                gkey = zlib.crc32(
                    np.ascontiguousarray(req[2], dtype=np.float64).tobytes(), gkey
                )
            order.setdefault(gkey, []).append(i)
        out: list = [None] * len(reqs)
        for idxs in order.values():
            for i in idxs:
                out[i] = self.submit(*reqs[i])
        return out

    # -- sim backend -------------------------------------------------------------
    def _submit_sim(self, sources, weights, targets) -> np.ndarray:
        """``advance -> reset -> flush_deferred``: the same reset and
        plan a drained evaluate ends with, minus the drain."""
        if self._store is None:
            self._store = TemplateStore(self.evaluator, self.domain, self.max_templates)
        store = self._store
        reg = store.advance(sources, weights, targets)
        self.stats["tree_updates"].append(store.tree_update)
        self.stats["template_hits" if store.hit else "template_misses"] += 1
        reg.reset()
        reg.flush_deferred()
        target = reg.dual.target
        out = np.empty(target.n_points)
        out[target.perm] = reg.result
        return out

    # -- parallel backend --------------------------------------------------------
    def _submit_parallel(self, sources, weights, targets) -> np.ndarray:
        from repro.dashmm.parallel import PersistentParallelService

        svc = self._parallel
        if svc is not None and not svc.compatible(len(sources), len(targets)):
            # n or the method changed: the shm blocks are fixed-size and
            # the workers were spawned with one method, so the service
            # respawns (the parent's factory keeps the operators it fitted)
            svc.close()
            svc = self._parallel = None
        if svc is None:
            # a failed start tears its fleet down before it raises
            svc = PersistentParallelService(self.evaluator, self.domain)
            svc.max_templates = self.max_templates
            out, info = svc.start(sources, weights, targets)
            self._parallel = svc
        else:
            try:
                out, info = svc.submit(sources, weights, targets)
            except BaseException:
                # a terminally failed service has already torn its fleet
                # down; drop the reference so the next submit starts a
                # fresh one instead of raising "service failed" forever.
                # A submit rejected for its arguments leaves a healthy
                # fleet, which stays.
                if svc._failed is not None:
                    self._parallel = None
                raise
        self.stats["tree_updates"].append(info["tree"])
        # read at submit time: a method swapped mid-life keys fresh shapes
        shape = (self.evaluator.schema.fingerprint(), info["shape"])
        if shape in self._shapes_seen:
            self.stats["template_hits"] += 1
        else:
            self.stats["template_misses"] += 1
            self._shapes_seen.add(shape)
        return out
