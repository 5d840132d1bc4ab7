"""Persistent evaluation service: the session API over DASHMM.

:class:`~repro.dashmm.evaluator.DashmmEvaluator.evaluate` rebuilds the
dual tree, the interaction lists and the explicit DAG on every call.
The serving regime this module targets - many repeated queries over a
slowly-moving point set, the time-stepped reuse case of Section IV -
amortizes all of that:

* **Incremental trees** (:mod:`repro.tree.incremental`): a perturbed
  point set updates the previous tree by splicing or re-carving only
  the dirty Morton ranges; unchanged boxes keep their ids.
* **DAG templates**: the structural DAG, the LCO network, the box
  centers and the operator-geometry caches are keyed by the method's
  declared-schema fingerprint (:meth:`repro.dag.MethodSchema.fingerprint`)
  plus the tree-shape fingerprint (:mod:`repro.tree.fingerprint`) and
  kept alive in a small LRU; a repeat submission with the same schema
  and shape skips interaction-list construction and DAG assembly
  entirely and only resets/refills the numeric state, while a method
  (or schema) change misses instead of replaying a stale graph.
* **A long-lived session**: :class:`EvaluatorSession` exposes
  ``submit(points, charges) -> potentials`` over both backends.  On
  ``sim`` every submit - the first included - runs the template
  registrar's compiled execution plan (:mod:`repro.dashmm.flushplan`):
  ``reset -> run_eager -> flush_deferred``, no task enqueued; on
  ``parallel`` the worker processes, their shared-memory arena and
  their rebuilt metadata survive across submissions
  (:class:`repro.dashmm.parallel.PersistentParallelService`).

Correctness bar: every ``submit`` returns potentials bit-identical to a
cold-start evaluation over the same tree.  A drain only decides *when*
work happens, never *what* is computed: LCO folds run in canonical
dedup-key order and every batched stage groups canonically, both a
function of the DAG and the node localities - which is what the plan
compiles, so running it is just another legal schedule of the same
dataflow.  A session has no virtual clock, so the Section VI ablations
(``sequential_edges=False``, ``coalesce=False``) are rejected, not
silently served with other arithmetic.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.dashmm.dag import refresh_n_points
from repro.dashmm.registrar import Registrar
from repro.hpx.runtime import Runtime
from repro.tree.box import Domain
from repro.tree.dualtree import DualTree, build_dual_tree, checked_points, checked_weights
from repro.tree.fingerprint import (
    dual_full_fingerprint,
    dual_shape_fingerprint,
    geometry_token,
)
from repro.tree.incremental import update_dual_tree


@dataclass
class _Template:
    """One cached shape: the registrar (structural DAG, live LCO
    network, current tree, plans, caches) + what its tree looked like."""

    registrar: Registrar
    full_fp: tuple
    geom_token: int


class EvaluatorSession:
    """Long-lived evaluation service over one :class:`DashmmEvaluator`.

    ``submit(points, charges)`` evaluates the potentials of ``charges``
    at ``points`` (or at an explicit ``targets`` ensemble), reusing
    everything legitimately reusable from previous submissions:

    * identical geometry  -> weights-only refill (no tree work at all);
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
        if evaluator.mode != "numeric":
            raise ValueError(
                "EvaluatorSession serves numeric potentials; phantom-mode "
                "scaling studies run through evaluate()"
            )
        for flag in ("coalesce", "sequential_edges"):
            # the Section VI ablations move the simulator's virtual
            # clock; a session has none and runs the compiled plan only
            if not getattr(evaluator, flag):
                raise ValueError(
                    f"EvaluatorSession requires {flag}=True (the ablation "
                    "paths run through evaluate() on backend='sim')"
                )
        self.evaluator = evaluator
        self.backend = evaluator.runtime_config.backend
        self.domain = domain
        self.max_templates = max_templates
        self._templates: "OrderedDict[tuple, _Template]" = OrderedDict()
        self._current: _Template | None = None
        self._parallel = None
        self._shapes_seen: set = set()
        self.stats: dict[str, Any] = {
            "submits": 0,
            "template_hits": 0,
            "template_misses": 0,
            "tree_updates": [],
        }

    def _schema_token(self) -> str:
        """Declared-schema fingerprint of the evaluator's current method.

        Read at submit time, not cached: a session whose evaluator's
        method is swapped mid-life must key fresh templates under the
        new schema.
        """
        return self.evaluator.schema.fingerprint()

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Release templates and shut down parallel workers (idempotent)."""
        self._templates.clear()
        self._current = None
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
        ev = self.evaluator
        cur = None if self._current is None else self._current.registrar.dual
        sizes = (len(sources), len(targets))
        if cur is not None and (cur.source.n_points, cur.target.n_points) == sizes:
            dual, info = update_dual_tree(cur, sources, targets, source_weights=weights)
        else:
            info = {"source": "rebuilt", "target": "rebuilt"}
            dual = build_dual_tree(
                sources, targets, ev.threshold, source_weights=weights, domain=self.domain
            )
        self.stats["tree_updates"].append(info)

        # templates are keyed by (schema fingerprint, tree shape): the
        # declared method schema is the identity of the graph-shaping
        # rules, so swapping the evaluator's method (or editing a
        # schema) misses instead of replaying a stale template
        shape = (self._schema_token(), dual_shape_fingerprint(dual))
        tpl = self._templates.get(shape)
        if tpl is None:
            self.stats["template_misses"] += 1
            tpl = self._build_template(dual)
            self._templates[shape] = tpl
            while len(self._templates) > self.max_templates:
                _, evicted = self._templates.popitem(last=False)
                if evicted is self._current:
                    self._current = None
        else:
            self.stats["template_hits"] += 1
            self._templates.move_to_end(shape)
            self._refresh_template(tpl, dual, weights)
        self._current = tpl
        return self._execute(tpl)

    def _build_template(self, dual: DualTree) -> _Template:
        ev = self.evaluator
        cfg = ev._resolved_config()
        dag, _ = ev.build_dag(dual)
        ev.policy.assign(dag, dual, cfg.n_localities)
        # never run: the runtime only provides the GAS the LCOs live in
        # and the action table the registrar registers with
        reg = Registrar(
            Runtime(cfg),
            dag,
            dual,
            ev.kernel,
            ev.factory,
            mode="numeric",
            cost_model=ev.cost_model,
            size_model=ev.size_model,
        )
        reg.geom_cache = {}
        reg.allocate()
        return _Template(
            registrar=reg,
            full_fp=dual_full_fingerprint(dual),
            geom_token=geometry_token(dual.source.points, dual.target.points),
        )

    def _refresh_template(self, tpl: _Template, dual: DualTree, weights) -> None:
        """Rebind a cached template to this submission's tree + charges."""
        ev = self.evaluator
        reg = tpl.registrar
        gt = geometry_token(dual.source.points, dual.target.points)
        if gt == tpl.geom_token:
            # pure re-query: same coordinates, (possibly) new charges -
            # keep the template's own tree and every geometry cache
            reg.dual.source.set_weights(weights)
        else:
            reg.rebind(dual)
            full = dual_full_fingerprint(dual)
            if full != tpl.full_fp:
                # points crossed leaf boundaries: node sizes and (under
                # work balancing) locality cuts may have shifted
                refresh_n_points(reg.dag, dual)
                old_locs = [nd.locality for nd in reg.dag.nodes]
                ev.policy.assign(reg.dag, dual, ev.runtime_config.n_localities)
                if [nd.locality for nd in reg.dag.nodes] != old_locs:
                    # both plan sections bake group-by-locality
                    # compositions in; a shifted assignment makes them
                    # stale
                    reg.invalidate_plans()
                tpl.full_fp = full
            # every cached matrix is a function of the coordinates
            reg.geom_cache.clear()
            tpl.geom_token = gt

    def _execute(self, tpl: _Template) -> np.ndarray:
        """Run the compiled plan over the template's current tree and
        charges; no task is enqueued on any submit, the first included."""
        reg = tpl.registrar
        reg.reset()
        reg.run_eager()
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
            # n changed: the shm blocks are fixed-size, so the service
            # respawns (the operator cache still carries over via disk)
            svc.close()
            svc = self._parallel = None
        if svc is None:
            # a failed start tears its fleet down before it raises
            svc = PersistentParallelService(self.evaluator, self.domain)
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
        shape = (self._schema_token(), info["shape"])
        if shape in self._shapes_seen:
            self.stats["template_hits"] += 1
        else:
            self.stats["template_misses"] += 1
            self._shapes_seen.add(shape)
        return out
