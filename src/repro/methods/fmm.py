"""The Fast Multipole Method's declared DAG schemas, both variants of
the paper:

* the *basic* FMM with eight operators (S->M, M->M, M->L, M->T, S->L,
  L->L, L->T, S->T), where every list-2 interaction is a direct M->L
  translation (up to 189 per box), and
* the *advanced* FMM with the merge-and-shift technique, which routes
  list-2 interactions through intermediate (exponential) expansions via
  M->I, I->I and I->L, cutting the per-box translation count to ~40.

The schemas say what the DAG holds; :class:`repro.dashmm.DashmmEvaluator`
builds it and runs its compiled plan on either backend.
"""

from __future__ import annotations

from repro.dag import MethodSchema, edge_kinds, node_kinds

#: Declared DAG schema of the advanced (merge-and-shift) FMM: node and
#: operator kinds drawn from the shared catalogs plus the ordered wiring
#: rules the validated builder (:class:`repro.dag.DagBuilder`) runs to
#: materialize the graph.  List-2 interactions route through the
#: intermediate exponential expansions (M2I/I2I/I2L).
FMM_SCHEMA = MethodSchema(
    name="fmm",
    nodes=node_kinds("S", "M", "Is", "It", "L", "T"),
    edges=edge_kinds(
        "S2M", "M2M", "M2I", "I2I", "I2L", "S2L", "L2L", "M2T", "L2T", "S2T"
    ),
    assembly=(
        "source-upward",
        "target-downward",
        "list2-merge-shift",
        "list3-m2t",
        "list4-s2l",
        "list1-s2t",
    ),
)

#: The basic eight-operator FMM: same up/down chains and adaptive lists,
#: but every list-2 interaction is a direct M2L translation (no
#: intermediate expansions, up to 189 translations per box).
FMM_BASIC_SCHEMA = MethodSchema(
    name="fmm-basic",
    nodes=node_kinds("S", "M", "L", "T"),
    edges=edge_kinds("S2M", "M2M", "M2L", "S2L", "L2L", "M2T", "L2T", "S2T"),
    assembly=(
        "source-upward",
        "target-downward",
        "list2-direct",
        "list3-m2t",
        "list4-s2l",
        "list1-s2t",
    ),
)

#: Scheduling classification of the FMM's operator classes, derived
#: from the declared schemas (union over both variants).  Near-field
#: work is the direct particle-particle (P2P) stream - the abundant,
#: dependency-free S->T interactions any idle core can chew on at any
#: time.  Far-field work is everything touching an expansion: the
#: upward chain, the bridge (direct M->L or merge-and-shift M->I/I->I/
#: I->L), the downward shift and the expansion evaluations at the
#: leaves.  An interleaving policy
#: (:class:`repro.hpx.scheduler.CriticalPathPolicy`) uses this split to
#: pipeline the near-field stream under far-field (M2L) bursts.
NEAR_FIELD_OPS = tuple(
    dict.fromkeys(FMM_SCHEMA.near_ops + FMM_BASIC_SCHEMA.near_ops)
)
FAR_FIELD_OPS = tuple(
    dict.fromkeys(FMM_SCHEMA.far_ops + FMM_BASIC_SCHEMA.far_ops)
)
