"""Declarative DAG schema: declarations, builder, validator, export/diff.

Unit coverage for :mod:`repro.dag.schema`: the kind catalogs and method
declarations, bit-identity of the builder against the per-box
reference loops, the canonical export / fingerprint / diff tooling,
and the structured validation errors.  The
cross-assembly executed-output oracle lives in
``tests/test_schema_oracle.py``; randomized validator properties in
``tests/test_schema_properties.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.dashmm.dag as dag_mod
from repro.analysis.critical_path import GROUPS
from repro.dag import (
    DagBuilder,
    MethodSchema,
    SchemaValidationError,
    dag_fingerprint,
    diff_dags,
    edge_kinds,
    export_dag,
    method_schema,
    node_kinds,
    validate_dag,
)
from repro.dashmm.dag import DAG, KIND_CODE, TREES
from repro.methods.barneshut import BH_SCHEMA, mac_pairs
from repro.methods.fmm import FMM_BASIC_SCHEMA, FMM_SCHEMA
from repro.tree.dualtree import build_dual_tree
from repro.tree.lists import build_lists
from tests.dag_edits import edited
from tests.reference_chain import build_bh_dag_reference, build_fmm_dag_reference


@pytest.fixture(scope="module")
def dual():
    rng = np.random.default_rng(17)
    pts = rng.random((320, 3))
    return build_dual_tree(pts, pts, threshold=20)


@pytest.fixture(scope="module")
def lists(dual):
    return build_lists(dual)


@pytest.fixture(scope="module")
def mac(dual):
    return mac_pairs(dual, 0.5)


def _build(schema, dual, lists, mac):
    b = DagBuilder(schema)
    if schema.name == "bh":
        return b.build(dual, mac_pairs=mac)
    return b.build(dual, lists=lists)


def _legacy(schema, dual, lists, mac):
    """The per-box reference loop for ``schema``'s method."""
    if schema.name == "bh":
        return build_bh_dag_reference(dual, mac)
    return build_fmm_dag_reference(dual, lists, advanced=(schema.name == "fmm"))


ALL_SCHEMAS = (FMM_SCHEMA, FMM_BASIC_SCHEMA, BH_SCHEMA)


# -- declarations -----------------------------------------------------------------


def test_method_schema_lookup():
    assert method_schema("fmm") is FMM_SCHEMA
    assert method_schema("fmm-basic") is FMM_BASIC_SCHEMA
    assert method_schema("bh") is BH_SCHEMA
    assert method_schema("barneshut") is BH_SCHEMA
    with pytest.raises(KeyError):
        method_schema("treecode")


def test_near_far_derivation():
    assert FMM_SCHEMA.near_ops == ("S2T",)
    assert set(FMM_SCHEMA.far_ops) == {
        "S2M", "M2M", "M2I", "I2I", "I2L", "S2L", "L2L", "M2T", "L2T"
    }
    assert set(FMM_BASIC_SCHEMA.far_ops) == {
        "S2M", "M2M", "M2L", "S2L", "L2L", "M2T", "L2T"
    }
    assert BH_SCHEMA.near_ops == ("S2T",)
    assert set(BH_SCHEMA.far_ops) == {"S2M", "M2M", "M2T"}


def test_method_modules_reexport_derived_split():
    from repro.methods import barneshut, fmm

    assert set(fmm.FAR_FIELD_OPS) == set(FMM_SCHEMA.far_ops) | set(
        FMM_BASIC_SCHEMA.far_ops
    )
    assert fmm.NEAR_FIELD_OPS == ("S2T",)
    assert barneshut.FAR_FIELD_OPS == BH_SCHEMA.far_ops


def test_critical_path_groups_derive_from_catalog():
    # the analysis layer's three groups are the catalog's group tags
    assert set(GROUPS) == {"up", "bridge", "down"}
    assert set(GROUPS["up"]) == {"S2M", "M2M"}
    assert set(GROUPS["bridge"]) == {"M2I", "I2I", "I2L", "M2L", "M2T", "S2L"}
    assert set(GROUPS["down"]) == {"S2T", "L2L", "L2T"}


def test_schema_fingerprint_is_declaration_identity():
    fp = FMM_SCHEMA.fingerprint()
    assert fp == FMM_SCHEMA.fingerprint()  # cached and stable
    assert len({s.fingerprint() for s in ALL_SCHEMAS}) == 3
    clone = MethodSchema(
        name=FMM_SCHEMA.name,
        nodes=FMM_SCHEMA.nodes,
        edges=FMM_SCHEMA.edges,
        assembly=FMM_SCHEMA.assembly,
    )
    assert clone.fingerprint() == fp


def test_schema_rejects_incoherent_declarations():
    with pytest.raises(ValueError, match="undeclared node kind"):
        MethodSchema(
            name="broken",
            nodes=node_kinds("S", "M"),
            edges=edge_kinds("S2M", "L2T"),
            assembly=("source-upward",),
        )
    with pytest.raises(ValueError, match="unknown wiring rule"):
        MethodSchema(
            name="broken",
            nodes=node_kinds("S", "M"),
            edges=edge_kinds("S2M", "M2M"),
            assembly=("sideways",),
        )
    with pytest.raises(ValueError, match="emits undeclared"):
        MethodSchema(
            name="broken",
            nodes=node_kinds("S", "M", "T"),
            edges=edge_kinds("S2M", "M2M"),
            assembly=("source-upward", "bh-mac"),
        )


# -- builder bit-identity against the reference loops -----------------------------


@pytest.mark.parametrize("schema", ALL_SCHEMAS, ids=lambda s: s.name)
def test_builder_matches_legacy_exactly(schema, dual, lists, mac):
    """Node ids, edge order and aux payloads are identical streams -
    the strongest form of the oracle: the virtual clock and the LCO
    fold keys are functions of exactly these."""
    a = _legacy(schema, dual, lists, mac)
    b = _build(schema, dual, lists, mac)
    assert list(a.nodes) == list(b.nodes)
    assert a.out_edges == b.out_edges
    assert np.array_equal(a.in_degree, b.in_degree)
    assert diff_dags(a, b).empty
    assert dag_fingerprint(a) == dag_fingerprint(b)


def test_builder_matches_reference_loop_assembly(dual, lists):
    """The canonical export is id-free: diff and fingerprint agree with
    the per-box reference loop without comparing node numbering."""
    ref = build_fmm_dag_reference(dual, lists, advanced=True)
    decl = DagBuilder(FMM_SCHEMA).build(dual, lists=lists)
    assert diff_dags(ref, decl).empty
    assert dag_fingerprint(ref) == dag_fingerprint(decl)


@pytest.mark.parametrize("schema", ALL_SCHEMAS, ids=lambda s: s.name)
def test_builder_output_validates(schema, dual, lists, mac):
    dag = _build(schema, dual, lists, mac)
    validate_dag(schema, dag)  # does not raise


def test_builder_bumps_assembly_counter(dual, lists):
    before = dag_mod.COUNTERS["assemblies"]
    DagBuilder(FMM_SCHEMA).build(dual, lists=lists)
    assert dag_mod.COUNTERS["assemblies"] == before + 1


def test_builder_demands_matching_inputs(dual, lists, mac):
    with pytest.raises(ValueError, match="needs interaction lists"):
        DagBuilder(FMM_SCHEMA).build(dual)
    with pytest.raises(ValueError, match="MAC decisions"):
        DagBuilder(BH_SCHEMA).build(dual)


# -- canonical export / fingerprint / diff ----------------------------------------


def test_export_excludes_locality(dual, lists):
    dag = DagBuilder(FMM_SCHEMA).build(dual, lists=lists)
    fp = dag_fingerprint(dag)
    dag.locality = np.arange(len(dag.nodes)) * 7 % 3
    assert dag_fingerprint(dag) == fp


def test_fingerprint_independent_of_id_allocation():
    def make(flip):
        dag = DAG()
        for kind in ("M", "S") if flip else ("S", "M"):
            dag.append_nodes(kind, [0], 0, "source", n_points=4 if kind == "S" else 0)
        s, m = (1, 0) if flip else (0, 1)
        dag.append_edges([s], [m], "S2M")
        return dag

    assert dag_fingerprint(make(False)) == dag_fingerprint(make(True))


def test_diff_reports_structural_deltas(dual, lists):
    a = DagBuilder(FMM_SCHEMA).build(dual, lists=lists)
    # drop one edge, change a node attribute
    victim = next(e for oe in a.out_edges for e in oe if e.op == "S2T")
    b = edited(a, victim, drop=True)
    t_node = next(n for n in b.nodes if n.kind == "T")
    b.n_points[t_node.id] += 3
    d = diff_dags(a, b)
    assert not d.empty
    assert ("T", "target", t_node.box_index) in [c[0] for c in d.node_changes]
    assert any(row[0][0] == "S2T" for row in d.edges_only_a)
    report = d.report()
    assert "edges only in A" in report and "S2T" in report
    assert "node attribute changes" in report
    # and the self-diff is empty with an explicit report
    self_d = diff_dags(a, a)
    assert self_d.empty
    assert "identical" in self_d.report()


def test_diff_accepts_exports_and_dags(dual, lists):
    dag = DagBuilder(FMM_SCHEMA).build(dual, lists=lists)
    ex = export_dag(dag, FMM_SCHEMA)
    assert diff_dags(dag, ex).empty
    assert diff_dags(ex, dag).empty
    assert dag_fingerprint(ex) == dag_fingerprint(dag)
    with pytest.raises(TypeError):
        diff_dags(dag, 42)


# -- structured validation errors --------------------------------------------------


def test_dropped_edge_breaks_in_degree_table(dual, lists):
    dag = DagBuilder(FMM_SCHEMA).build(dual, lists=lists)
    victim = next(e for oe in dag.out_edges for e in oe if e.op == "L2T")
    bad = edited(dag, victim, drop=True)
    bad.in_degree = list(dag.in_degree)  # the table from before the drop
    with pytest.raises(SchemaValidationError) as err:
        validate_dag(FMM_SCHEMA, bad)
    assert err.value.rule == "in-degree-table"
    assert err.value.node == victim.dst


def test_unknown_operator_named_in_error(dual, lists):
    """An operator the schema does not declare (merge-and-shift has no
    M2L) - one outside the catalog cannot even be stored."""
    dag = DagBuilder(FMM_SCHEMA).build(dual, lists=lists)
    victim = next(e for oe in dag.out_edges for e in oe if e.op == "S2M")
    with pytest.raises(ValueError, match="op is .Q2Q."):
        edited(dag, victim, op="Q2Q")
    with pytest.raises(SchemaValidationError) as err:
        validate_dag(FMM_SCHEMA, edited(dag, victim, op="M2L"))
    assert err.value.rule == "edge-op"
    assert err.value.edge == (victim.src, victim.dst, "M2L")


def test_degree_bound_violation(dual, lists):
    # duplicate an S2M edge (keeping the in-degree table consistent):
    # S2M is declared in-unique, so the duplicate trips the cap
    dag = DagBuilder(FMM_SCHEMA).build(dual, lists=lists)
    victim = next(e for oe in dag.out_edges for e in oe if e.op == "S2M")
    with pytest.raises(SchemaValidationError) as err:
        validate_dag(FMM_SCHEMA, edited(dag, victim, duplicate=True))
    assert err.value.rule in ("edge-multiplicity", "in-degree")
    assert err.value.node == victim.dst


def test_level_inversion(dual, lists):
    dag = DagBuilder(FMM_SCHEMA).build(dual, lists=lists)
    victim = next(e for oe in dag.out_edges for e in oe if e.op == "M2M")
    dag.level[victim.dst] = dag.level[victim.src]  # parent != up
    with pytest.raises(SchemaValidationError) as err:
        validate_dag(FMM_SCHEMA, dag)
    assert err.value.rule == "edge-level"
    assert err.value.edge == (victim.src, victim.dst, "M2M")


def test_aux_signature_checks(dual, lists):
    dag = DagBuilder(FMM_SCHEMA).build(dual, lists=lists)
    m2m = next(e for oe in dag.out_edges for e in oe if e.op == "M2M")
    for aux in (11, None, (2, 0, 0)):  # octant out of range, missing, a delta
        with pytest.raises(SchemaValidationError) as err:
            validate_dag(FMM_SCHEMA, edited(dag, m2m, aux=aux))
        assert err.value.rule == "edge-aux"

    i2i = next(e for oe in dag.out_edges for e in oe if e.op == "I2I")
    direction, delta = i2i.aux
    wrong = next(d for d in ("+x", "-x", "+y", "-y", "+z", "-z") if d != direction)
    with pytest.raises(SchemaValidationError) as err:
        validate_dag(FMM_SCHEMA, edited(dag, i2i, aux=(wrong, delta)))
    assert err.value.rule == "edge-direction"
    with pytest.raises(SchemaValidationError) as err:
        # not well separated
        validate_dag(FMM_SCHEMA, edited(dag, i2i, aux=(direction, (0, 0, 0))))
    assert err.value.rule == "edge-separation"
    with pytest.raises(ValueError, match="3-int delta"):
        edited(dag, i2i, aux=(direction, (2, 0)))


def test_cycle_detection():
    """A cycle built from catalog kinds always trips a level-relation
    check first (levels are monotone along every declared edge), so the
    acyclicity rule is exercised through a custom level-free kind."""
    from repro.dag import EdgeKind, NodeKind

    schema = MethodSchema(
        name="loopy",
        nodes=(NodeKind("M", "source"),),
        edges=(EdgeKind("M2M", "M", "M", level="any", aux="none", group="up"),),
        assembly=(),
    )
    dag = DAG()
    dag.append_nodes("M", [0, 1], 0, "source")
    dag.append_edges([0, 1], [1, 0], "M2M")
    with pytest.raises(SchemaValidationError) as err:
        validate_dag(schema, dag)
    assert err.value.rule == "acyclic"


def test_wrong_tree_and_kind_errors(dual, lists, mac):
    dag = DagBuilder(FMM_SCHEMA).build(dual, lists=lists)
    t = next(n for n in dag.nodes if n.kind == "T")
    dag.tree[t.id] = TREES.index("source")
    with pytest.raises(SchemaValidationError) as err:
        validate_dag(FMM_SCHEMA, dag)
    assert err.value.rule == "node-tree"
    assert err.value.node == t.id
    # a catalog kind Barnes-Hut does not declare
    dag = DagBuilder(BH_SCHEMA).build(dual, mac_pairs=mac)
    t = next(n for n in dag.nodes if n.kind == "T")
    dag.kind[t.id] = KIND_CODE["L"]
    with pytest.raises(SchemaValidationError) as err:
        validate_dag(BH_SCHEMA, dag)
    assert err.value.rule == "node-kind"
    assert err.value.node == t.id


# -- IR consumers -----------------------------------------------------------------


def test_hazard_subject_names_the_dag_node(dual, lists):
    from repro.dashmm.registrar import ExpansionLCO
    from repro.hpx.hazards import HazardDetector
    from repro.hpx.runtime import Runtime, RuntimeConfig

    dag = DagBuilder(FMM_SCHEMA).build(dual, lists=lists)
    node = next(n for n in dag.nodes if n.kind == "L")
    rt = Runtime(RuntimeConfig())
    lco = ExpansionLCO(rt, 0, dag, node.id, 1)
    det = HazardDetector()
    subject = det._lco_subject(lco)
    assert subject == lco.hazard_subject
    assert f"L[target box {node.box_index}" in subject
    # non-IR LCOs keep the address-based fallback
    from repro.hpx.lco import Future

    fut = Future(rt, 0)
    assert "Future@" in det._lco_subject(fut)
