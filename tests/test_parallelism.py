"""DAG parallelism profile: the top-of-tree bottleneck of Section V.C."""

import numpy as np
import pytest

from repro.analysis.parallelism import (
    bottleneck_round,
    fanout_after_bottleneck,
    wavefront_profile,
)
from repro.dashmm.dag import build_fmm_dag
from repro.tree.dualtree import build_dual_tree
from repro.tree.lists import build_lists


@pytest.fixture(scope="module")
def dag():
    rng = np.random.default_rng(71)
    n = 20000
    src = rng.uniform(0, 1, (n, 3))
    tgt = rng.uniform(0, 1, (n, 3))
    dual = build_dual_tree(src, tgt, 40, source_weights=np.ones(n))
    lists = build_lists(dual)
    return build_fmm_dag(dual, lists, advanced=True)


def test_profile_covers_all_nodes(dag):
    prof = wavefront_profile(dag)
    assert prof.sum() == len(dag.nodes)
    assert prof[0] > 0


def test_first_wave_is_source_nodes(dag):
    prof = wavefront_profile(dag)
    n_sources = sum(1 for i in range(len(dag.nodes)) if dag.in_degree[i] == 0)
    assert prof[0] == n_sources


def test_bottleneck_exists_and_is_narrow(dag):
    i, width = bottleneck_round(dag)
    prof = wavefront_profile(dag)
    assert 0 < i < len(prof)
    assert width < prof[0] / 10, "the top of the tree is a severe bottleneck"


def test_parallelism_rises_sharply_after_bottleneck(dag):
    """'after which the amount of available parallelism rises sharply'"""
    assert fanout_after_bottleneck(dag) > 10.0


def test_profile_on_linear_chain():
    from repro.dashmm.dag import DAG

    d = DAG()
    d.append_nodes("M", [0, 1, 2], [0, 1, 2], "source")
    d.append_edges([0, 1], [1, 2], "M2M")
    assert list(wavefront_profile(d)) == [1, 1, 1]
