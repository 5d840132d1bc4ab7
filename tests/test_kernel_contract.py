"""The kernel contract a patched geometry cache rests on.

A drift submit recomputes only the cached rows (and S->T columns) whose
point moved, so every row of ``p2m_matrix``, ``m2t_matrix`` and
``l2t_matrix`` must depend on its own point alone, and every entry of
``greens`` on its own distance alone: a matrix computed over a subset of
the points must equal the same rows of the full matrix bit for bit.
Checked for the shipped kernels and the user-defined kernel of
``examples/custom_kernel.py``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.kernels.base import pair_distances, paired_distances
from repro.kernels.laplace import LaplaceKernel
from repro.kernels.yukawa import YukawaKernel

EXAMPLES = Path(__file__).parent.parent / "examples"


def _custom_kernel(p: int):
    spec = importlib.util.spec_from_file_location("custom_kernel", EXAMPLES / "custom_kernel.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ScreenedPlusCoulomb(p)


KERNELS = {
    "laplace": lambda: LaplaceKernel(6),
    "yukawa": lambda: YukawaKernel(6, lam=2.0),
    "custom": lambda: _custom_kernel(4),
}


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(3)
    # box-unit offsets around a center, as the stacked passes build them;
    # sizes that are not multiples of any SIMD width
    return rng.uniform(-0.5, 0.5, (203, 3)), rng.uniform(-0.5, 0.5, (37, 3))


def _subsets(n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(n)
    return [
        np.array([0]),
        np.array([n - 1]),
        np.arange(5, 12),
        np.sort(rng.choice(n, 17, replace=False)),
    ]


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("op", ["p2m_matrix", "m2t_matrix", "l2t_matrix"])
def test_expansion_rows_depend_only_on_their_point(points, name, op):
    kernel = KERNELS[name]()
    rel, _ = points
    if op == "m2t_matrix":
        rel = rel + 2.0  # multipoles are evaluated outside their box
    scale = 0.125
    full = getattr(kernel, op)(rel, scale)
    for sel in _subsets(len(rel)):
        assert np.array_equal(getattr(kernel, op)(rel[sel], scale), full[sel])


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_greens_entries_depend_only_on_their_pair(points, name):
    kernel = KERNELS[name]()
    targets, sources = points
    sources = np.vstack([sources, targets[:3]])  # coincident pairs: r == 0
    full = kernel.greens(pair_distances(targets, sources))
    for rows in _subsets(len(targets)):
        assert np.array_equal(kernel.greens(pair_distances(targets[rows], sources)), full[rows])
    for cols in _subsets(len(sources)):
        assert np.array_equal(kernel.greens(pair_distances(targets, sources[cols])), full[:, cols])
    # one flat pass over (target, source) pairs, as a drift patch builds it
    t, s = np.divmod(np.arange(full.size), len(sources))
    flat = kernel.greens(paired_distances(targets, sources, t, s))
    assert np.array_equal(flat, full.ravel())
