"""Fitted translation operators: accuracy, caching, determinism."""

import numpy as np
import pytest

from repro.dashmm.evaluator import DashmmEvaluator
from repro.kernels.expo import DIRECTIONS, assign_direction, frame, i2i_factor, p2w
from repro.kernels.fitops import OperatorFactory, SpaceFactor, octant_offset
from repro.kernels.laplace import LaplaceKernel
from repro.kernels.yukawa import YukawaKernel
from repro.workloads.distributions import random_charges

RNG = np.random.default_rng(55)


def _sources(n=25):
    return RNG.uniform(-0.5, 0.5, (n, 3)), RNG.normal(size=25)


def test_octant_offsets_distinct():
    offs = {tuple(octant_offset(o)) for o in range(8)}
    assert len(offs) == 8
    for o in range(8):
        assert np.all(np.abs(octant_offset(o)) == 0.25)


def test_space_factor_recovers_exact_map():
    A = RNG.normal(size=(50, 8)) + 1j * RNG.normal(size=(50, 8))
    T_true = RNG.normal(size=(6, 8))
    B = A @ T_true.T
    factor = SpaceFactor(A)  # consumes A
    assert np.allclose(factor.fit(B), T_true, atol=1e-10)
    # one factor serves any number of right-hand sides
    assert np.allclose(factor.fit(B[:, :2]), T_true[:2], atol=1e-10)


def test_space_factor_rank_deficient_gives_min_norm_solution():
    """Duplicated input columns: the answer is lstsq's min-norm one."""
    base = RNG.normal(size=(60, 7)) + 1j * RNG.normal(size=(60, 7))
    A = np.hstack([base, base[:, :4]])
    B = RNG.normal(size=(60, 5)) + 1j * RNG.normal(size=(60, 5))
    ref, _, rank, _ = np.linalg.lstsq(A, B, rcond=1e-10)
    assert rank == 7
    np.testing.assert_allclose(SpaceFactor(A).fit(B), ref.T, atol=1e-9, rtol=0)


@pytest.mark.parametrize("kern", ["laplace", "yukawa"])
def test_m2m_accuracy(kern, laplace, yukawa, laplace_factory, yukawa_factory):
    k = laplace if kern == "laplace" else yukawa
    F = laplace_factory if kern == "laplace" else yukawa_factory
    h = 0.5
    src, q = _sources()
    for oct_ in (0, 5, 7):
        off = octant_offset(oct_)
        Mc = k.p2m(src, q, h)
        Mp_fit = F.m2m(oct_, h) @ Mc
        Mp_exact = k.p2m(off + src / 2.0, q, 2 * h)
        far = RNG.uniform(-0.5, 0.5, (10, 3)) + np.array([4.0, 3.0, 3.0])
        a = k.m2t(Mp_fit, far, 2 * h)
        b = k.m2t(Mp_exact, far, 2 * h)
        assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-5


@pytest.mark.parametrize("kern", ["laplace", "yukawa"])
def test_m2l_accuracy(kern, laplace, yukawa, laplace_factory, yukawa_factory):
    k = laplace if kern == "laplace" else yukawa
    F = laplace_factory if kern == "laplace" else yukawa_factory
    h = 0.5
    src, q = _sources()
    for delta in [(2, 0, 0), (3, -2, 1), (-2, 3, -3)]:
        L = F.m2l(delta, h) @ k.p2m(src, q, h)
        tin = RNG.uniform(-0.5, 0.5, (10, 3))
        phi = k.l2t(L, tin, h)
        exact = k.direct((tin + np.array(delta, dtype=float)) * h, src * h, q)
        # corner offsets sit at the truncation floor for p=10; the paper's
        # requirement is 3 digits
        assert np.max(np.abs(phi - exact)) / np.max(np.abs(exact)) < 5e-4


@pytest.mark.parametrize("kern", ["laplace", "yukawa"])
def test_l2l_accuracy(kern, laplace, yukawa, laplace_factory, yukawa_factory):
    k = laplace if kern == "laplace" else yukawa
    F = laplace_factory if kern == "laplace" else yukawa_factory
    h = 1.0
    far = RNG.uniform(-0.5, 0.5, (15, 3)) * 1.0 + np.array([3.5, -2.5, 2.0])
    qf = RNG.normal(size=15)
    Lp = k.p2l(far, qf, h)
    for oct_ in (1, 6):
        off = octant_offset(oct_)
        Lc = F.l2l(oct_, h) @ Lp
        yin = RNG.uniform(-0.5, 0.5, (10, 3))
        phi = k.l2t(Lc, yin, h / 2)
        exact = k.direct((off + yin / 2.0) * h, far * h, qf)
        assert np.max(np.abs(phi - exact)) / np.max(np.abs(exact)) < 1e-4


@pytest.mark.parametrize("kern", ["laplace", "yukawa"])
def test_exponential_chain_accuracy(kern, laplace, yukawa, laplace_factory, yukawa_factory):
    """M->I -> I->I -> I->L reproduces the same field as direct M->L."""
    k = laplace if kern == "laplace" else yukawa
    F = laplace_factory if kern == "laplace" else yukawa_factory
    h = 0.5
    src, q = _sources()
    M = k.p2m(src, q, h)
    deltas = [(0, 0, 2), (1, 3, -2), (-3, 1, 0), (1, -1, -3), (2, 0, 1), (0, -2, 1)]
    assert {assign_direction(delta) for delta in deltas} == set(DIRECTIONS)
    for delta in deltas:
        d = assign_direction(delta)
        W = F.m2i(d, h) @ M
        V = W * F.i2i(d, delta, h)
        L = F.i2l(d, h) @ V
        tin = RNG.uniform(-0.5, 0.5, (10, 3))
        phi = k.l2t(L, tin, h)
        exact = k.direct((tin + np.array(delta, dtype=float)) * h, src * h, q)
        assert np.max(np.abs(phi - exact)) / np.max(np.abs(exact)) < 2e-3


def test_cache_returns_same_object(laplace_factory):
    a = laplace_factory.m2m(2, 0.5)
    b = laplace_factory.m2m(2, 0.5)
    assert a is b


def test_laplace_scale_invariance_of_cache(laplace_factory):
    """Laplace operators are shared across levels (level_key is None)."""
    a = laplace_factory.m2m(3, 0.5)
    b = laplace_factory.m2m(3, 0.125)
    assert a is b


def test_yukawa_per_level_operators(yukawa_factory):
    a = yukawa_factory.m2m(3, 0.5)
    b = yukawa_factory.m2m(3, 0.25)
    assert a is not b
    assert not np.allclose(a, b)


def test_determinism(laplace):
    F1 = OperatorFactory(laplace, eps=1e-3, seed=7)
    F2 = OperatorFactory(laplace, eps=1e-3, seed=7)
    assert np.allclose(F1.m2l((2, 1, 0), 0.5), F2.m2l((2, 1, 0), 0.5))


def test_cache_stats(laplace_factory):
    laplace_factory.m2m(0, 0.5)
    stats = laplace_factory.cache_stats()
    assert stats.get("m2m", 0) >= 1


# -- one factorization per input space ---------------------------------------

H = 0.5


def _small():
    return OperatorFactory(LaplaceKernel(4), eps=1e-3, n_extra=16, seed=11)


@pytest.mark.parametrize("op", ["m2l", "m2l_coarse"])
def test_delta_spelling_does_not_change_the_operator(op):
    """tuple / ndarray / tuple-of-numpy-ints hit one cache key, so they
    must be one operator whichever spelling a fresh factory sees first."""
    spellings = [(2, 0, 1), np.array([2, 0, 1]), tuple(np.array([2, 0, 1]))]
    args = (H,) if op == "m2l" else (H, H / 2)
    ref, *others = [getattr(_small(), op)(delta, *args) for delta in spellings]
    for other in others:
        np.testing.assert_array_equal(other, ref)


def test_i2l_alone_or_through_the_stack_is_bit_identical():
    alone, stacked = _small(), _small()
    first = alone.i2l("+x", H)
    stack = stacked.i2l_stack(DIRECTIONS, H)
    nterms = alone.quadrature(H).nterms
    np.testing.assert_array_equal(first, stacked.i2l("+x", H))
    for i, d in enumerate(DIRECTIONS):
        np.testing.assert_array_equal(stack[:, i * nterms : (i + 1) * nterms], alone.i2l(d, H))
    # the whole family came from one factorization, whichever came first
    assert alone.cache_stats()["factorizations"] == 1
    assert stacked.cache_stats()["factorizations"] == 1


@pytest.mark.parametrize("kern", ["laplace", "yukawa"])
def test_i2l_fold_equals_the_unfolded_pair_under_l2t(kern, monkeypatch):
    """The stored I->L operator is complex-linear in the carried
    amplitudes; the fit behind it is ``L = Ya Re V + Yb Im V`` (i.e.
    ``A V + B conj(V)``, the carried terms plus their conjugate
    partners).  Both must give the same L->T potentials."""
    k = LaplaceKernel(4) if kern == "laplace" else YukawaKernel(4, lam=2.0)
    factory = OperatorFactory(k, eps=1e-3, n_extra=16, seed=11)
    fitted, fit = [], SpaceFactor.fit

    def recording_fit(self, outputs):
        fitted.append(fit(self, outputs))
        return fitted[-1]

    monkeypatch.setattr(SpaceFactor, "fit", recording_fit)
    folded = {d: factory.i2l(d, H) for d in DIRECTIONS}
    (y,) = fitted  # one real-design fit behind all six directions
    quad = factory.quadrature(H)
    nt = quad.nterms
    assert y.shape == (6 * k.size, 2 * nt)
    rng = np.random.default_rng(3)
    tin = rng.uniform(-0.5, 0.5, (12, 3))
    for i, d in enumerate(DIRECTIONS):
        # incoming amplitudes of real charges two to three boxes up-cone
        delta = np.array([1.0, -1.0, 2.0]) @ frame(d)
        src, q = rng.uniform(-0.5, 0.5, (20, 3)), rng.normal(size=20)
        V = p2w(quad, d, src, q, H) * i2i_factor(quad, d, delta)
        rows = slice(i * k.size, (i + 1) * k.size)
        unfolded = k.l2t(y[rows, :nt] @ V.real + y[rows, nt:] @ V.imag, tin, H)
        gap = np.max(np.abs(k.l2t(folded[d] @ V, tin, H) - unfolded))
        assert gap < 1e-12 * np.max(np.abs(unfolded))
        # and the pair is a fit of the field, within the rule's accuracy
        exact = k.direct((tin + delta) * H, src * H, q)
        assert np.max(np.abs(unfolded - exact)) / np.max(np.abs(exact)) < 2e-2


def test_m2i_alone_or_through_the_stack_is_bit_identical():
    alone, stacked = _small(), _small()
    first = alone.m2i("-y", H)
    stack = stacked.m2i_stack(DIRECTIONS, H)
    nterms = alone.quadrature(H).nterms
    np.testing.assert_array_equal(first, stacked.m2i("-y", H))
    for i, d in enumerate(DIRECTIONS):
        np.testing.assert_array_equal(stack[i * nterms : (i + 1) * nterms], alone.m2i(d, H))


def test_request_order_does_not_change_the_operators():
    deltas = [(2, 0, 0), (3, -2, 1), (-2, 3, -3), (0, 2, -1)]
    fwd, rev = _small(), _small()
    ops_fwd = {("l2l", o): fwd.l2l(o, H) for o in range(8)}
    ops_fwd.update({("m2l", d): fwd.m2l(d, H) for d in deltas})
    ops_fwd.update({("m2m", o): fwd.m2m(o, H) for o in range(8)})
    ops_rev = {("m2m", o): rev.m2m(o, H) for o in reversed(range(8))}
    ops_rev.update({("m2l", d): rev.m2l(d, H) for d in reversed(deltas)})
    ops_rev.update({("l2l", o): rev.l2l(o, H) for o in reversed(range(8))})
    for key, op in ops_fwd.items():
        np.testing.assert_array_equal(ops_rev[key], op)
    assert fwd.cache_stats()["factorizations"] == rev.cache_stats()["factorizations"] == 2


def _cloud(n=400):
    rng = np.random.default_rng(8)
    return rng.uniform(0, 1, (n, 3)), rng.normal(size=n), rng.uniform(0, 1, (n, 3))


def _spaces_in_cache(factory):
    """Distinct (input space, level key) pairs behind the cached operators."""
    space_of = {"m2m": "M", "m2l": "M", "m2lc": "M", "m2i": "M", "l2l": "L", "i2l": "I"}
    return {(space_of[k[0]], k[-1]) for k in factory._cache if k[0] in space_of}


@pytest.mark.parametrize("method, expected", [("fmm", 3), ("fmm-basic", 2)])
def test_laplace_evaluate_factorization_count(method, expected):
    """Timing-free guard: a fresh factory factors each input space once."""
    sources, weights, targets = _cloud()
    factory = OperatorFactory(LaplaceKernel(4), eps=1e-3)
    ev = DashmmEvaluator(factory.kernel, method=method, threshold=4, eps=1e-3, factory=factory)
    ev.evaluate(sources, weights, targets)
    assert factory.cache_stats()["factorizations"] == expected
    assert len(_spaces_in_cache(factory)) == expected
    ev.evaluate(sources, weights, targets)
    assert factory.cache_stats()["factorizations"] == expected


def test_yukawa_evaluate_factors_once_per_space_and_level():
    sources, weights, targets = _cloud()
    factory = OperatorFactory(YukawaKernel(4, lam=2.0), eps=1e-3)
    ev = DashmmEvaluator(factory.kernel, method="fmm", threshold=4, eps=1e-3, factory=factory)
    ev.evaluate(sources, weights, targets)
    spaces = _spaces_in_cache(factory)
    # scale-variant kernel: every space occurs at more than one level
    assert {s for s, _ in spaces} == {"M", "L", "I"}
    assert len(spaces) > 3
    assert factory.cache_stats()["factorizations"] == len(spaces)


def test_canonical_slab_accuracy_pin():
    """The ledger's canonical problem (benchmarks/perf/workloads.py: 32
    points in each 8 x 8 x 2 level-3 leaf, seed 1, Laplace p=6, eps 1e-4,
    threshold 60) and its error sample.  The plane-wave rule is the only
    eps-sized term in it, so a change that moves this number changed the
    rule or the I->L fit, not the roundoff."""
    rng = np.random.default_rng(1)
    cells = np.indices((8, 8, 2)).reshape(3, -1).T
    points = ((cells[:, None, :] + rng.random((len(cells), 32, 3))) / 8.0).reshape(-1, 3)
    points[:, 2] *= 0.96
    weights = random_charges(len(points), 2)
    factory = OperatorFactory(LaplaceKernel(6), eps=1e-4)
    ev = DashmmEvaluator(factory.kernel, method="fmm", threshold=60, eps=1e-4, factory=factory)
    potentials = ev.evaluate(points, weights, points).potentials
    sample = np.linspace(0, len(points) - 1, 256).astype(int)
    ref = factory.kernel.direct(points[sample], points, weights)
    rel_err_l2 = np.linalg.norm(potentials[sample] - ref) / np.linalg.norm(ref)
    assert rel_err_l2 == pytest.approx(1.4509e-4, rel=0.01)
    assert factory.cache_stats()["factorizations"] == 3
