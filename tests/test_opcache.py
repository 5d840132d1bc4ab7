"""Operator-cache sharing and disk persistence (OperatorFactory)."""

import json

import numpy as np
import pytest

from repro.kernels.expo import DIRECTIONS
from repro.kernels.fitops import CACHE_FORMAT_VERSION, OperatorFactory
from repro.kernels.laplace import LaplaceKernel


def _factory():
    return OperatorFactory(LaplaceKernel(4), eps=1e-3, n_extra=16, seed=11)


@pytest.fixture
def factory():
    return _factory()


def _probe_all(fac):
    """One operator of every kind, stacks included."""
    return {
        "m2m": fac.m2m(2, 0.5),
        "l2l": fac.l2l(6, 0.5),
        "m2l": fac.m2l((2, -1, 0), 0.5),
        "m2lc": fac.m2l_coarse(np.array([1.5, -2.0, 0.5]), 0.5, 0.25),
        "m2i": fac.m2i("-x", 0.5),
        "m2i_stack": fac.m2i_stack(DIRECTIONS, 0.5),
        "i2l": fac.i2l("+y", 0.5),
        "i2l_stack": fac.i2l_stack(DIRECTIONS, 0.5),
        "i2i": fac.i2i("+z", (1, 0, 2), 0.5),
    }


def test_same_key_fitted_exactly_once(factory):
    assert factory.cache_stats() == {"hits": 0, "misses": 0, "factorizations": 0}
    a = factory.m2m(5, 0.5)
    stats = factory.cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 0
    for _ in range(3):
        assert factory.m2m(5, 0.5) is a
    stats = factory.cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 3


def test_shared_registry_returns_same_instance():
    f1 = OperatorFactory.shared(LaplaceKernel(4), eps=1e-3)
    f2 = OperatorFactory.shared(LaplaceKernel(4), eps=1e-3)
    assert f1 is f2
    # a different expansion order is a different fit signature
    f3 = OperatorFactory.shared(LaplaceKernel(5), eps=1e-3)
    assert f3 is not f1


def test_disk_roundtrip_identical_without_refit(factory, tmp_path):
    ref = _probe_all(factory)
    assert factory.cache_stats()["factorizations"] == 3
    path = factory.save(directory=tmp_path)
    assert path.exists()

    fresh = _factory()
    assert fresh.load(directory=tmp_path)
    for name, op in _probe_all(fresh).items():
        np.testing.assert_array_equal(op, ref[name], err_msg=name)
    # every probe was a hit: nothing was refit, no space was factored
    stats = fresh.cache_stats()
    assert stats["misses"] == 0 and stats["hits"] == len(ref)
    assert stats["factorizations"] == 0


def test_partial_i2l_cache_is_completed_without_touching_loaded(factory, tmp_path):
    ref = {d: factory.i2l(d, 0.5) for d in DIRECTIONS}
    kept = ("+z", "-x")
    for d in DIRECTIONS:
        if d not in kept:
            del factory._cache[("i2l", d, None)]
    path = factory.save(directory=tmp_path)

    fresh = _factory()
    assert fresh.load(path=path)
    loaded = {d: fresh.i2l(d, 0.5) for d in kept}
    assert fresh.cache_stats()["factorizations"] == 0
    for d in DIRECTIONS:
        np.testing.assert_array_equal(fresh.i2l(d, 0.5), ref[d], err_msg=d)
    # one factorization filled in the four missing directions ...
    assert fresh.cache_stats()["factorizations"] == 1
    # ... and the loaded ones are still the loaded arrays
    for d in kept:
        assert fresh.i2l(d, 0.5) is loaded[d]


def test_previous_format_version_rejected_then_refit(factory, tmp_path):
    assert CACHE_FORMAT_VERSION == 4
    ref = factory.m2m(0, 0.5)
    old_sig = dict(factory.signature(), format=3)
    path = tmp_path / "ops_v3.npz"
    np.savez_compressed(
        path,
        __signature__=np.array(json.dumps(old_sig)),
        **{f"op::{('m2m', 0, None)!r}": np.zeros_like(ref)},
    )

    fresh = _factory()
    with pytest.raises(ValueError, match="signature mismatch"):
        fresh.load(path=path)
    assert fresh.load(path=path, strict=False) is False
    assert not fresh._cache
    # the stale operator was not taken over: the probe misses and refits
    np.testing.assert_array_equal(fresh.m2m(0, 0.5), ref)
    stats = fresh.cache_stats()
    assert stats["misses"] == 1 and stats["factorizations"] == 1
    # and the default path of the new version does not name the old file
    assert "_v4.npz" in fresh.default_cache_path(tmp_path).name


def test_signature_mismatch_rejected(factory, tmp_path):
    factory.m2m(0, 0.5)
    path = factory.save(directory=tmp_path)

    other = OperatorFactory(LaplaceKernel(4), eps=1e-5, n_extra=16, seed=11)
    with pytest.raises(ValueError, match="signature mismatch"):
        other.load(path=path)
    assert other.load(path=path, strict=False) is False
    assert not other._cache

    other_p = OperatorFactory(LaplaceKernel(6), eps=1e-3, n_extra=16, seed=11)
    # the default path embeds the signature, so the file is not even found
    assert other_p.load(directory=tmp_path, strict=False) is False
    with pytest.raises(FileNotFoundError):
        other_p.load(directory=tmp_path)


def test_missing_file_nonstrict(factory, tmp_path):
    assert factory.load(directory=tmp_path, strict=False) is False
