"""Global address space semantics."""

import pytest

import os

import numpy as np

from repro.hpx.gas import GlobalAddress, GlobalAddressSpace, ShmArena


def test_alloc_and_translate():
    gas = GlobalAddressSpace(3)
    addr = gas.alloc(1, {"x": 1})
    assert addr.locality == 1
    assert gas.translate(addr, 1) == {"x": 1}


def test_remote_translate_rejected():
    """Statically partitioned GAS: remote access must use parcels."""
    gas = GlobalAddressSpace(2)
    addr = gas.alloc(0, "data")
    with pytest.raises(ValueError):
        gas.translate(addr, 1)


def test_put_local():
    gas = GlobalAddressSpace(2)
    addr = gas.alloc(0, "old")
    gas.put_local(addr, "new", 0)
    assert gas.translate(addr, 0) == "new"
    with pytest.raises(ValueError):
        gas.put_local(addr, "x", 1)


def test_cyclic_allocation_round_robin():
    gas = GlobalAddressSpace(4)
    addrs = gas.alloc_cyclic(10)
    assert [a.locality for a in addrs] == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]


def test_free():
    gas = GlobalAddressSpace(1)
    addr = gas.alloc(0, 42)
    gas.free(addr)
    with pytest.raises(KeyError):
        gas.translate(addr, 0)


def test_addresses_are_distinct_and_ordered():
    gas = GlobalAddressSpace(2)
    a = gas.alloc(0)
    b = gas.alloc(0)
    assert a != b
    assert a < b


def test_locality_bounds():
    gas = GlobalAddressSpace(2)
    with pytest.raises(ValueError):
        gas.alloc(2)
    with pytest.raises(ValueError):
        GlobalAddressSpace(0)


def test_address_repr():
    assert repr(GlobalAddress(3, 17)) == "ga(3:17)"


def test_two_live_arenas_never_share_segment_names():
    """Segment numbers are process-wide: a second arena (a second
    parallel session in the same process) must not restart at 0."""
    a, b = ShmArena(), ShmArena()
    try:
        a.put("x", np.arange(4.0))
        b.put("x", np.ones(3))  # FileExistsError with a per-arena counter
        a.alloc("y", (2,))
        names = a.segment_names() + b.segment_names()
        assert len(set(names)) == 3
        # the {prefix}_{pid}_{n} format leaked()/reap_orphans() parse
        for name in names:
            prefix, pid, n = name.split("_")
            assert (prefix, pid) == ("hmmgas", str(os.getpid())) and n.isdigit()
        assert np.array_equal(a.get("x"), np.arange(4.0))
        assert np.array_equal(b.get("x"), np.ones(3))
    finally:
        a.destroy()
        b.destroy()
    assert not set(names) & set(ShmArena.leaked(f"hmmgas_{os.getpid()}_"))
