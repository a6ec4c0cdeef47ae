"""Search-scoped memos: the last-level count memo of ``slicing.depth_first``
and the transport memos of ``coneideal.walks``.

A count must equal the length of the matching stream, which memoizes no
count, and each distinct last-level interval is counted exactly once.  The
memos live for one search: answers do not depend on what ran before, and
every search starts with empty transport memos.
"""

import pytest

from coneideal import slicing, symmetric
from coneideal.errors import InconsistentInput
from coneideal.order import Params
from coneideal.slicing import enumerate_all_r3
from coneideal.symmetric import enumerate_all_r1
from coneideal.walks import ideal_transport, transport_upper_bound

R1_INSTANCES = [(2, 12), (2, 15), (3, 6), (5, 3)]
R3_INSTANCES = [(2, 9), (3, 3)]


def _spy(monkeypatch, module, name, record):
    """Rebind module.name to a wrapper that appends (args, result)."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        record.append((args, result))
        return result

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("p,m", R1_INSTANCES)
def test_r1_count_counts_each_interval_once(monkeypatch, p, m):
    params = Params(p=p, m=m, r=1)
    stream = sum(1 for _ in enumerate_all_r1(params, mode="stream"))
    bounds, counted = [], []
    _spy(monkeypatch, symmetric, "symmetric_bounds", bounds)
    _spy(monkeypatch, symmetric, "count_layer_sym", counted)
    assert enumerate_all_r1(params, mode="count") == stream
    # a count visits shells 0..n-1 through their children and counts shell n
    keys = [(i, *st) for (i, _, _), st in bounds if i == params.n]
    assert len(counted) == len(set(keys)) < len(keys)
    assert [args for args, _ in counted] == list(dict.fromkeys(keys))


@pytest.mark.parametrize("p,m", R1_INSTANCES)
def test_r1_sharded_counts_match_streams(p, m):
    params = Params(p=p, m=m, r=1)
    counts = [enumerate_all_r1(params, mode="count", shards=(i, 4)) for i in range(4)]
    streams = [
        sum(1 for _ in enumerate_all_r1(params, mode="stream", shards=(i, 4)))
        for i in range(4)
    ]
    assert counts == streams
    assert sum(counts) == enumerate_all_r1(params, mode="count")


def test_r1_count_still_checks_every_node():
    # the r = 1 shell-5 defect builds a non-ideal section at p = 2, m = 18;
    # the count memo reuses counts, never a node's section checks
    with pytest.raises(InconsistentInput):
        enumerate_all_r1(Params(p=2, m=18, r=1), mode="count")


@pytest.mark.parametrize("direction", ["backward", "forward"])
@pytest.mark.parametrize("p,m", R3_INSTANCES)
def test_r3_count_counts_each_interval_once(monkeypatch, p, m, direction):
    params = Params(p=p, m=m, r=3)
    stream = sum(
        1 for _ in enumerate_all_r3(params, mode="stream", direction=direction)
    )
    bounds, counted = [], []
    _spy(monkeypatch, slicing, f"{direction}_bounds", bounds)
    _spy(monkeypatch, slicing, "count_interval", counted)
    assert enumerate_all_r3(params, mode="count", direction=direction) == stream
    last = 0 if direction == "backward" else params.n
    keys = [pair for (i, _, _), pair in bounds if i == last]
    assert len(counted) == len(set(keys)) < len(keys)
    assert [args for args, _ in counted] == list(dict.fromkeys(keys))


def test_each_search_starts_with_empty_memos(monkeypatch):
    counted = []
    _spy(monkeypatch, slicing, "count_interval", counted)
    _spy(monkeypatch, symmetric, "count_layer_sym", counted)

    def search(inst):
        counted.clear()
        p, m, r = inst
        engine = enumerate_all_r1 if r == 1 else enumerate_all_r3
        found = engine(Params(p=p, m=m, r=r), mode="count")
        memos = ideal_transport.cache_info(), transport_upper_bound.cache_info()
        return found, len(counted), memos

    a, b = (2, 9, 1), (2, 9, 3)
    first_a = search(a)
    first_b = search(b)
    assert first_a[0] == 87 and first_b[0] == 38562
    # the same answers, count calls and memo statistics as the first time:
    # cache_clear resets the statistics, so none of them saw an earlier search
    assert search(a) == first_a
    assert search(b) == first_b
    for info in first_a[2] + first_b[2]:
        assert info.hits > 0
