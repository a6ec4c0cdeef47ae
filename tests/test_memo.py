"""Search-scoped memos: the listing and count memos of
``slicing.depth_first`` and the transport memos of ``coneideal.walks``.

A count must equal the length of the matching stream.  Each distinct
interval key is listed exactly once per stream and each distinct
last-level key counted exactly once per count; equal listed walks are one
object.  A key is a function of a node's window alone (the neighbouring
layers for r = 3, the last p cross sections for r = 1) and is computed
once per distinct (level, window).  Streams and r = 1 counts still visit,
and for r = 1 build and check, every node; an r = 3 count carries only
the number of nodes of each window and builds no node below the levels a
sharded search expands.  The memos live for one search: answers do not
depend on what ran before, every search starts with empty transport
memos, and no walk a search built (with its cached JSON text) outlives it.
"""

import collections
import gc
from functools import partial
from pathlib import Path

import pytest

from coneideal import slicing, symmetric
from coneideal.errors import InconsistentInput
from coneideal.order import Params
from coneideal.slicing import enumerate_all_r3
from coneideal.symmetric import enumerate_all_r1
from coneideal.walks import (
    TRANSPORT_MEMOS,
    Walk,
    ideal_transport,
    transport_upper_bound,
)

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


@pytest.mark.parametrize("mode", ["count", "stream"])
@pytest.mark.parametrize("p,m", [(3, 6), (2, 15)])
def test_r1_search_builds_each_section_once(monkeypatch, p, m, mode):
    # a new section s < i is a function of (old section s, J_i[s], c_s),
    # c_s = #{x : J_i[x] >= s} - 1, and section i of the layer alone
    params = Params(p=p, m=m, r=1)
    expected = enumerate_all_r1(params, mode="count")
    keys, built = [], []
    real_step = symmetric._with_shell

    def step(sections, w, memo):
        hs = w.hs
        for s in range(len(sections)):
            keys.append((sections[s], hs[s], sum(h >= s for h in hs) - 1))
        keys.append((w,))
        return real_step(sections, w, memo)

    monkeypatch.setattr(symmetric, "_with_shell", step)
    _spy(monkeypatch, symmetric, "walk_from_heights", built)
    found = enumerate_all_r1(params, mode=mode)
    assert (found if mode == "count" else sum(1 for _ in found)) == expected
    assert len(built) == len(set(keys)) < len(keys)


def test_failed_sections_raise_every_time():
    # a key that raises is not stored, so every node that reaches it
    # raises again with its own message
    from test_symmetric import _defect_stack

    stack = _defect_stack(6)
    message = "section 1 heights [5, 5, 5, 4, 4, 4] are not an ideal"
    for _ in range(2):
        with pytest.raises(InconsistentInput) as info:
            symmetric.accumulated_walks(stack, 6)
        assert str(info.value) == message
    # one memo across steps, as in a search: only section 0 is stored
    sections, built = tuple(symmetric.accumulated_walks(stack, 5)), {}
    for _ in range(2):
        with pytest.raises(InconsistentInput) as info:
            symmetric._with_shell(sections, stack.walks[5], built)
        assert str(info.value) == message
    assert len(built) == 1


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


def _r3_window(node, p, direction):
    """The assigned layers the bounds of the next layer read: a node holds
    layers i+1..n (backward) or 0..i-1 (forward) in z order."""
    return node[:p] if direction == "backward" else node[-p:]


def _spy_children(monkeypatch, record):
    """Rebind slicing.depth_first so that every child the search builds,
    ``child(depth, node, w)``, is appended to record as (depth, child)."""
    real = slicing.depth_first

    def first(root, last, interval, choices, child, *rest):
        def spied(depth, node, w):
            kid = child(depth, node, w)
            record.append((depth, kid))
            return kid

        return real(root, last, interval, choices, spied, *rest)

    monkeypatch.setattr(slicing, "depth_first", first)


def _r3_nodes(monkeypatch, params, direction, mode="stream"):
    """Run a search and tally its nodes and their distinct windows per
    layer, from the child step: ``child(depth, node, w)`` builds a node of
    the layer after the one it assigns, i - 1 or i + 1."""
    children = []
    _spy_children(monkeypatch, children)
    found = enumerate_all_r3(params, mode=mode, direction=direction)
    if mode == "stream":
        found = sum(1 for _ in found)
    root = params.n if direction == "backward" else 0
    nodes, windows = collections.Counter({root: 1}), collections.defaultdict(set)
    windows[root].add(())
    step = -1 if direction == "backward" else 1
    for depth, node in children:
        i = root + step * (depth + 1)
        if 0 <= i <= params.n:
            nodes[i] += 1
            windows[i].add(_r3_window(node, params.p, direction))
    monkeypatch.undo()
    return found, nodes, windows, len(children)


@pytest.mark.parametrize("direction", ["backward", "forward"])
@pytest.mark.parametrize("p,m", R3_INSTANCES)
def test_r3_count_bounds_once_per_window(monkeypatch, p, m, direction):
    # the bounds of layer i read only the p layers next to it on the
    # assigned side, so the count computes them once per distinct window
    params = Params(p=p, m=m, r=3)
    stream, nodes, windows, _ = _r3_nodes(monkeypatch, params, direction)
    bounds = []
    _spy(monkeypatch, slicing, f"{direction}_bounds", bounds)
    assert enumerate_all_r3(params, mode="count", direction=direction) == stream
    calls = collections.Counter(i for (i, _, _), _ in bounds)
    assert calls == {i: len(held) for i, held in windows.items()}
    # at p = 3, n = 2 a window is the whole assigned stack: nothing merges
    last = 0 if direction == "backward" else params.n
    merged = {(2, 9): (735, 6237), (3, 3): (175, 175)}[p, m]
    assert (calls[last], nodes[last]) == merged


@pytest.mark.parametrize("direction", ["backward", "forward"])
@pytest.mark.parametrize("p,m", R3_INSTANCES)
def test_r3_stream_bounds_once_per_window(monkeypatch, p, m, direction):
    # a stream visits every node but looks its listing up by window
    params = Params(p=p, m=m, r=3)
    stream, nodes, windows, _ = _r3_nodes(monkeypatch, params, direction)
    bounds = []
    _spy(monkeypatch, slicing, f"{direction}_bounds", bounds)
    found = enumerate_all_r3(params, mode="stream", direction=direction)
    assert sum(1 for _ in found) == stream
    calls = collections.Counter(i for (i, _, _), _ in bounds)
    assert calls == {i: len(held) for i, held in windows.items()}
    # the nodes above the leaves; at p = 3, n = 2 each is its own window
    visited = {(2, 9): (1526, 7028), (3, 3): (196, 196)}[p, m]
    assert (sum(calls.values()), sum(nodes.values())) == visited


@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_r3_count_builds_no_nodes(monkeypatch, direction):
    # the merged count carries window -> multiplicity and moves it with the
    # slide alone: no child is built for any of the 157 806 children
    params = Params(p=2, m=12, r=3)
    found, _, _, calls = _r3_nodes(monkeypatch, params, direction, "count")
    assert (found, calls) == (8657670, 0)
    # a sharded count builds the nodes of the breadth-first expansion, each
    # level whole, up to the first level of at least 4 * total nodes
    params = Params(p=2, m=9, r=3)
    _, nodes, _, _ = _r3_nodes(monkeypatch, params, direction)
    step = -1 if direction == "backward" else 1
    root = params.n if direction == "backward" else 0
    counts, built = [], collections.Counter()
    for index in range(4):
        kids = []
        _spy_children(monkeypatch, kids)
        counts.append(enumerate_all_r3(params, "count", direction, shards=(index, 4)))
        monkeypatch.undo()
        built.update(root + step * (depth + 1) for depth, _ in kids)
    assert sum(counts) == 38562
    levels = [root + step * k for k in range(1, 1 + len(built))]
    assert sorted(built) == sorted(levels)
    assert all(built[i] == 4 * nodes[i] for i in levels)
    assert [nodes[i] >= 16 for i in levels] == [False] * (len(levels) - 1) + [True]


def _short_windows(monkeypatch, module, cut):
    """Rebind module.depth_first so that every window, and every window a
    slide makes, is the slice ``cut`` of the engine's: one layer short."""
    real = module.depth_first

    def first(*args):
        window, slide = args[8], args[9] if len(args) > 9 else None

        def short_window(depth, state):
            return window(depth, state)[cut]

        def short_slide(depth, win, w):
            return slide(depth, win, w)[cut]

        rest = (short_window, short_slide) if slide else (short_window,)
        return real(*args[:8], *rest)

    monkeypatch.setattr(module, "depth_first", first)


@pytest.mark.parametrize(
    "engine,direction",
    [("r3", "backward"), ("r3", "forward"), ("r1", None)],
)
@pytest.mark.parametrize("mode", ["count", "stream"])
def test_short_window_raises(monkeypatch, engine, direction, mode):
    # the bounds see a node only through its window, so a window that
    # leaves out the layer farthest from the node fails loudly instead of
    # merging or sharing the keys of nodes that differ there
    if engine == "r3":
        # a backward window lists the nearest layer first, a forward one last
        cut = slice(-1) if direction == "backward" else slice(1, None)
        _short_windows(monkeypatch, slicing, cut)
        search = partial(enumerate_all_r3, Params(p=2, m=9, r=3), mode, direction)
    else:
        _short_windows(monkeypatch, symmetric, slice(1, None))
        search = partial(enumerate_all_r1, Params(p=2, m=12, r=1), mode)
    with pytest.raises((IndexError, AttributeError)) as raised:
        found = search()
        if mode == "stream":
            sum(1 for _ in found)
    # the error comes from the bounds reading past the window, not from the
    # wrappers above: from the bounds function inward, every frame is the
    # package's
    frames = [(Path(str(entry.path)), entry.name) for entry in raised.traceback]
    bounds = {"backward_bounds", "forward_bounds", "symmetric_bounds"}
    start = next((i for i, (_, name) in enumerate(frames) if name in bounds), None)
    assert start is not None, frames
    package = Path(slicing.__file__).parent
    assert all(path.parent == package for path, _ in frames[start:]), frames


def _r1_nodes(monkeypatch, params, mode):
    """Run a search and tally its bounds calls, its section steps and the
    distinct (depth, window) pairs of the nodes the steps built."""
    p = params.p
    bounds, steps = [], []
    _spy(monkeypatch, symmetric, "symmetric_bounds", bounds)
    _spy(monkeypatch, symmetric, "_with_shell", steps)
    found = enumerate_all_r1(params, mode=mode)
    if mode == "stream":
        found = sum(1 for _ in found)
    windows = {(0, ())} | {
        (len(cum), cum[max(0, len(cum) - p) :]) for _, cum in steps
    }
    monkeypatch.undo()
    return found, bounds, len(steps), windows


@pytest.mark.parametrize("p,m", R1_INSTANCES)
def test_r1_stream_bounds_once_per_window(monkeypatch, p, m):
    params = Params(p=p, m=m, r=1)
    count = enumerate_all_r1(params, mode="count")
    found, bounds, steps, windows = _r1_nodes(monkeypatch, params, "stream")
    assert found == count
    keys = [(i, tuple(cum[max(0, i - p) :])) for (i, cum, _), _ in bounds]
    assert len(keys) == len(set(keys)) <= steps + 1
    assert set(keys) == windows
    # with n <= p a window is all the sections below: nothing to share
    assert (len(keys) < steps + 1) == (p < params.n)


def test_r1_count_bounds_once_per_window(monkeypatch):
    # (3,9,1): the count looks up every node's listing, and at the last
    # level its count, by window, yet builds the sections of all 20 765
    # nodes but the root
    params = Params(p=3, m=9, r=1)
    found, bounds, steps, windows = _r1_nodes(monkeypatch, params, "count")
    assert found == 479444  # the known-wrong pin of ROADMAP item 1
    assert (len(bounds), steps) == (16511, 20764)
    assert len(windows) == len(bounds)


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



@pytest.mark.parametrize("direction", ["backward", "forward"])
@pytest.mark.parametrize("p,m", R3_INSTANCES)
def test_r3_stream_lists_each_interval_once(monkeypatch, p, m, direction):
    params = Params(p=p, m=m, r=3)
    count = enumerate_all_r3(params, mode="count", direction=direction)
    bounds, listed = [], []
    _spy(monkeypatch, slicing, f"{direction}_bounds", bounds)
    _spy(monkeypatch, slicing, "enumerate_interval", listed)
    stream = enumerate_all_r3(params, mode="stream", direction=direction)
    assert sum(1 for _ in stream) == count
    keys = [pair for _, pair in bounds]
    assert len(listed) == len(set(keys)) < len(keys)
    assert [args for args, _ in listed] == list(dict.fromkeys(keys))


@pytest.mark.parametrize("p,m", R1_INSTANCES)
def test_r1_stream_lists_each_interval_once(monkeypatch, p, m):
    params = Params(p=p, m=m, r=1)
    count = enumerate_all_r1(params, mode="count")
    bounds, listed = [], []
    _spy(monkeypatch, symmetric, "symmetric_bounds", bounds)
    _spy(monkeypatch, symmetric, "_layer_intervals", listed)
    assert sum(1 for _ in enumerate_all_r1(params, mode="stream")) == count
    keys = [(i, *st) for (i, _, _), st in bounds]
    assert len(listed) == len(set(keys)) < len(keys)
    assert [args[:3] for args, _ in listed] == list(dict.fromkeys(keys))


def _walk_stream(inst, shards=None):
    p, m, r = inst
    engine = enumerate_all_r1 if r == 1 else enumerate_all_r3
    return engine(Params(p=p, m=m, r=r), mode="stream", shards=shards)


def _stream(inst, shards=None):
    return [tuple(w.hs for w in leaf) for leaf in _walk_stream(inst, shards)]


def test_streams_repeat_across_searches():
    a, b = (2, 9, 1), (2, 9, 3)
    first_a, first_b = _stream(a), _stream(b)
    assert (len(first_a), len(first_b)) == (87, 38562)
    assert _stream(a) == first_a
    assert _stream(b) == first_b


@pytest.mark.parametrize("inst", [(2, 12, 1), (3, 3, 3)])
def test_sharded_streams_partition_the_stream(inst):
    whole = _stream(inst)
    shards = [_stream(inst, (i, 4)) for i in range(4)]
    joined = [leaf for shard in shards for leaf in shard]
    assert all(shards)
    assert len(set(joined)) == len(joined) == len(whole)
    assert set(joined) == set(whole)


@pytest.mark.parametrize("inst", [(2, 15, 1), (2, 9, 3)])
def test_equal_walks_are_one_object(inst):
    walks = [w for leaf in _walk_stream(inst) for w in leaf]
    assert len({id(w) for w in walks}) == len(set(walks)) < len(walks)


def _live_walks():
    return sum(type(obj) is Walk for obj in gc.get_objects())


@pytest.mark.parametrize("inst", [(2, 12, 1), (2, 9, 3)])
def test_no_walk_outlives_its_stream(inst):
    # walks are tuples, which take no weak reference, so count the live
    # ones among the objects the collector tracks.  The module-level tables
    # are the transport memos, which the next search empties, and the reach
    # cases, which are fixed per shell.  The collector stays off, so the
    # search's memos must not sit in a reference cycle.
    def clear_module_memos():
        for memo in TRANSPORT_MEMOS:
            memo.cache_clear()
        symmetric._reach_cases.cache_clear()

    clear_module_memos()
    gc.collect()
    gc.disable()
    try:
        before = _live_walks()
        leaves = _walk_stream(inst)
        texts = [w.json_text for leaf in leaves for w in leaf]
        assert texts and _live_walks() > before
        del leaves
        clear_module_memos()
        assert _live_walks() == before
    finally:
        gc.enable()
