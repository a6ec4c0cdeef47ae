"""Command-line surface: outputs, exit codes, sharding, round trips."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from coneideal import cli
from coneideal.cli import EXIT_BROKEN_PIPE, _engine, main, points_renderer
from coneideal.render import ascii_layers, svg_cubes
from coneideal.order import Params, rotate
from coneideal.slicing import layer_points, layers_to_points, square_host, stack_points
from coneideal.symmetric import (
    SymLayerSequence,
    assembled_points,
    enumerate_all_r1,
    shell_points,
)
from coneideal.walks import empty_walk, full_walk

from conftest import EXAMPLE_DEFINING, EXAMPLE_IDEAL
from oracle import layer_counts, walk_to_obj


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"points": [list(q) for q in sorted(EXAMPLE_IDEAL)]}))
    return str(path)


class TestEnumerate:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("--p", "2", "--m", "3", "--r", "3"), "20"),
            (("--p", "2", "--m", "3", "--r", "1"), "5"),
            (("--p", "3", "--m", "3", "--r", "3"), "980"),
        ],
    )
    def test_count_only(self, capsys, argv, expected):
        code, out, _ = run(capsys, "enumerate", *argv, "--count-only")
        assert code == 0
        assert out.strip() == expected

    def test_r3_count_past_the_node_search(self, capsys):
        # the transfer-matrix count: the per-node search took about 16 s
        start = time.process_time()
        code, out, _ = run(
            capsys, "enumerate", "--p", "2", "--m", "12", "--r", "3", "--count-only"
        )
        assert (code, out) == (0, "8657670\n")
        assert time.process_time() - start < 10

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--p", "4", "--m", "3", "--count-only"
        )
        assert code == 2
        assert "prime" in err

    def test_jsonl_stream_r3(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "2", "--m", "3", "--r", "3")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 20
        for rec in lines:
            assert rec["p"] == 2 and rec["m"] == 3 and rec["r"] == 3
            assert len(rec["layers"]) == 2
            assert all(set(w) == {"host", "points"} for w in rec["layers"])

    def test_jsonl_stream_r3_with_points(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--p", "2", "--m", "3", "--r", "3", "--format", "points",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 20
        for rec in lines:
            expanded = {tuple(q) for q in rec["points"]}
            total = sum(len(w["points"]) >= 0 for w in rec["layers"])
            assert total == 2
            assert all(len(q) == 3 for q in expanded)

    def test_jsonl_stream_r1_with_points(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--p", "2", "--m", "3", "--r", "1", "--format", "points",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 5
        sizes = sorted(len(rec["points"]) for rec in lines)
        assert sizes[0] == 0 and sizes[-1] == 8

    def test_shard_union(self, capsys):
        whole = run(capsys, "enumerate", "--p", "2", "--m", "6", "--r", "3")[1]
        parts = []
        for idx in range(4):
            parts.extend(
                run(
                    capsys,
                    "enumerate", "--p", "2", "--m", "6", "--r", "3",
                    "--shards", "4", "--shard", str(idx),
                )[1].splitlines()
            )
        assert sorted(parts) == sorted(whole.splitlines())

    def test_bad_shard_index(self, capsys):
        for shards, shard in (("2", "5"), ("-2", "5"), ("1", "3")):
            code, out, err = run(
                capsys,
                "enumerate", "--p", "2", "--m", "3", "--shards", shards,
                "--shard", shard, "--count-only",
            )
            assert code == 2, (shards, shard)
            assert out == ""
            assert "shard" in err

    def test_emit_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.jsonl"
        code, out, _ = run(
            capsys,
            "enumerate", "--p", "2", "--m", "3", "--r", "1", "--emit", str(target),
        )
        assert code == 0 and out == ""
        assert len(target.read_text().splitlines()) == 5

    def test_emit_spans_many_buffer_flushes(self, capsys, tmp_path):
        # the pinned (2,9,3) stream is 11.6 MB, many times the --emit buffer
        target = tmp_path / "out.jsonl"
        code, out, _ = run(
            capsys,
            "enumerate", "--p", "2", "--m", "9", "--r", "3", "--emit", str(target),
        )
        assert code == 0 and out == ""
        data = target.read_bytes()
        assert len(data) > 8 * cli.EMIT_BUFFER
        assert data.count(b"\n") == 38562
        assert hashlib.sha256(data).hexdigest() == (
            "bf95e172d5d6875d823ecf50a24817fd7d7f81df875291a1cd1110a223d63be8"
        )

    @pytest.mark.parametrize("p,m,r", [(2, 15, 1), (2, 9, 3)])
    def test_walk_texts_equal_json_dumps(self, p, m, r):
        params = Params(p=p, m=m, r=r)
        search, _, _ = _engine(params)
        walks = {w for leaf in search(params, mode="stream") for w in leaf}
        host = square_host(params.n)
        walks |= {empty_walk(host, p), full_walk(host, p)}
        assert len(walks) > 50  # 305 at (2,15,1), 55 at (2,9,3)
        for w in walks:
            assert w.json_text == json.dumps(walk_to_obj(w))

    def test_count_only_emit_to_file(self, capsys, tmp_path):
        target = tmp_path / "count.txt"
        code, out, _ = run(
            capsys,
            "enumerate", "--p", "2", "--m", "3", "--r", "3", "--count-only",
            "--emit", str(target),
        )
        assert (code, out) == (0, "")
        assert target.read_text() == "20\n"

    def test_count_only_unwritable_emit_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "count.txt"
        code, out, err = run(
            capsys,
            "enumerate", "--p", "2", "--m", "3", "--r", "3", "--count-only",
            "--emit", str(target),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot write {target}: ")

    def test_engine_consistency_failure_exit_5(self, capsys):
        # the r = 1 engine stops with InconsistentInput at (2, 18, 1): a
        # fault of the engine, not of the parameters
        code, out, err = run(
            capsys, "enumerate", "--p", "2", "--m", "18", "--r", "1", "--count-only"
        )
        assert (code, out) == (5, "")
        assert err == (
            "internal consistency check failed: "
            "section 1 heights [5, 5, 5, 4, 4, 4] are not an ideal\n"
        )


# Canonical streams: (p, m, r, lines, jsonl sha256, points sha256) of
# `coneideal enumerate` stdout.  Any change to the enumeration order, the walk
# encoding or the point expansion shows here.
CANONICAL_STREAMS = [
    (2, 3, 3, 20,
     "ee6371e0fe8ccfae0bfe9d0a453c47be796ac5578c4402f030229be0da7a277b",
     "f99617d03d1e1395c46fb288c64bac7fc72b72cee6e82b8e851c6e74cd803f93"),
    (2, 6, 3, 494,
     "4a207e9919ee3992abc024b5b45bfd6c5329444a30f3711f2c43873e98f0984e",
     "2833090e2b15b54b1dc1fb8fbecced9741d7bcfda8394a2530a162260d763f69"),
    (3, 3, 3, 980,
     "8f9303a170ac7b84974c012784258bf4b2cb016b863dd0978dc1369b98581e18",
     "19f1ba2affdad416bacc3ac9340a189254e8cc988c5e118d8f3db210bae35b27"),
    (2, 3, 1, 5,
     "7d3a3dbeee826238c03e5db474ac316af050e7a936d1c81133d303bb531f688a",
     "218476a444b192e0da715775204de72f5a5b3c02c622103ce6790bd17a2fdf30"),
    (2, 6, 1, 20,
     "816a293cb038ecaa1713fcef0f2d1b6a64d9701a74869ee86a59c38e8b6faf05",
     "5ca181856bb97f34cdbb10cdc4dd7629f9d95e2e900d4fb63ebd7c09c190bde7"),
    (2, 9, 1, 87,
     "e8626d1cb24cbb9b24cefea7409479ff55cade06176af9d5eeabef4333936d7d",
     "f642fe3d1d628efb9b59ce599996d99c3a23d56f32b5be2e90fa8fab9f56985f"),
    (2, 12, 1, 564,
     "5c32185e342797700a6e81bc148ee2cd9864a5785a97dc753bc97a7d263146a4",
     "6758c2c6128ec0628062dd8d23ee21d39657bc17426e83a449e0c1638526226b"),
    (3, 3, 1, 20,
     "5bad751da79332fa4c506bdcc72b8e8c1ea0835e774770f313de38e5e40d3697",
     "8611dfd864fc0c811f8a51d4182915f162308aaf24c8167058c9eb1a0d045f53"),
    (3, 6, 1, 1256,
     "357a046de0a2f633e6707c9f1e7076d4b8d4e0f4e6282921481d80e66f6b6f4d",
     "3d58a77247f9e0281547d46b44c9f1c26bc5f36c3bb07746c9288d5facee8086"),
    (5, 3, 1, 1452,
     "7724117b7892bfa973677b08b79bc1b624874d2e392049463381e7c35c9f4d0f",
     "7f30dd8d3c49416c882ac76f692085e072f060df28bd5b8e244916d25f65f488"),
]


@pytest.mark.parametrize("fmt", ["jsonl", "points"])
@pytest.mark.parametrize(
    "p,m,r,lines,jsonl_sha,points_sha",
    CANONICAL_STREAMS,
    ids=[f"p{c[0]}-m{c[1]}-r{c[2]}" for c in CANONICAL_STREAMS],
)
def test_canonical_stream(capsys, p, m, r, lines, jsonl_sha, points_sha, fmt):
    code, out, _ = run(
        capsys, "enumerate", "--p", str(p), "--m", str(m), "--r", str(r),
        "--format", fmt,
    )
    assert code == 0
    data = out.encode()
    assert data.count(b"\n") == lines
    expected = jsonl_sha if fmt == "jsonl" else points_sha
    assert hashlib.sha256(data).hexdigest() == expected


# (p, m, r, shards) streams whose assembled lines are compared with the
# dict records the stream encodes; the canonical sha256s above cover only
# unsharded streams.
RECORD_STREAMS = [
    (2, 6, 1, None), (3, 3, 3, None), (5, 3, 1, None), (2, 9, 3, (1, 4)),
    (3, 6, 1, (1, 4)),
    # too few nodes above the leaves: the split is among the last level's
    # (node, walk) pairs, and a node's listing may span two shards
    (2, 3, 1, (1, 3)), (2, 3, 3, (5, 7)),
]


@pytest.mark.parametrize("fmt", ["jsonl", "points"])
@pytest.mark.parametrize(
    "p,m,r,shards", RECORD_STREAMS, ids=[f"p{c[0]}-m{c[1]}-r{c[2]}" for c in RECORD_STREAMS]
)
def test_lines_equal_encoded_records(capsys, p, m, r, shards, fmt):
    argv = ["enumerate", "--p", str(p), "--m", str(m), "--r", str(r), "--format", fmt]
    if shards is not None:
        argv += ["--shard", str(shards[0]), "--shards", str(shards[1])]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    params = Params(p=p, m=m, r=r)
    search, key, _ = _engine(params)

    def to_points(walks):  # the whole-stack point set, not the CLI's layer lists
        if r == 3:
            return layers_to_points(walks)
        return assembled_points(SymLayerSequence(params, walks))

    expected = []
    for walks in search(params, mode="stream", shards=shards):
        rec = {"p": p, "m": m, "r": r, key: [walk_to_obj(w) for w in walks]}
        if fmt == "points":
            rec["points"] = sorted(to_points(walks))
        expected.append(json.dumps(rec))
    assert out.splitlines() == expected
    assert out.endswith("\n")


# The canonical streams have n <= 4, so they see only one-digit coordinates.
def test_points_text_two_digit_coordinates_r1():
    params = Params(p=11, m=3, r=1)  # n = 10
    render = points_renderer(params.n, shell_points)
    stacks = list(itertools.islice(enumerate_all_r1(params, mode="stream"), 30))
    assert len(stacks) == 30
    for walks in stacks:  # a group of r = 1 stacks differs in the last shell
        (text,) = render(walks[:-1], walks[-1:], ())
        assert text == json.dumps(sorted(stack_points(walks, shell_points)))


def test_points_text_every_box_point():
    params = Params(p=11, m=3, r=3)  # n = 10
    full = full_walk(square_host(params.n), params.p)
    walks = (full,) * (params.n + 1)
    expected = json.dumps(sorted(stack_points(walks, layer_points)))
    assert len(json.loads(expected)) == 11 ** 3
    render = points_renderer(params.n, layer_points)
    for j in range(params.n + 1):  # the new layer of a group in any place
        assert list(render(walks[:j], walks[j : j + 1], walks[j + 1 :])) == [expected]


def test_reader_closing_the_pipe_exits_quietly():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "coneideal.cli",
         "enumerate", "--p", "2", "--m", "9", "--r", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b'{"p": 2, "m": 9, "r": 3, ')
    proc.stdout.close()  # the stream is far longer than a pipe buffer
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["enumerate", "defining-set", "render"])
def test_unwritable_emit_exit_2(capsys, tmp_path, example_file, command):
    target = tmp_path / "missing" / "out.txt"
    argv = [command, "--p", "3", "--m", "6", "--r", "1", "--emit", str(target)]
    if command != "enumerate":
        argv.append(example_file)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"cannot write {target}: ")
    assert "Traceback" not in err
    assert out == "" and not target.parent.exists()


class TestDefiningSet:
    def test_worked_example(self, capsys, example_file):
        code, out, _ = run(
            capsys, "defining-set", "--p", "3", "--m", "6", "--r", "1", example_file
        )
        assert code == 0
        lines = out.split()
        assert lines[0] == "42"
        assert [int(v) for v in lines[1:]] == EXAMPLE_DEFINING

    def test_empty_ideal(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"points": []}))
        code, out, _ = run(
            capsys, "defining-set", "--p", "2", "--m", "3", "--r", "1", str(path)
        )
        assert code == 0
        assert out.split()[0] == "0"

    @pytest.mark.parametrize(
        "points",
        [[[1, 0, 0]], [[0, 0, 0], [5, 0, 0]]],
        ids=["not-closed", "outside-box"],
    )
    @pytest.mark.parametrize("command", ["defining-set", "render", "verify"])
    def test_non_ideal_exit_4(self, capsys, tmp_path, command, points):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": points}))
        flag = ["--ideal"] if command == "verify" else []
        code, out, err = run(
            capsys, command, "--p", "2", "--m", "3", "--r", "1", *flag, str(path)
        )
        assert code == 4
        assert "not an invariant ideal" in err
        assert out == ""

    @pytest.mark.parametrize("kind", ["garbage", "missing", "float", "bool"])
    @pytest.mark.parametrize("command", ["defining-set", "render", "verify"])
    def test_unparseable_exit_2(self, capsys, tmp_path, command, kind):
        path = tmp_path / "ideal.json"
        if kind == "garbage":
            path.write_text('{"points": [[0, 0, ')
        elif kind == "float":
            # int() would truncate this to the origin, an ideal
            path.write_text(json.dumps({"points": [[0.9, 0, 0]]}))
        elif kind == "bool":
            path.write_text(json.dumps({"points": [[False, False, False]]}))
        flag = ["--ideal"] if command == "verify" else []
        code, out, err = run(
            capsys, command, "--p", "2", "--m", "3", "--r", "1", *flag, str(path)
        )
        assert code == 2
        assert "cannot parse" in err
        assert out == ""

    def test_scan_cap_suppresses_list_keeps_count(self, capsys, example_file):
        code, out, err = run(
            capsys, "defining-set", "--p", "3", "--m", "6", "--r", "1",
            "--cap-scan", "10", example_file,
        )
        assert code == 0
        assert out.split() == ["42"]
        assert "suppressed" in err


class TestVerify:
    def test_all_pass_small(self, capsys):
        code, out, err = run(capsys, "verify", "--p", "2", "--m", "3", "--r", "1")
        assert code == 0
        assert out.count("PASS") == 5
        assert "5/5 PASS" in err

    def test_single_ideal(self, capsys, example_file):
        code, out, _ = run(
            capsys, "verify", "--p", "3", "--m", "6", "--r", "1",
            "--ideal", example_file,
        )
        assert code == 0
        assert "PASS" in out and "defining=42" in out

    def test_mutant_exit_4(self, capsys, tmp_path):
        broken = sorted(EXAMPLE_IDEAL - {(3, 0, 0)})
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps({"points": [list(q) for q in broken]}))
        code, out, err = run(
            capsys, "verify", "--p", "3", "--m", "6", "--r", "1",
            "--ideal", str(path),
        )
        assert code == 4
        assert "not an invariant ideal" in err
        assert out == ""

    def test_failed_check_exit_5(self, capsys, monkeypatch, example_file):
        monkeypatch.setattr(cli, "verify_invariance", lambda spec, gens: False)
        code, out, err = run(
            capsys, "verify", "--p", "3", "--m", "6", "--r", "1",
            "--ideal", example_file,
        )
        assert code == 5
        assert out.startswith("0\tFAIL\t") and "invariant=NO" in out
        assert "0/1 PASS" in err

    def test_all_pass_degree_three_m6(self, capsys):
        code, out, err = run(capsys, "verify", "--p", "2", "--m", "6", "--r", "3")
        assert code == 0
        assert out.count("PASS") == 494
        assert "494/494 PASS" in err

    def test_streamed_layers_built_once(self, capsys, monkeypatch):
        calls = []

        def counted(j, w):
            calls.append((j, w))
            return shell_points(j, w)

        monkeypatch.setattr(cli, "shell_points", counted)
        code, out, _ = run(capsys, "verify", "--p", "3", "--m", "3", "--r", "1")
        assert code == 0 and out.count("PASS") == 20
        assert len(calls) == len(set(calls)) < 20 * 3

    def test_cap_exit_3(self, capsys):
        code, _, err = run(
            capsys, "verify", "--p", "3", "--m", "6", "--r", "1",
            "--cap-field", "100",
        )
        assert code == 3
        assert "cap" in err

    def test_subfield_table_cap_exit_3_before_listing(self, capsys):
        # GF(17^3) tables hold 17^6 > 2^24 entries: refused before the
        # engine lists a single ideal of the n = 16 box
        code, out, err = run(capsys, "verify", "--p", "17", "--m", "3", "--r", "3")
        assert (code, out) == (3, "")
        assert "tables exceed" in err

    def test_field_cap_exit_3_before_reading_ideal(self, capsys, monkeypatch, tmp_path):
        # the n = 210 box: reading and checking an ideal there peaks near
        # 0.5 GB, so both caps come first and the file is never read
        def unread(path, params):
            raise AssertionError("ideal read before the caps")

        monkeypatch.setattr(cli, "_load_invariant_ideal", unread)
        path = tmp_path / "origin.json"
        path.write_text(json.dumps({"points": [[0, 0, 0]]}))
        code, out, err = run(
            capsys, "verify", "--p", "211", "--m", "3", "--r", "1", "--ideal", str(path)
        )
        assert (code, out) == (3, "")
        assert err.strip() == "field size 9393931 exceeds cap 1048576"

    @pytest.mark.parametrize(
        "p,r,sha",
        [
            ("3", "1",
             "0bda9f463aaa8e34f124affb3f25799018f9e12fe1be7b78d476949ba3bd5f9a"),
            ("2", "3",
             "dbf00a2d2170d07c17465fa172055de87e596d159dd842fedb51e3b4d6b3dcb5"),
        ],
    )
    def test_pinned_report(self, capsys, p, r, sha):
        code, out, err = run(capsys, "verify", "--p", p, "--m", "3", "--r", r)
        assert code == 0
        assert out.count("\n") == 20
        assert hashlib.sha256(out.encode()).hexdigest() == sha
        assert err.strip() == "20/20 PASS"


class TestRender:
    def test_ascii_layer_counts(self, capsys, example_file, example_params):
        code, out, _ = run(
            capsys, "render", "--p", "3", "--m", "6", "--r", "1", example_file
        )
        assert code == 0
        assert layer_counts(EXAMPLE_IDEAL, example_params.n) == [8, 4, 1, 1, 0]
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 5
        assert [b.count("#") for b in blocks] == [8, 4, 1, 1, 0]

    def test_empty_frame(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"points": []}))
        code, out, _ = run(
            capsys, "render", "--p", "2", "--m", "3", "--r", "1", str(path)
        )
        assert code == 0
        assert "#" not in out

    def test_emit_to_file(self, capsys, tmp_path, example_file):
        argv = ("render", "--p", "3", "--m", "6", "--r", "1", "--render", "svg")
        code, expected, _ = run(capsys, *argv, example_file)
        assert code == 0 and not sys.stdout.closed
        target = tmp_path / "ideal.svg"
        code, out, _ = run(capsys, *argv, "--emit", str(target), example_file)
        assert code == 0 and out == ""
        assert target.read_text() == expected

    def test_svg_deterministic(self, example_params):
        a = svg_cubes(EXAMPLE_IDEAL, example_params)
        b = svg_cubes(EXAMPLE_IDEAL, example_params)
        assert a == b
        assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
        assert a.count("<polygon") == 3 * len(EXAMPLE_IDEAL)

    def test_rotation_relabels_layers(self, example_params):
        rotated = frozenset(rotate(q) for q in EXAMPLE_IDEAL)
        art = ascii_layers(rotated, example_params)
        # the rotated drawing is the drawing of the relabelled point set
        assert art == ascii_layers(
            frozenset((y, z, x) for (x, y, z) in EXAMPLE_IDEAL), example_params
        )
        # and membership grids per layer match the rotated sections
        n = example_params.n
        for z in range(n + 1):
            sec = {(x, y) for (x, y, zz) in rotated if zz == z}
            assert sec == {(y, zz) for (x, y, zz) in EXAMPLE_IDEAL if x == z}


@pytest.mark.parametrize(
    "command,option",
    [
        ("enumerate", "--cap-field"),
        ("enumerate", "--cap-scan"),
        ("defining-set", "--cap-field"),
        ("verify", "--emit"),
        ("verify", "--cap-scan"),
        ("render", "--cap-field"),
        ("render", "--cap-scan"),
    ],
)
def test_option_the_command_does_not_read(capsys, example_file, command, option):
    # each command takes only the options it reads; any other is a usage error
    ideal = [example_file] if command in ("defining-set", "render") else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--p", "3", "--m", "6", "--r", "1", option, "10", *ideal])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


class TestRoundTrip:
    def test_stream_walks_parse_back(self, capsys):
        from oracle import walk_from_obj, validate_walk

        code, out, _ = run(capsys, "enumerate", "--p", "3", "--m", "3", "--r", "1")
        assert code == 0
        for line in out.splitlines():
            rec = json.loads(line)
            for i, obj in enumerate(rec["sym_layers"]):
                w = walk_from_obj(obj, rec["p"])
                assert validate_walk(w.host, w.p, w.points)
                assert w.host.b == i  # shell hosts grow with the index

    def test_enumerated_ideals_feed_other_commands(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "enumerate", "--p", "2", "--m", "3", "--r", "1", "--format", "points",
        )
        assert code == 0
        for idx, line in enumerate(out.splitlines()):
            rec = json.loads(line)
            path = tmp_path / f"ideal{idx}.json"
            path.write_text(json.dumps({"points": rec["points"]}))
            c1, _, _ = run(
                capsys, "defining-set", "--p", "2", "--m", "3", "--r", "1", str(path)
            )
            c2, _, _ = run(
                capsys, "verify", "--p", "2", "--m", "3", "--r", "1",
                "--ideal", str(path),
            )
            c3, _, _ = run(
                capsys, "render", "--p", "2", "--m", "3", "--r", "1", str(path)
            )
            assert (c1, c2, c3) == (0, 0, 0)
