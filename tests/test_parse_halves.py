"""Large run, qrels and ``claims filter`` inputs are read in two halves at once: the second in a forked child.

The size and chunk constants are lowered here, so that small files take the
two-half path. ``conftest.two_cpus`` lets the child be forked on a one-CPU
machine and beside any thread a test left running. Every result and every
error must be the sequential parse's (the parse of the same bytes, which
never splits), and no child process or file descriptor may outlive a call.
``claims filter`` must write the same files and print the same lines as
its sequential run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusekit import cli, core, parse_qrels, parse_run

from conftest import assert_nothing_left, counted_forks, open_fds, two_cpus

PARSERS = {"run": parse_run, "qrels": parse_qrels}


@contextlib.contextmanager
def two_halves(middle: int | None = None):
    """Send every file of 2 bytes or more through the two-half path, split at ``middle`` if given.

    Yields the list of the children forked.
    """
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(core, "_SPLIT_MIN", 1))
        stack.enter_context(mock.patch.object(core, "_CHUNK", 1))
        made = stack.enter_context(two_cpus())
        if middle is not None:
            stack.enter_context(mock.patch.object(core, "_middle", lambda fd, start, end: middle))
        yield made


def outcome(parse, source):
    """``parse(source)``, or the type, message and line of the error it raised."""
    try:
        return parse(source)
    except (core.ParseError, core.ValidationError) as e:
        return type(e), str(e), getattr(e, "line", None)


def sequential_outcome(parse, data: bytes):
    with mock.patch.object(core, "_CHUNK", 1):
        return outcome(parse, data)


def split_outcome(parse, path: Path, middle: int | None = None):
    """``outcome`` of parsing the file at ``path`` in two halves; checks that a child ran and nothing is left."""
    fds_before = open_fds()
    with two_halves(middle) as made, open(path, "rb") as fh:
        result = outcome(parse, fh)
    assert len(made) == 1
    assert_nothing_left(fds_before)
    return result


def assert_same(split, sequential) -> None:
    assert split == sequential
    if isinstance(sequential, core.RunSet):
        assert list(split.lists) == list(sequential.lists)
        assert split.tag == sequential.tag
    elif isinstance(sequential, core.Qrels):
        assert list(split._by_query) == list(sequential._by_query)
        for qid, grades in sequential._by_query.items():
            assert list(split._by_query[qid].items()) == list(grades.items())


# ---------------------------------------------------------------------------
# any text, split at any line
# ---------------------------------------------------------------------------

qids = st.sampled_from(["q1", "q2", "q3"])
docs = st.sampled_from([f"d{i}" for i in range(12)])
gaps = st.sampled_from([" ", "  ", "\t", " \t "])
ends = st.sampled_from(["\n", "\r\n"])
blanks = st.sampled_from(["", " ", "\t "])


@st.composite
def texts(draw, kind: str) -> list[str]:
    """The lines of a run or qrels text, each with its line end: re-opened queries, blank lines, ``\\r\\n``."""
    keys = draw(st.lists(st.tuples(qids, docs), unique=True, min_size=2, max_size=24))
    lines = []
    for qid, doc in keys:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(blanks) + draw(ends))
        if kind == "run":
            score = draw(st.sampled_from(["0.5", "1", "-2", "0.25", "3e2", "0.5000000000000001"]))
            fields = [qid, "Q0", doc, str(draw(st.integers(0, 9))), score, draw(st.sampled_from(["t", "u"]))]
        else:
            fields = [qid, "0", doc, draw(st.sampled_from(["0", "1", "2", "12345678901234567890"]))]
        lines.append(draw(gaps).join(fields) + draw(ends))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # a last line with no line end
    return lines


def check_split_at(parse, lines: list[str], at: int, tmp_path: Path) -> None:
    data = "".join(lines).encode("utf-8")
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    middle = len("".join(lines[:at]).encode("utf-8"))
    assert_same(split_outcome(parse, path, middle), sequential_outcome(parse, data))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(PARSERS)))
def test_a_split_at_any_line_gives_the_sequential_result(tmp_path_factory, data, kind):
    lines = data.draw(texts(kind))
    at = data.draw(st.integers(1, len(lines) - 1))
    check_split_at(PARSERS[kind], lines, at, tmp_path_factory.mktemp("split"))


def test_a_query_in_both_halves_is_merged_in_first_appearance_order(tmp_path):
    lines = [
        "q2 Q0 d1 1 0.5 first\n", "q1 Q0 d1 1 0.25 first\n", "q2 Q0 d2 2 0.75 first\n",
        "q3 Q0 d1 1 1 second\n", "q2 Q0 d3 3 0.75 second\n", "q1 Q0 d0 2 0.25 second\n",
    ]
    check_split_at(parse_run, lines, 3, tmp_path)
    with two_halves(len("".join(lines[:3]))), open(tmp_path / "in.txt", "rb") as fh:
        run = parse_run(fh)
        assert fh.read() == b""  # left at the end, as a sequential parse leaves it
    assert list(run.lists) == ["q2", "q1", "q3"]
    assert run.tag == "first"
    assert run.lists["q2"].entries == (("d2", 0.75), ("d3", 0.75), ("d1", 0.5))


def test_a_first_half_of_blank_lines_takes_the_second_halfs_tag(tmp_path):
    check_split_at(parse_run, ["\n", " \n", "q1 Q0 d1 1 0.5 late\n"], 2, tmp_path)


@pytest.mark.parametrize("chunk", [16, 64, 100])
def test_the_first_half_ends_where_a_sequential_read_ends_a_chunk(tmp_path, chunk):
    # a sequential read decodes a whole chunk before it parses its lines, so were the first
    # half to end inside a chunk, the second half's invalid byte would be the first error
    lines = [b"q1 Q0 d%02d 1 0.5 t\n" % i for i in range(40)]
    path = tmp_path / "in.txt"
    path.write_bytes(b"".join(lines))
    with mock.patch.object(core, "_CHUNK", chunk), open(path, "rb") as fh:
        middle = core._middle(fh.fileno(), 0, path.stat().st_size)
    at = middle // len(lines[0])  # the first line of the second half
    assert middle == at * len(lines[0])
    lines[at - 1] = b"q1 Q0 d%02d 1 0.5tt\n" % (at - 1)  # five fields, in the same length
    lines[at] = b"q1 Q0 d\xff%d 1 0.5 t\n" % (at % 10)
    data = b"".join(lines)
    path.write_bytes(data)
    with mock.patch.object(core, "_CHUNK", chunk):
        sequential = outcome(parse_run, data)
    fds_before = open_fds()
    with two_halves() as made, mock.patch.object(core, "_CHUNK", chunk), open(path, "rb") as fh:
        assert outcome(parse_run, fh) == sequential
    assert sequential[::2] == (core.ParseError, at)
    assert len(made) == 1
    assert_nothing_left(fds_before)


# ---------------------------------------------------------------------------
# errors: the same type, message and line as the sequential parse
# ---------------------------------------------------------------------------

RUN_LINES = [f"q{i % 3} Q0 d{i} {i} 0.{i} t\n" for i in range(12)]
QRELS_LINES = [f"q{i % 3} 0 d{i} {i % 3}\n" for i in range(12)]
SPLIT_AT = 6  # the first line of the second half

DEFECTS = {
    "run": {
        "field-count": lambda i: f"q1 Q0 d{i} 0.5 t\n",
        "non-numeric": lambda i: f"q1 Q0 x{i} 1 high t\n",
        "inf": lambda i: f"q1 Q0 x{i} 1 inf t\n",
        "duplicate": lambda i: RUN_LINES[i - 3],  # three lines back: the same query and doc
        "utf8": lambda i: f"q1 Q0 x{i}\udcff 1 0.5 t\n",
    },
    "qrels": {
        "field-count": lambda i: f"q1 0 d{i}\n",
        "non-integer": lambda i: f"q1 0 x{i} high\n",
        "negative": lambda i: f"q1 0 x{i} -1\n",
        "duplicate": lambda i: QRELS_LINES[i - 3],
        "utf8": lambda i: f"q1 0 x{i}\udcff 1\n",
    },
}

# the lines made bad: inside the second half; on its first line, where a duplicate's first line
# is in the first half; and on both sides of the split, where the first half's error wins
PLACES = {
    "second-half": (9,),
    "first-line-of-second-half": (SPLIT_AT,),
    "last-line-of-first-half": (SPLIT_AT - 1,),
    "both-halves": (SPLIT_AT - 1, SPLIT_AT + 2),
}


@pytest.mark.parametrize("place", sorted(PLACES))
@pytest.mark.parametrize(
    "kind, defect", [(kind, defect) for kind in sorted(DEFECTS) for defect in sorted(DEFECTS[kind])]
)
def test_errors_match_the_sequential_parse(tmp_path, kind, defect, place):
    lines = list(RUN_LINES if kind == "run" else QRELS_LINES)
    for i in PLACES[place]:
        lines[i] = DEFECTS[kind][defect](i)
    data = "".join(lines).encode("utf-8", "surrogateescape")
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    middle = len("".join(lines[:SPLIT_AT]).encode("utf-8", "surrogateescape"))
    parse = PARSERS[kind]
    sequential = sequential_outcome(parse, data)
    assert sequential[0] is core.ParseError
    assert split_outcome(parse, path, middle) == sequential


# ---------------------------------------------------------------------------
# what stays sequential, and process hygiene
# ---------------------------------------------------------------------------


def test_bytes_text_pipes_one_cpu_and_threads_stay_sequential(tmp_path):
    data = b"".join(b"q1 Q0 d%d 1 0.5 t\n" % i for i in range(20))
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    expected = parse_run(data)
    with two_halves() as made:
        assert parse_run(data) == parse_run(data.decode()) == expected
        read_fd, write_fd = os.pipe()
        with open(read_fd, "rb") as pipe:
            with open(write_fd, "wb") as writer:
                writer.write(data)
            assert parse_run(pipe) == expected
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}), open(path, "rb") as fh:
            assert parse_run(fh) == expected
        with mock.patch.object(threading, "active_count", lambda: 2), open(path, "rb") as fh:
            assert parse_run(fh) == expected
        assert made == []
        with open(path, "rb") as fh:  # the same file, with two CPUs and one thread
            assert parse_run(fh) == expected
        assert len(made) == 1


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the two-half path needs two CPUs")
def test_a_large_file_forks_with_only_the_size_floor_lowered(tmp_path):
    # no thread count, CPU count or chunk size is patched: no earlier test may leave a thread
    # running, and the file spans more than two chunks, so that it has a middle
    lines = [f"q{i // 50} Q0 d{i} 1 0.5 t\n" for i in range(10_000)]
    path = tmp_path / "in.run"
    path.write_text("".join(lines))
    assert path.stat().st_size > 2 * core._CHUNK
    fds_before = open_fds()
    with mock.patch.object(core, "_SPLIT_MIN", 1), counted_forks() as made, open(path, "rb") as fh:
        assert parse_run(fh) == parse_run("".join(lines))
    assert len(made) == 1
    assert_nothing_left(fds_before)


def test_a_failing_first_half_kills_and_reaps_the_child(tmp_path):
    lines = ["q1 Q0 d1 0.5 t\n"] + [f"q1 Q0 d{i} 1 0.5 t\n" for i in range(2, 2000)]
    path = tmp_path / "bad.run"
    path.write_bytes("".join(lines).encode())
    fds_before = open_fds()
    with two_halves(len(lines[0])) as made, open(path, "rb") as fh:
        with pytest.raises(core.ParseError) as excinfo:
            parse_run(fh)
    assert excinfo.value.line == 1
    assert len(made) == 1
    assert_nothing_left(fds_before)


CHILD_SCRIPT = """
import os, sys
from fusekit import core
core._SPLIT_MIN, core._CHUNK = 1, 1024
if sys.argv[2] != "-":
    core._middle = lambda fd, start, end: int(sys.argv[2])
forks = []
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = fork
os.sched_getaffinity = lambda pid: {0, 1}
print("printed before the parse")  # stdout is a pipe, so this waits in its buffer until exit
try:
    with open(sys.argv[1], "rb") as fh:
        print("queries", len(core.parse_run(fh).lists))
except core.ParseError as e:
    print("error", e.line)
print("forks", len(forks))
"""

FIRST = [f"q{i // 3000} Q0 d{i} 1 0.5 t\n" for i in range(20000)]


@pytest.mark.parametrize(
    "lines, middle, result",
    [
        (FIRST, "-", "queries 7"),
        (FIRST[:15000] + ["q1 Q0 dX 1 high t\n"] + FIRST[15001:], "-", "error 15001"),
        # every query of the second half repeats the first half's: the merge stops at the first
        # record, and the child, blocked on a full pipe, must still end
        (FIRST + FIRST, str(len("".join(FIRST))), "error 20001"),
    ],
    ids=["parsed", "error-in-the-second-half", "halves-overlap"],
)
def test_the_child_never_flushes_what_the_parent_printed(tmp_path, lines, middle, result):
    path = tmp_path / "in.run"
    path.write_bytes("".join(lines).encode())
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(path), middle],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"printed before the parse\n{result}\nforks 1\n"
    assert done.stderr == ""


# ---------------------------------------------------------------------------
# claims filter: each half loaded, filtered and serialized on its own
# ---------------------------------------------------------------------------

PROBS = [0.9, 0.1, 0.5, 0.49, 1, 0.75, 0, 0.3, 0.6, 0.2, 0.95, 0.05]


def calibrated_line(i: int, prob=None) -> str:
    """One calibrated artifact, a note or a claim, with prob ``PROBS[i]`` unless ``prob`` is given."""
    if i % 2:
        record = {"note_id": f"n{i}", "video_id": f"v{i % 3}", "topic": "t", "text": f"note é {i}",
                  "modality": "ocr", "timestamp": f"{i}s-{i + 1}s"}
    else:
        record = {"claim_id": f"c{i}", "query_id": "q1", "video_id": "v1", "topic": "t", "claim": f"claim {i}"}
    payload = {"prob": PROBS[i] if prob is None else prob}
    if i % 3 == 0:
        payload["raw"] = {"raw_output": f"<answer>{payload['prob']}</answer>"}
    record["calibration"] = {"unli": payload, "other": {"prob": 0.5}}
    return json.dumps(record, ensure_ascii=i % 4 == 0) + "\n"


FILTER_LINES = [calibrated_line(i) for i in range(len(PROBS))]


def filter_outcome(path: Path, out: Path, threshold: str = "0.5"):
    """The exit code, stdout, stderr and output files of ``claims filter`` on ``path``, writing into ``out``."""
    out.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["claims", "filter", "--in", str(path), "--threshold", threshold,
                         "--kept", str(out / "kept.jsonl"), "--dropped", str(out / "dropped.jsonl")])
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    return code, stdout.getvalue(), stderr.getvalue(), files


def sequential_filter(path: Path, out: Path, threshold: str = "0.5"):
    with mock.patch.object(core, "_CHUNK", 1):
        return filter_outcome(path, out, threshold)


def split_filter(path: Path, out: Path, middle: int, threshold: str = "0.5"):
    """``filter_outcome`` through the two-half path; checks that a child ran and nothing is left."""
    fds_before = open_fds()
    with two_halves(middle) as made:
        result = filter_outcome(path, out, threshold)
    assert len(made) == 1
    assert_nothing_left(fds_before)
    return result


def write_lines(tmp_path: Path, lines: list[str]) -> tuple[Path, int]:
    """The path of a file holding ``lines`` and the offset of its line ``SPLIT_AT``."""
    path = tmp_path / "calibrated.jsonl"
    path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    return path, len("".join(lines[:SPLIT_AT]).encode("utf-8", "surrogateescape"))


@settings(max_examples=40, deadline=None)
@given(at=st.integers(1, len(FILTER_LINES) - 1), threshold=st.sampled_from(["0", "0.5", "0.75", "1"]))
def test_filter_output_is_the_sequential_output_at_any_split(tmp_path_factory, at, threshold):
    tmp = tmp_path_factory.mktemp("filter")
    path = tmp / "calibrated.jsonl"
    path.write_text("".join(FILTER_LINES), encoding="utf-8")
    middle = len("".join(FILTER_LINES[:at]).encode("utf-8"))
    split = split_filter(path, tmp / "split", middle, threshold)
    assert split == sequential_filter(path, tmp / "sequential", threshold)
    assert split[0] == 0 and sorted(split[3]) == ["dropped.jsonl", "kept.jsonl"]


FILTER_DEFECTS = {
    "bad-json": lambda i: '{"note_id": \n',
    "no-backend": lambda i: calibrated_line(i).replace('"unli"', '"nli"'),
    "prob-out-of-range": lambda i: calibrated_line(i, prob=1.5),
    "not-an-object": lambda i: "[1, 2]\n",
    "lone-surrogate": lambda i: calibrated_line(i).replace('"topic": "t"', '"topic": "t\\udc00"'),
    "utf8": lambda i: calibrated_line(i).replace('"topic": "t"', '"topic": "t\udcff"'),
}


@pytest.mark.parametrize("place", sorted(PLACES))
@pytest.mark.parametrize("defect", sorted(FILTER_DEFECTS))
def test_filter_errors_match_the_sequential_run(tmp_path, defect, place):
    lines = list(FILTER_LINES)
    for i in PLACES[place]:
        lines[i] = FILTER_DEFECTS[defect](i)
    path, middle = write_lines(tmp_path, lines)
    sequential = sequential_filter(path, tmp_path / "sequential")
    assert sequential[0] == 1 and sequential[3] == {}
    line = None if defect == "utf8" else PLACES[place][0] + 1  # a decoding error names its byte offset
    assert json.loads(sequential[2]).get("line") == line
    assert split_filter(path, tmp_path / "split", middle) == sequential


def test_invalid_utf8_in_the_second_half_names_its_offset_in_the_whole_file(tmp_path):
    lines = list(FILTER_LINES)
    lines[9] = FILTER_DEFECTS["utf8"](9)
    path, middle = write_lines(tmp_path, lines)
    offset = path.read_bytes().index(b"\xff")
    code, _, stderr, files = split_filter(path, tmp_path / "split", middle)
    assert (code, files) == (1, {})
    assert f"byte 0xff in position {offset}:" in json.loads(stderr)["message"]


def test_a_filter_child_that_exits_1_falls_back_to_the_sequential_run(tmp_path):
    path, middle = write_lines(tmp_path, FILTER_LINES)
    parent, real_load = os.getpid(), cli.load_calibrated

    def load_calibrated(source, backend):
        if os.getpid() != parent:
            os._exit(1)
        return real_load(source, backend)

    with mock.patch.object(cli, "load_calibrated", load_calibrated):
        fallback = split_filter(path, tmp_path / "fallback", middle)
    assert fallback == sequential_filter(path, tmp_path / "sequential")
    assert fallback[0] == 0

