"""Canonical data model and file I/O for ranked retrieval results.

Covers ranked lists and run files (TREC 6-column format), relevance
judgments (qrels), and the sub-query map that ties each original query to
its expansion. Ranks are always recomputed from score order: input rank
columns are never trusted, and score ties are broken by ascending doc id
so every downstream computation is deterministic.

Inputs are read a chunk at a time, never whole. A run file of at least
``_SPLIT_MIN`` bytes is parsed in two halves at once when the process may
use two CPUs: this process parses the first half while a forked child
parses the second and sends its per-query lists back. The halves are
merged in file order, so the lists, their order, the tag and every error,
with its line, are those of a sequential parse. The CLI's ``claims
filter`` splits its input of that size the same way, through
``_parse_in_halves``: each half is loaded, filtered and serialized on its
own, and the child sends back its half's output bytes. A qrels file is
parsed in one process at any size: its line is four fields and an int, so
sending half the grades back and merging them cost about as much as
parsing them (on two CPUs, a 6 MB, 300,000-line qrels file took a median
0.25 s split and 0.20 s whole).

The fork plumbing is shared: ``_in_two``, the only place that forks,
splits a job between this process and a forked child, which sends its
results back through a pipe, written by ``_write_records`` and read by
``_read_records``. ``_in_two`` states the one rule for a split that
fails. Four jobs split: the run parse and ``claims filter`` above,
``ablation.run_ablation``, which computes half of its cells in a child,
and ``pipeline.run_pipeline``, which formats ``subqueries.run`` in one.

Every JSON value is read by ``_json_value``, which rejects a string
holding a lone surrogate escape.

Formats:
  run file:      ``qid Q0 docid rank score tag`` (whitespace-delimited, UTF-8)
  qrels file:    ``qid 0 docid grade``
  sub-query map: JSON lines, one object per query:
                 ``{"query_id": ..., "sub_queries": [{"id": ..., "text": ...}]}``
"""

from __future__ import annotations

import io
import json
import math
import os
import secrets
from array import array
from dataclasses import MISSING, dataclass, field, fields
from operator import neg
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, get_type_hints

from .errors import FusekitError, ParseError, ValidationError

QueryId = str
DocId = str


def _check_token(value: str, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{what} must be a non-empty string, got {value!r}")
    # str.split() separates on exactly the characters str.isspace() accepts
    if value.split() != [value]:
        raise ValidationError(f"{what} must not contain whitespace: {value!r}")
    return value


def _decode(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not valid UTF-8: {e}") from e


_CHUNK = 1 << 16  # bytes read, decoded and split at a time

Source = bytes | str | BinaryIO  # an input's bytes, its text, or a file opened for binary reading


def _iter_lines(source: Source) -> Iterator[str]:
    """The lines of the whole input's ``splitlines()``.

    Text, already whole in memory, is split at once. Bytes and files are read
    up to the next multiple of ``_CHUNK`` bytes at a time, each read completed
    to the end of its line, so every chunk but the last ends just after a
    ``\n``: no ``\r\n`` pair is split, and in UTF-8 no multibyte sequence
    holds the byte ``0x0A``. A chunk is decoded before its lines are parsed,
    so these fixed chunks decide which of two defects in one chunk is
    reported. An invalid byte is reported at its offset in the whole input.
    """
    if isinstance(source, str):
        yield from source.splitlines()
        return
    if isinstance(source, bytes):
        source = io.BytesIO(source)  # shares the bytes' buffer, no copy
    offset = 0  # where the chunk starts in the input
    while chunk := source.read(_CHUNK - offset % _CHUNK):
        if not chunk.endswith(b"\n"):
            chunk += source.readline()
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"input is not valid UTF-8: {_moved(e, offset)}") from None
        yield from text.splitlines()
        offset += len(chunk)


def _moved(e: UnicodeDecodeError, offset: int) -> str:
    """``str(e)`` for the same bad bytes found ``offset`` bytes further into the input."""
    start = offset + e.start
    if e.end - e.start == 1:
        where = f"byte 0x{e.object[e.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{offset + e.end - 1}"
    return f"'{e.encoding}' codec can't decode {where}: {e.reason}"


_SPLIT_MIN = 4 << 20  # a regular file of at least this many bytes is parsed in two halves at once

_POOL_MAX = 1 << 15  # doc ids a run parse keeps to share (see _trim_pool), about 1 MB of dict at most


def _parse_in_halves(source: Source, parse: Callable, to_records: Callable, merge: Callable):
    """``parse(source)``; a large file's second half is parsed at the same time in a forked child.

    ``parse`` takes a source: the whole input, or a ``_file_range`` reader of
    one half. The child runs it on the second half and sends back each of
    ``to_records(its result)``; ``merge(the first half's result, those
    records)`` joins the halves in file order, or returns None where they
    overlap. Where the split fails, the whole file is parsed here, as
    ``_in_two`` says. The child's memory comes on top of this process's: it
    holds its half's result until it is sent.
    """
    halves = _halves(source)
    if halves is None:
        return parse(source)
    fd, start, middle = halves
    merged = _in_two(
        lambda: parse(_file_range(fd, start, middle)),
        lambda: to_records(parse(_file_range(fd, middle))),
        merge,
        lambda: parse(source),
    )
    source.seek(0, os.SEEK_END)  # where the sequential parse leaves it
    return merged


def _in_two(mine: Callable[[], object], theirs: Callable[[], Iterable], join: Callable, alone: Callable[[], object]):
    """``join(mine(), the records of theirs())``, ``theirs`` run meanwhile in a forked child.

    This is the only place fusekit forks, and the one failure rule of every
    job split over two processes: ``alone()``, the job in this process only,
    is returned instead where no child was forked, where ``mine()`` or
    ``join`` raises a FusekitError, where ``join`` returns None, or where the
    child fails. So every result and every error is the one-process job's.
    Any other exception is a bug and propagates. A child is forked only where
    this process can fork, runs one thread and may run on two CPUs, and the
    fork succeeds. The child sends each of ``theirs()`` through a pipe as one
    length-prefixed ``marshal`` record, so a record may hold only the types
    ``marshal`` takes; ``join`` gets them as they arrive. The child ends only
    by ``os._exit``: it never returns into the caller nor flushes the stdio
    buffers it inherited. Before ``alone()`` runs or an exception
    propagates, the read end is closed, which ends a child blocked on a full
    pipe, and the child is killed and reaped, so it never outlives the call.
    """
    import threading

    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return alone()
    if len(os.sched_getaffinity(0)) < 2 or threading.active_count() != 1:
        return alone()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return alone()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            _write_records(write_fd, theirs())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    status = None
    try:
        with open(read_fd, "rb") as pipe:
            try:
                joined = join(mine(), _read_records(pipe))
            except FusekitError:
                joined = None
        if joined is not None:
            status = os.waitpid(pid, 0)[1]
            if status == 0:
                return joined
    finally:
        if status is None:  # the child's work is no longer wanted
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return alone()


def _write_records(fd: int, records: Iterable) -> None:
    """Write each of ``records`` to the pipe end ``fd`` (4 length bytes, then its ``marshal`` bytes), then close it."""
    import marshal  # imported on use, like the other modules only the forked paths need

    with open(fd, "wb") as pipe:
        for record in records:
            data = marshal.dumps(record)
            pipe.write(len(data).to_bytes(4, "little"))
            pipe.write(data)


def _read_records(pipe: BinaryIO) -> Iterator:
    """The records ``_write_records`` wrote to ``pipe``, up to its end or to a record cut short."""
    import marshal

    # a record cut short means the child died, which its exit status tells
    while len(head := pipe.read(4)) == 4:
        size = int.from_bytes(head, "little")
        if len(data := pipe.read(size)) < size:
            return
        yield marshal.loads(data)


def _halves(source: Source) -> tuple[int, int, int] | None:
    """``(fd, start, middle)`` of a source worth parsing in two halves, else None.

    That is a file opened for binary reading whose regular file holds at
    least ``_SPLIT_MIN`` bytes from its position ``start``. Bytes, text,
    pipes and the like are parsed sequentially.
    """
    import stat

    raw = getattr(source, "raw", source)  # the FileIO under a buffered file; a gzip file has none
    if not isinstance(raw, io.FileIO):
        return None
    fd = raw.fileno()
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):
        return None
    start = source.tell()
    if info.st_size - start < _SPLIT_MIN:
        return None
    middle = _middle(fd, start, info.st_size)
    return (fd, start, middle) if start < middle < info.st_size else None


def _middle(fd: int, start: int, end: int) -> int:
    """Where to split the bytes ``start`` to ``end`` of file ``fd``: the first line start after halfway, or ``end``.

    Any line start will do: where either half fails, ``_in_two`` parses the
    whole file again, so every error is the sequential parse's.
    """
    halfway = start + (end - start) // 2
    return halfway + len(_file_range(fd, halfway).readline())


def _file_range(fd: int, start: int, end: int | None = None) -> BinaryIO:
    """A buffered reader of the open file ``fd`` from byte ``start`` to ``end`` (or to its end).

    It reads with ``os.pread``, which leaves the file offset alone: a forked
    child shares that offset with its parent.
    """
    return io.BufferedReader(_PositionalReader(fd, start, end))


class _PositionalReader(io.RawIOBase):
    """The raw reader under ``_file_range``; it does not own, so never closes, ``fd``."""

    def __init__(self, fd: int, start: int, end: int | None):
        self._fd, self._pos, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = len(buffer) if self._end is None else min(len(buffer), self._end - self._pos)
        data = os.pread(self._fd, size, self._pos)
        buffer[: len(data)] = data
        self._pos += len(data)
        return len(data)


def iter_jsonl(data: Source) -> Iterator[tuple[int, object]]:
    """Yield ``(line_no, value)`` per non-blank JSON line; bad JSON (``_json_value``) raises ParseError(line=...)."""
    for line_no, raw in enumerate(_iter_lines(data), start=1):
        line = raw.strip()
        if line:
            yield line_no, _json_value(line, line_no)


def load_records(data: Source, build: Callable[[object], object]) -> list:
    """``build(value)`` per JSON line; its ValidationError becomes a ParseError with the line."""
    items = []
    for line_no, value in iter_jsonl(data):
        try:
            items.append(build(value))
        except ValidationError as e:
            raise ParseError(str(e), line=line_no) from None
    return items


def load_unique_records(data: Source, build: Callable[[object], tuple[str, object]], what: str) -> dict:
    """``dict(build(value) ...)`` over the JSON lines, as ``load_records`` reads them.

    ``build`` returns ``(query_id, item)``; a query id on two lines is a ParseError naming the second.
    """
    items = {}

    def add(value) -> None:
        query_id, item = build(value)
        if query_id in items:
            raise ValidationError(f"query {query_id!r} appears in two {what} records")
        items[query_id] = item

    load_records(data, add)
    return items


def _loads(data):
    """Decode one JSON document from bytes/text; any other value is returned as it is."""
    return _json_value(_decode(data)) if isinstance(data, (bytes, str)) else data


def _json_value(text: str, line: int | None = None):
    """The value of the JSON text ``text``; bad JSON raises ParseError(line=line).

    Every JSON reader comes here: the JSON lines of ``iter_jsonl``, the
    documents of ``_loads`` and the services' replies. A string holding a
    lone surrogate escape such as ``"\\ud800"`` is bad JSON here: it is no
    character, and no UTF-8 output could hold it.
    """
    try:
        value = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=line) from None
    except (RecursionError, ValueError) as e:  # nested too deeply, or an integer literal too long
        raise ParseError(f"invalid JSON: {e}", line=line) from None
    # an escape in U+D000-U+DFFF may be a lone surrogate; a one-character search is the cheap first test
    if "\\" in text and ("\\ud" in text or "\\uD" in text):
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as e:
            lone = e.object[e.start]
            raise ParseError(f"invalid JSON: lone surrogate {lone!r} in a string", line=line) from None
    return value


def _json_line(value) -> str:
    """``json.dumps(value, ensure_ascii=False)``, one line that ``_iter_lines`` reads back whole.

    ``str.splitlines()`` also ends a line at U+0085, U+2028 and U+2029, which
    that dump leaves raw, so they are escaped: the JSON value is the same.
    """
    text = json.dumps(value, ensure_ascii=False)
    return text.replace("\x85", "\\u0085").replace("\u2028", "\\u2028").replace("\u2029", "\\u2029")


_JSON_KINDS = {list: "array", dict: "object", str: "string", int: "integer"}


def _expect(value, kind: type, what: str, item: type | None = None):
    """``value`` if it is a JSON ``kind`` whose elements (or object values) are ``item``s.

    Anything else is a ValidationError naming ``what``.
    """
    if not _is_json(value, kind):
        raise ValidationError(f"{what} must be a JSON {_JSON_KINDS[kind]}, got {value!r}")
    if item is not None:
        for element in value.values() if isinstance(value, dict) else value:
            if not _is_json(element, item):
                raise ValidationError(f"{what} must hold only JSON {_JSON_KINDS[item]}s, got {element!r}")
    return value


def _is_json(value, kind: type) -> bool:
    # bool is a subclass of int, but JSON true and false are not integers
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


_JSON_NUMBERS = frozenset((int, float))  # the number types _json_value returns; JSON true and false are bools


def _json_float(value) -> float:
    """``float(value)`` of a JSON number; any other value, even a bool or a numeric string, is a TypeError."""
    if type(value) not in _JSON_NUMBERS:
        raise TypeError(f"not a JSON number: {value!r}")
    return float(value)


_TEXT_HINTS = {str: False, str | None: True}  # text annotation -> whether None is allowed


def json_record(cls):
    """Class decorator: the dataclass's fields, in order, are the keys of its JSON object.

    A field with no default is required. A field annotated ``str`` must hold a
    string, one annotated ``str | None`` a string or None: the class's
    ``__post_init__`` (which the dataclass must define, so that its ``__init__``
    calls it) is wrapped to check this on every construction, before the
    record's own checks, which cover every other annotation. The shape is
    worked out once, here, so that the two helpers below cost one call per record.
    """
    cls._json_fields = tuple(
        (f.name, f.default is MISSING and f.default_factory is MISSING) for f in fields(cls)
    )
    cls._json_names = frozenset(name for name, _ in cls._json_fields)
    cls._json_required = frozenset(name for name, required in cls._json_fields if required)
    texts = tuple(
        (name, _TEXT_HINTS[hint]) for name, hint in get_type_hints(cls).items() if hint in _TEXT_HINTS
    )
    post_init = cls.__post_init__

    def __post_init__(self):
        for name, optional in texts:
            value = getattr(self, name)
            if not isinstance(value, str) and not (optional and value is None):
                raise ValidationError(f"{name} must be a string, got {value!r}")
        post_init(self)

    cls.__post_init__ = __post_init__
    return cls


def from_json_object(cls, obj):
    """A ``json_record`` class built from a JSON object; unknown keys are ignored.

    A non-object or a missing required field is a ValidationError.
    """
    obj = _expect(obj, dict, "record")
    if not obj.keys() >= cls._json_required:
        missing = [name for name, required in cls._json_fields if required and name not in obj]
        raise ValidationError(f"record is missing required fields: {', '.join(missing)}")
    if obj.keys() <= cls._json_names:
        return cls(**obj)
    return cls(**{key: value for key, value in obj.items() if key in cls._json_names})


def to_json_object(record) -> dict:
    """A ``json_record``'s fields in order: required ones always, optional ones when not None."""
    out = {}
    for name, required in record._json_fields:
        value = getattr(record, name)
        if required or value is not None:
            out[name] = value
    return out


def atomic_write(path: str | Path, data: bytes | Iterable[bytes]) -> None:
    """Replace ``path`` with ``data``, or with its chunks in order: readers see the old file or the new one.

    The bytes go to a uniquely named temp file beside the target, created
    exclusively and with the mode a plain write gives, each chunk as it
    arrives, so a generator's output is never held whole. The file is then
    fsynced and renamed over the target. If any step fails, an exception
    from the chunks' iterable included, the temp file is removed and the
    target is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "xb")  # outside the try: a failed open must not unlink a file it did not create
    try:
        with fh:
            # bytes iterate as ints, so a bytes object is one chunk
            fh.writelines((data,) if isinstance(data, bytes) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ScoredList:
    """One query's ranked (doc id, score) sequence.

    Entries are ordered by non-increasing score; the rank of entry ``i``
    is ``i + 1``. Doc ids are unique within a list and every score is
    finite, as in a parsed run.

    The list is stored as two columns, a tuple of doc ids and an
    ``array('d')`` of scores, which the library's own modules read directly
    as ``_docs`` and ``_scores``; ``entries`` builds the pairs on demand.

    ``ScoredList(entries)`` and ``from_pairs`` validate every entry; use
    them for data from outside the library. ``_trusted`` and
    ``_trusted_sorted`` are internal and check nothing: they build the
    lists the library derives from data it has already validated (parsed
    runs, truncations, fused and reranked lists).
    """

    __slots__ = ("_docs", "_scores")

    def __init__(self, entries: Iterable[tuple[DocId, float]] = ()):
        entries = tuple((doc, _score(doc, score)) for doc, score in entries)
        seen: set[str] = set()
        prev = None
        for doc, score in entries:
            _check_token(doc, "doc id")
            if not math.isfinite(score):
                raise ValidationError(f"non-finite score {score} for doc {doc!r}")
            if doc in seen:
                raise ValidationError(f"duplicate doc id {doc!r} in scored list")
            seen.add(doc)
            if prev is not None and score > prev:
                raise ValidationError(
                    f"scores must be non-increasing: {score} follows {prev}"
                )
            prev = score
        self._docs = tuple(doc for doc, _ in entries)
        self._scores = array("d", [score for _, score in entries])

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[DocId, float]]) -> "ScoredList":
        """Build the canonical list: score descending, doc id ascending on ties."""
        entries = []
        for doc, score in pairs:  # each pair checked as ScoredList(entries) checks it, before the sort compares ids
            score = _score(doc, score)
            entries.append((_check_token(doc, "doc id"), score))
        entries.sort(key=lambda p: (-p[1], p[0]))
        return cls(tuple(entries))

    @classmethod
    def _trusted(cls, docs: tuple[DocId, ...], scores: array) -> "ScoredList":
        """Wrap doc-id and score columns that already meet every invariant."""
        ranking = object.__new__(cls)
        ranking._docs = docs
        ranking._scores = scores
        return ranking

    @classmethod
    def _trusted_sorted(cls, scores: dict[DocId, float]) -> "ScoredList":
        """The canonical order of a doc id -> float map whose doc ids are valid."""
        docs = sorted(scores)
        # the sort is stable, so docs with equal scores stay in ascending id order
        docs.sort(key=scores.__getitem__, reverse=True)
        return cls._trusted(tuple(docs), array("d", map(scores.__getitem__, docs)))

    @property
    def entries(self) -> tuple[tuple[DocId, float], ...]:
        return tuple(zip(self._docs, self._scores))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoredList):
            return NotImplemented
        return self._docs == other._docs and self._scores == other._scores

    def __hash__(self) -> int:
        return hash((self._docs, tuple(self._scores)))

    def __repr__(self) -> str:
        return f"ScoredList(entries={self.entries!r})"

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[tuple[DocId, float]]:
        return zip(self._docs, self._scores)

    def docs(self) -> tuple[DocId, ...]:
        return self._docs

    def scores(self) -> dict[DocId, float]:
        return dict(zip(self._docs, self._scores))


def _score(doc: DocId, score) -> float:
    """``float(score)`` of a scored list's ``int`` or ``float`` score; anything else is a ValidationError naming ``doc``."""
    try:
        return _json_float(score)
    except TypeError:
        raise ValidationError(f"score must be an int or float, got {score!r} for doc {doc!r}") from None
    except OverflowError:
        # no repr: an int too large for a float may be too long for str() as well
        raise ValidationError(f"score beyond the float range for doc {doc!r}") from None


def truncate(ranking: ScoredList, depth: int) -> ScoredList:
    """First ``min(depth, len)`` entries, order preserved. Idempotent."""
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    if depth >= len(ranking):
        return ranking
    return ScoredList._trusted(ranking._docs[:depth], ranking._scores[:depth])


@dataclass(frozen=True)
class RunSet:
    """Per-query ranked lists plus the run's tag."""

    lists: dict[QueryId, ScoredList] = field(default_factory=dict)
    tag: str = "run"

    def __post_init__(self):
        for qid in self.lists:
            _check_token(qid, "query id")

    def queries(self) -> list[QueryId]:
        return sorted(self.lists)


def parse_run(data: Source) -> RunSet:
    """Parse a TREC-style run file.

    The rank column is ignored; per-query lists are rebuilt by descending
    score with doc-id ascending tie-break. Duplicate (qid, docid) pairs are
    rejected. Equal doc ids of different queries are mostly one string
    object, as the sub-query lists of one query share most of their docs
    (see ``_trim_pool``).
    """
    pool: dict[DocId, DocId] = {}
    lists, tag = _parse_in_halves(
        data,
        lambda source: _run_lines(source, pool),
        _run_records,
        lambda parsed, records: _merge_runs(parsed, records, pool),
    )
    return RunSet(lists=lists, tag=tag if tag is not None else "run")


def _trim_pool(pool: dict[DocId, DocId]) -> None:
    """Empty ``pool`` if it holds ``_POOL_MAX`` doc ids; a parse calls this at each query's start.

    The parse maps each doc id through ``pool.setdefault(docid, docid)``, so
    an id seen before is the string object already held, not a copy. That
    makes the parsed run smaller, and a forked child that bumps the ids'
    reference counts copies fewer pages. Emptying the pool at a query's start
    bounds its own memory while keeping the ids of neighbouring queries, the
    sub-queries of one query, shared.
    """
    if len(pool) >= _POOL_MAX:
        pool.clear()


def _plain_number(text: str, kind: type = int):
    """``kind(text)``, ``kind`` being ``int`` or ``float``, of a plain ASCII number; anything else is a ValueError.

    ``int()`` and ``float()`` also take underscores between digits and
    non-ASCII digits, such as ``"1_0"`` and ``"١.٥"``, which no run, qrels
    file, option or REPL argument may hold; the parse loops make the same
    check inline.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return kind(text)


def _run_lines(source: Source, pool: dict[DocId, DocId]) -> tuple[dict[QueryId, ScoredList], str | None]:
    """The per-query lists of a run file's lines, in order of first appearance, and the first line's tag.

    Doc ids go through ``pool`` (see ``_trim_pool``).
    """
    # str.split() separates on exactly the characters str.isspace() accepts, so every
    # field is a valid token; with finite scores and unique docs the lists need no re-check
    lists: dict[str, ScoredList] = {}
    current = scores = None  # the query being read and its doc id -> score map
    reopened: dict[str, dict[str, float]] = {}  # maps of queries whose lines came back, open to the end
    tag = None
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise ParseError(
                f"expected 6 fields 'qid Q0 docid rank score tag', got {len(parts)}",
                line=line_no,
            )
        qid, _, docid, _, score_str, line_tag = parts
        try:
            if not score_str.isascii() or "_" in score_str:  # as _plain_number checks
                raise ValueError
            score = float(score_str)
        except ValueError:
            raise ParseError(f"non-numeric score {score_str!r}", line=line_no) from None
        if not math.isfinite(score):
            raise ParseError(f"non-finite score {score_str!r}", line=line_no)
        if qid != current:
            # each query's map becomes columns when its lines end, so in a ranked file only one map is held
            if current is not None and current not in reopened:
                lists[current] = _ranked(scores)
            current = qid
            _trim_pool(pool)
            scores = reopened.get(qid)
            if scores is None:
                done = lists.get(qid)
                # a query whose lines come back is re-opened once, so a repeated doc is still caught
                scores = {} if done is None else reopened.setdefault(qid, dict(zip(done._docs, done._scores)))
        if docid in scores:
            raise ParseError(f"duplicate entry for query {qid!r}, doc {docid!r}", line=line_no)
        scores[pool.setdefault(docid, docid)] = score
        if tag is None:
            tag = line_tag
    if current is not None and current not in reopened:
        lists[current] = _ranked(scores)
    for qid, scores in reopened.items():
        lists[qid] = _ranked(scores)
    return lists, tag


def _run_records(parsed: tuple[dict[QueryId, ScoredList], str | None]) -> Iterator:
    """The tag, then one ``(qid, doc ids, score bytes)`` per query: what ``_merge_runs`` reads."""
    lists, tag = parsed
    yield tag
    for qid, ranking in lists.items():
        yield qid, ranking._docs, ranking._scores.tobytes()


def _merge_runs(parsed: tuple[dict[QueryId, ScoredList], str | None], records: Iterator, pool: dict[DocId, DocId]):
    """The first half's lists and tag joined with the second half's records; None if a query repeats a doc.

    Each record's doc ids are new strings, as ``marshal`` made them, so they
    go through the first half's ``pool`` (see ``_trim_pool``).
    """
    lists, tag = parsed
    second_tag = next(records, None)  # none when the child failed
    for qid, docs, score_bytes in records:
        _trim_pool(pool)
        ranking = ScoredList._trusted(tuple(map(pool.setdefault, docs, docs)), array("d", score_bytes))
        done = lists.get(qid)
        if done is not None:  # re-opened, as the sequential parse re-opens a query
            scores = dict(zip(done._docs, done._scores))
            scores.update(ranking)
            if len(scores) < len(done) + len(ranking):
                return None
            ranking = _ranked(scores)
        lists[qid] = ranking
    return lists, tag if tag is not None else second_tag


def _ranked(scores: dict[DocId, float]) -> ScoredList:
    """The canonical order of one parsed query's doc id -> score map.

    The (-score, doc id) pairs are sorted in file order, so a query whose lines
    are already ranked, as run files usually are, sorts in near-linear time.
    Fusion's maps follow no order, and ``ScoredList._trusted_sorted`` sorts them faster.
    """
    neg_scores, docs = zip(*sorted(zip(map(neg, scores.values()), scores)))
    return ScoredList._trusted(docs, array("d", map(neg, neg_scores)))


def _check_depth(depth: int) -> None:
    """A ValidationError unless ``depth``, the entries per query a run file is written with, is at least 1."""
    if depth < 1:
        raise ValidationError(f"depth must be a positive integer, got {depth}")


def write_run(run: RunSet, depth: int) -> bytes:
    """Serialize a run, at most ``depth`` entries per query, in rank order.

    Scores are written with ``repr`` so a parse round-trip reproduces them
    exactly. Queries are emitted in ascending id order.
    """
    _check_depth(depth)
    _check_token(run.tag, "run tag")
    # one query's lines at a time, so the only whole-file copy is the output itself
    out = io.BytesIO()
    suffix = f" {run.tag}\n"
    for qid in run.queries():
        prefix = f"{qid} Q0 "
        ranking = run.lists[qid]
        docs = ranking._docs[:depth]
        lines = [
            f"{prefix}{doc}{rank}{score!r}{suffix}"
            for rank, doc, score in zip(_rank_fields(len(docs)), docs, ranking._scores)
        ]
        out.write("".join(lines).encode("utf-8"))
    return out.getvalue()


_RANK_FIELDS: list[str] = []  # " 1 ", " 2 ", ...: made once per process, as far as the longest list written


def _rank_fields(count: int) -> list[str]:
    """The ``" {rank} "`` fields of ranks 1 to at least ``count``, in order."""
    if len(_RANK_FIELDS) < count:
        _RANK_FIELDS.extend(f" {rank} " for rank in range(len(_RANK_FIELDS) + 1, count + 1))
    return _RANK_FIELDS


class Qrels:
    """Graded relevance judgments keyed by (query id, doc id).

    The judgments are held grouped by query, one doc id -> grade map per
    query; ``judgments`` builds the (query id, doc id) -> grade map on demand.

    ``Qrels(judgments)`` validates every key and grade; use it for data
    from outside the library. ``_trusted`` is internal and checks nothing:
    ``parse_qrels`` uses it after checking each line itself.
    """

    __slots__ = ("_by_query",)

    def __init__(self, judgments: dict[tuple[QueryId, DocId], int] | None = None):
        by_query: dict[str, dict[str, int]] = {}
        for (qid, docid), grade in (judgments or {}).items():
            _check_token(qid, "query id")
            _check_token(docid, "doc id")
            if not _is_json(grade, int) or grade < 0:
                raise ValidationError(
                    f"relevance grade must be a non-negative integer, got {grade!r}"
                )
            by_query.setdefault(qid, {})[docid] = grade
        self._by_query = by_query

    @classmethod
    def _trusted(cls, by_query: dict[QueryId, dict[DocId, int]]) -> "Qrels":
        """Wrap valid judgments grouped by query."""
        qrels = object.__new__(cls)
        qrels._by_query = by_query
        return qrels

    @property
    def judgments(self) -> dict[tuple[QueryId, DocId], int]:
        return {
            (qid, docid): grade
            for qid, grades in self._by_query.items()
            for docid, grade in grades.items()
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, Qrels):
            return NotImplemented
        return self._by_query == other._by_query

    def __repr__(self) -> str:
        return f"Qrels(judgments={self.judgments!r})"

    def queries(self) -> set[QueryId]:
        return set(self._by_query)

    def for_query(self, qid: QueryId) -> dict[DocId, int]:
        return dict(self._by_query.get(qid, {}))


def parse_qrels(data: Source) -> Qrels:
    """Parse ``qid 0 docid grade`` lines, in this process at any size (see the module docstring); grade 0 is retained."""
    by_query: dict[str, dict[str, int]] = {}
    current = grades = None  # the query being read and its doc id -> grade map
    for line_no, raw in enumerate(_iter_lines(data), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ParseError(
                f"expected 4 fields 'qid 0 docid grade', got {len(parts)}",
                line=line_no,
            )
        qid, _, docid, grade_str = parts
        try:
            if not grade_str.isascii() or "_" in grade_str:  # as _plain_number checks
                raise ValueError
            grade = int(grade_str)
        except ValueError:
            raise ParseError(f"non-integer grade {grade_str!r}", line=line_no) from None
        if grade < 0:
            raise ParseError(f"negative grade {grade}", line=line_no)
        if qid != current:
            current = qid
            grades = by_query.setdefault(qid, {})
        if docid in grades:
            raise ParseError(f"duplicate judgment for query {qid!r}, doc {docid!r}", line=line_no)
        grades[docid] = grade
    # tokens come from str.split() and grades are checked per line, as Qrels() would
    return Qrels._trusted(by_query)


@dataclass(frozen=True)
class SubQueryMap:
    """Ordered sub-queries per original query.

    Sub-query ids are globally unique tokens; every group is non-empty.
    ``SubQueryMap(groups)`` checks this; ``_trusted`` is internal and checks nothing.
    """

    groups: dict[QueryId, tuple[tuple[QueryId, str], ...]] = field(default_factory=dict)

    def __post_init__(self):
        groups = {qid: tuple(subs) for qid, subs in self.groups.items()}
        object.__setattr__(self, "groups", groups)
        seen_sub: set[str] = set()
        for qid, subs in groups.items():
            _check_group(qid, subs, seen_sub)

    @classmethod
    def _trusted(cls, groups: dict[QueryId, tuple[tuple[QueryId, str], ...]]) -> "SubQueryMap":
        """Wrap groups, each a tuple, that already meet every invariant (a parsed map, a subsample)."""
        mapping = object.__new__(cls)
        object.__setattr__(mapping, "groups", groups)
        return mapping

    def group_sizes(self) -> list[int]:
        return [len(subs) for subs in self.groups.values()]

    def sub_query_ids(self, qid: QueryId) -> list[QueryId]:
        return [sub_id for sub_id, _ in self.groups[qid]]


def _check_group(qid: QueryId, subs: tuple[tuple[QueryId, str], ...], seen_sub: set[str]) -> None:
    """Check one query's sub-query group; ``seen_sub`` holds the sub-query ids of the groups before it."""
    _check_token(qid, "query id")
    if not subs:
        raise ValidationError(f"query {qid!r} has an empty sub-query group")
    for sub_id, text in subs:
        _check_token(sub_id, "sub-query id")
        if not isinstance(text, str):
            raise ValidationError(f"sub-query {sub_id!r} text must be a string")
        if sub_id in seen_sub:
            raise ValidationError(f"sub-query id {sub_id!r} appears twice")
        seen_sub.add(sub_id)


def parse_subquery_map(data: Source) -> SubQueryMap:
    """Parse the JSON-lines sub-query map, preserving sub-query order; a bad group names its line."""
    groups: dict[str, tuple[tuple[str, str], ...]] = {}
    seen_sub: set[str] = set()

    def add_group(record) -> None:
        record = _expect(record, dict, "map record")
        qid = _expect(record.get("query_id"), str, "'query_id'")
        subs = _expect(record.get("sub_queries"), list, "'sub_queries'", item=dict)
        if qid in groups:
            raise ValidationError(f"query {qid!r} appears in two map records")
        group = tuple((sub.get("id"), sub.get("text")) for sub in subs)
        _check_group(qid, group, seen_sub)
        groups[qid] = group

    load_records(data, add_group)
    return SubQueryMap._trusted(groups)


def write_subquery_map(mapping: SubQueryMap) -> bytes:
    lines = []
    for qid, subs in mapping.groups.items():
        record = {
            "query_id": qid,
            "sub_queries": [{"id": sub_id, "text": text} for sub_id, text in subs],
        }
        lines.append(_json_line(record) + "\n")
    return "".join(lines).encode("utf-8")


class ExpansionStats(NamedTuple):
    """Sub-query expansion statistics over a map's groups."""

    count: int
    min_size: int
    mean_size: float
    max_size: int

    def formatted(self) -> str:
        return (
            f"total {self.count} / min {self.min_size} / "
            f"avg {self.mean_size:.2f} / max {self.max_size}"
        )


def expansion_stats(mapping: SubQueryMap) -> ExpansionStats:
    """Total sub-query count plus min/mean/max group size (mean shown at 2 dp)."""
    sizes = mapping.group_sizes()
    if not sizes:
        raise ValidationError("expansion stats require a non-empty sub-query map")
    return ExpansionStats(
        count=sum(sizes),
        min_size=min(sizes),
        mean_size=sum(sizes) / len(sizes),
        max_size=max(sizes),
    )
