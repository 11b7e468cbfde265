"""Storage backends behind one adapter contract, plus the document-level
import/export/migrate operations built on it.

A store holds canonical record lines (``format_record`` plus a newline,
UTF-8) keyed by OID token; records are a decoded view of them. The
adapter base writes the public surface once: put (validate, format, no
overwrite), get and scan (LineAcceptor.record: accept, then read by the
grammar), contains, count, and scan_lines in byte-wise OID order. A
backend supplies only line storage: append a line, read one back,
commit, checkpoint/rollback (so imports stay atomic on any backend) and
close. MemStore is a plain in-process map of lines; FileStore is an
append-only log of record lines and commit marks, bound to its model by
a schema.xsd that must be emit_schema's bytes for it; open reads the log
once, keeps what its last mark commits, and rebuilds from the log when
that mark does not check out. import_document takes only canonical
documents and, like migrate, stores their lines as they are through one
load that rolls back on any failure.

One handle tolerates a single writing thread or any number of reading
threads; concurrent writers to one FileStore directory are rejected via
the lock held on the LOCK file while the store is open.
"""

from __future__ import annotations

import fcntl
import io
import os
import re
import zlib
from abc import ABC, abstractmethod
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from .errors import ModelMismatchError, TransodbError
from .model import ClassModel, LayoutIndex, dump_model
from .objectxml import (
    CanonicalWriter,
    DocumentError,
    LineAcceptor,
    ObjectRecord,
    Oid,
    accept_document,
    decode_record_line,
    format_record,
    line_oid,
    line_refs,
    validate_record,
)
from .xsd import emit_schema

_CRC_CHUNK = 64 * 1024  # bytes per read of the log, at open and in its CRC check


class StoreError(TransodbError):
    """Base for storage-level failures."""


class DuplicateOidError(StoreError):
    pass


class DanglingRefError(StoreError):
    def __init__(self, missing: list[str]):
        self.missing = missing
        shown = ", ".join(missing[:5])
        if len(missing) > 5:
            shown += f", ... {len(missing) - 5} more"
        super().__init__(f"references to missing OIDs: {shown}")


class StoreLockedError(StoreError):
    pass


class StoreAdapter(ABC):
    """Behavioral contract every backend implements.

    The bound model is fixed at open; put validates a record against it and
    stores its canonical line, so the caller's object is copied. get and
    scan read a fresh record from a stored line that the store's
    LineAcceptor, built on first use, accepts, and raise StoreError on any
    other. scan yields records in byte-wise OID order regardless of
    insertion order, and after commit reflects every accepted put. A backend
    keeps one entry per stored OID token in ``_entries`` (whatever
    ``_append`` returned) and reads the line back with ``_line``.
    """

    def __init__(self, model: ClassModel):
        self.model = model
        self._layouts = LayoutIndex(model)
        self._entries: dict = {}
        self._acceptor: LineAcceptor | None = None  # built by the first get or scan

    def put(self, record: ObjectRecord) -> None:
        validate_record(record, self.model, self._layouts)
        self._put_line(record.oid.token, _encode_line(record, self._layouts))

    def _put_line(self, token: str, line: bytes) -> None:
        """Store a canonical line the caller has validated as token's record."""
        if token in self._entries:
            raise DuplicateOidError(f"OID {token!r} already stored")
        self._entries[token] = self._append(line)

    def get(self, oid: Oid) -> ObjectRecord | None:
        if oid.token not in self._entries:
            return None
        return self._record(self._line(oid.token))

    def contains(self, oid: Oid) -> bool:
        return oid.token in self._entries

    def scan(self) -> Iterator[ObjectRecord]:
        return map(self._record, self.scan_lines())

    def _record(self, line: bytes) -> ObjectRecord:
        self._acceptor = self._acceptor or LineAcceptor(self._layouts)
        record = self._acceptor.record(line)
        if record is None:
            raise StoreError(f"stored line of record {line_oid(line)!r} is not canonical")
        return record

    def scan_lines(self) -> Iterator[bytes]:
        """The canonical record lines, each ending in a newline, in the
        order of scan: ``format_record`` of each record, UTF-8 encoded."""
        for token in sorted(self._entries):
            yield self._line(token)

    def count(self) -> int:
        return len(self._entries)

    @abstractmethod
    def _append(self, line: bytes) -> object:
        """Keep a new line; return the entry that _line reads it back by."""

    @abstractmethod
    def _line(self, token: str) -> bytes:
        """The stored line of a token present in _entries."""

    @abstractmethod
    def commit(self) -> None: ...

    @abstractmethod
    def close(self) -> None: ...

    @abstractmethod
    def checkpoint(self) -> object:
        """Opaque marker for the current committed+pending state."""

    @abstractmethod
    def rollback(self, token: object) -> None:
        """Discard everything put after the checkpoint."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class MemStore(StoreAdapter):
    """In-process backend: a map of OID token to line; commit is a no-op."""

    _entries: dict[str, bytes]

    def _append(self, line: bytes) -> bytes:
        return line

    def _line(self, token: str) -> bytes:
        return self._entries[token]

    def commit(self) -> None:
        pass

    def close(self) -> None:
        pass

    def checkpoint(self) -> object:
        return len(self._entries)

    def rollback(self, token: object) -> None:
        keep = int(token)
        # dicts preserve insertion order, so the tail is what came after.
        for key in list(self._entries)[keep:]:
            del self._entries[key]


class FileStore(StoreAdapter):
    """Directory-backed store.

    Layout: ``schema.xsd`` (``emit_schema`` of the bound model, which open
    compares byte for byte), ``objects.log`` (append-only: a canonical
    record line per put and a mark line per commit), ``index.idx`` and
    ``LOCK``. A mark is ``#``, the CRC-32 of the log before it as 8
    lowercase hex digits, a space and that length. A new log starts with
    ``#00000000 0``, and only its creation fsyncs the directory. Commit
    appends a mark, if anything was put since the last, and syncs the log:
    the mark is the commit point. ``index.idx``, the same line for the
    whole log, is written unsynced at close and read by nothing here.

    Open frames every line in one pass and checks the last mark, whose
    CRC-32 covers every byte before it. If it checks out and every line
    before it framed, the log is truncated after it (a mark that lacks
    only its newline gets it back). Otherwise the log up to that mark, or
    all of a log with none (written before marks), is rebuilt with
    LineAcceptor, which rejects as corruption any record line that is not
    the canonical line of a valid record, and committed. So every line an
    entry points at is a validated canonical line; ``_line`` hands one out
    only after checking that it frames the record its key names, and
    ``scan_lines`` ends by checking the CRC-32 of the log again, so an
    edit to the log while the store is open fails an export or a migrate
    instead of being copied.

    Checkpoint is the log length, CRC and last mark; as the log is
    append-only, rollback truncates the log there and drops the entries at
    or past that length.

    An open store holds an exclusive flock on ``LOCK``, which rejects
    concurrent opens of one directory; the kernel drops it when the
    process dies, so a killed writer leaves the store openable.
    """

    SCHEMA_FILE = "schema.xsd"
    LOG_FILE = "objects.log"
    INDEX_FILE = "index.idx"
    LOCK_FILE = "LOCK"

    _entries: dict[str, tuple[int, int]]  # token -> (log offset, line length without newline)

    def __init__(self, directory: str | Path, model: ClassModel, create: bool = True):
        super().__init__(model)
        self.directory = Path(directory)
        self._lock_fd: int | None = None
        self._log: BinaryIO | None = None
        self._reader: BinaryIO | None = None
        self._log_len = 0
        self._crc = 0  # CRC-32 of the first _log_len log bytes
        self._marked: int | None = None  # log length at the last mark; set once open succeeds
        self._dirty_reads = False

        if not self.directory.exists():
            if not create:
                raise FileNotFoundError(f"store directory {self.directory} does not exist")
            self.directory.mkdir(parents=True)
        self._acquire_lock()
        try:
            self._open_files(create)
        except BaseException:
            self.close()
            raise

    # -- lifecycle --------------------------------------------------------

    def _acquire_lock(self) -> None:
        path = self.directory / self.LOCK_FILE
        while self._lock_fd is None:
            fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                # a holder releasing meanwhile unlinks the file just locked,
                # and a lock on an unlinked file excludes nobody: retry
                if _names_file(path, fd):
                    os.ftruncate(fd, 0)
                    os.write(fd, f"{os.getpid()}\n".encode())
                    self._lock_fd = fd
            except BlockingIOError:
                raise StoreLockedError(f"{self.directory} is locked by another writer") from None
            finally:
                if self._lock_fd != fd:
                    os.close(fd)

    def _release_lock(self) -> None:
        if self._lock_fd is not None:
            # unlink before unlocking, so an opener that reached this file
            # finds it replaced once it gets the lock
            (self.directory / self.LOCK_FILE).unlink(missing_ok=True)
            os.close(self._lock_fd)
            self._lock_fd = None

    def _open_files(self, create: bool) -> None:
        schema_path = self.directory / self.SCHEMA_FILE
        # emit_schema depends only on the model's shape, not on its name
        schema = emit_schema(self.model).encode("utf-8")
        if schema_path.exists():
            if schema_path.read_bytes() != schema:
                raise ModelMismatchError(
                    f"store at {self.directory} is bound to a different schema"
                )
        elif create:
            with open(schema_path, "wb") as fh:
                fh.write(schema)
                fh.flush()
                os.fsync(fh.fileno())
        else:
            raise FileNotFoundError(f"{schema_path} is missing")

        log_path = self.directory / self.LOG_FILE
        self._log = open(log_path, "ab")
        self._reader = open(log_path, "rb")
        self._load_index(self._log.tell())

    def close(self) -> None:
        if self._log is not None:
            self._log.flush()
            if self._marked is not None:
                (self.directory / self.INDEX_FILE).write_bytes(self._mark())
            self._log.close()
            self._log = None
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        self._release_lock()

    # -- marks -------------------------------------------------------------

    def _load_index(self, size: int) -> None:
        """Set the entries, the log CRC and the last mark from the log,
        size bytes, as the class docstring says."""
        mark = self._read_log(size, _framed_oid)
        if mark and mark[3]:
            self._log_len, self._crc, kept, _ = mark
            self._marked = self._log_len
            if len(self._entries) > kept:
                self._entries = dict(islice(self._entries.items(), kept))
        else:
            self._rebuild_index(mark[0] if mark else size)
        if self._log_len < size:  # drop what was never committed
            self._log.truncate(self._log_len)
        self.commit()
        if size == 0:  # a new log: make the directory's new names durable
            fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def _read_log(self, end: int, check: Callable[[bytes, bool, int], str | None]) -> tuple | None:
        """Read the log's first end bytes, each line without its newline.
        check(line, complete, offset) gives a line's OID token, or None for
        a mark, which is noted, or for a line to skip; complete is false
        for a last line cut short, and a repeated token raises. _entries,
        _log_len and _crc then describe the lines read. Returns the last
        mark, or None, as (its end, the CRC-32 to there, the entries before
        it, whether its CRC-32 and length are the log's before it and no
        line there was skipped); a cut mark counts only if so, and then
        gets its newline back."""
        self._entries = entries = {}
        offset = crc = 0
        mark, skipped = None, False
        fd, tail = self._reader.fileno(), b""
        while True:
            self._log_len, self._crc = offset, crc
            chunk = os.pread(fd, min(_CRC_CHUNK, end - offset - len(tail)), offset + len(tail))
            complete = bool(chunk)
            if chunk:
                buf = tail + chunk
                *lines, tail = buf.split(b"\n")
            elif tail:  # a last line cut short; its newline counts, as it may be written
                buf, lines, tail = tail + b"\n", [tail], b""
            else:
                return mark
            view, base, folded = memoryview(buf), offset, 0  # crc covers buf[:folded]
            for line in lines:
                token = check(line, complete, offset)
                if token is not None:
                    if token in entries:
                        raise StoreError(f"log at {self.directory} holds duplicate OID {token!r}")
                    entries[token] = (offset, len(line))
                elif head := _MARK.fullmatch(line):
                    crc, folded = zlib.crc32(view[folded : offset - base], crc), offset - base
                    checks = not skipped and int(head[2]) == offset and int(head[1], 16) == crc
                    if not (complete or checks):
                        break
                    if not complete:
                        self._log.write(b"\n")
                        self._log.flush()
                    end_crc = zlib.crc32(line + b"\n", crc)
                    mark = (offset + len(line) + 1, end_crc, len(entries), checks)
                elif not complete:
                    break
                else:
                    skipped = True
                offset += len(line) + 1
            crc = zlib.crc32(view[folded : offset - base], crc)
            if not complete:  # the cut line was the last; nothing follows it
                self._log_len, self._crc = offset, crc
                return mark

    def _log_crc(self) -> int:
        """CRC-32 of the whole log, read in fixed chunks."""
        crc = offset = 0
        while chunk := os.pread(self._reader.fileno(), _CRC_CHUNK, offset):
            crc = zlib.crc32(chunk, crc)
            offset += len(chunk)
        return crc

    def _rebuild_index(self, size: int) -> None:
        """Recover the entries and the log CRC from its first size bytes.

        Every line but a mark must be accepted by LineAcceptor, that is,
        be the canonical line of a valid record; no line is decoded unless
        it is rejected. A final line without a newline is a torn append
        from a crash: if it is complete once the newline is added, the
        newline is written, and if it does not even decode, it is left out
        for the caller to truncate. Any other rejected line, including one
        that decodes but is not its record's canonical form, is corruption
        and raises."""
        acceptor = LineAcceptor(self._layouts)

        def accepted(line: bytes, complete: bool, offset: int) -> str | None:
            found = acceptor.accept(line + b"\n")
            if found is None:
                if _MARK.fullmatch(line):
                    return None
                try:
                    decode_record_line(line, self.model, self._layouts)
                except DocumentError:
                    if not complete:
                        return None
                    raise StoreError(
                        f"log at {self.directory} is corrupt at byte {offset}"
                    ) from None
                raise StoreError(
                    f"log at {self.directory} holds a non-canonical record at byte {offset}"
                )
            if not complete:
                # full record text landed but the newline did not; finish it
                self._log.write(b"\n")
                self._log.flush()
            return found[1]

        self._read_log(size, accepted)

    # -- line storage ------------------------------------------------------

    def _append(self, line: bytes) -> tuple[int, int]:
        entry = (self._log_len, len(line) - 1)
        self._log.write(line)
        self._log_len += len(line)
        self._crc = zlib.crc32(line, self._crc)
        self._dirty_reads = True
        return entry

    def _flush_puts(self) -> None:
        if self._dirty_reads:
            self._log.flush()
            self._dirty_reads = False

    def _line(self, token: str) -> bytes:
        """The log line, newline included, that the entry of token points
        at, once checked to frame the record that token names: it
        starts with that record's start tag (``line_oid``), ends with
        ``</o>`` and holds no other newline."""
        self._flush_puts()
        offset, length = self._entries[token]
        # positioned read: no shared seek state, so concurrent readers on
        # one handle stay safe (single-writer/multi-reader contract)
        line = os.pread(self._reader.fileno(), length + 1, offset)
        # the line was validated and checksummed when it was accepted;
        # what is left to check is that the entry frames that record
        if not (
            line_oid(line) == token
            and line.endswith(b"</o>\n")
            and line.find(b"\n") == length
        ):
            raise StoreError(
                f"log line at byte {offset} of {self.directory} "
                f"does not frame record {token!r}"
            )
        return line

    def scan_lines(self) -> Iterator[bytes]:
        """The framed log lines in byte-wise OID order, then a re-read of
        the whole log: StoreError unless its CRC-32 is still the one kept
        since open, so every line handed out is one that was validated when
        it entered the log, unchanged since."""
        yield from super().scan_lines()
        self._flush_puts()
        if self._log_crc() != self._crc:
            raise StoreError(f"log at {self.directory} changed while the store was open")

    def commit(self) -> None:
        if self._marked == self._log_len:
            return  # nothing put since the last mark
        self._append(self._mark())
        self._flush_puts()
        getattr(os, "fdatasync", os.fsync)(self._log.fileno())
        self._marked = self._log_len

    def _mark(self) -> bytes:
        """The mark line of the log as it stands."""
        return b"#%08x %d\n" % (self._crc, self._log_len)

    def checkpoint(self) -> object:
        return (self._log_len, self._crc, self._marked)

    def rollback(self, token: object) -> None:
        log_len, crc, self._marked = token
        self._log.flush()
        self._log.truncate(log_len)
        self._log.seek(log_len)
        # the log is append-only: whatever was put after the checkpoint
        # lies at or past log_len
        self._entries = {t: entry for t, entry in self._entries.items() if entry[0] < log_len}
        self._log_len = log_len
        self._crc = crc
        self._dirty_reads = True


# a mark line without its newline: the CRC-32 of the log before it, then its length
_MARK = re.compile(rb"#([0-9a-f]{8}) (0|[1-9][0-9]*)")


def _framed_oid(line: bytes, complete: bool, offset: int) -> str | None:
    """The OID token of a log line that starts with a start tag and ends
    with ``</o>`` and a newline; the CRC of a later mark vouches for the rest."""
    return line_oid(line) if complete and line.endswith(b"</o>") else None


def _encode_line(record: ObjectRecord, layouts: LayoutIndex) -> bytes:
    return (format_record(record, layouts) + "\n").encode("utf-8")


def _names_file(path: Path, fd: int) -> bool:
    """Whether the file open as fd is the one now linked at path."""
    try:
        return os.path.samestat(os.fstat(fd), os.stat(path))
    except FileNotFoundError:
        return False


def _require_same_model(*models: ClassModel) -> None:
    # one model object, as the CLI passes everywhere, needs no dumps
    if any(m is not models[0] for m in models) and len({dump_model(m) for m in models}) > 1:
        raise ModelMismatchError("operation requires identically shaped models")


def _ingest(handle: StoreAdapter, items: Iterable[tuple[str, bytes, Iterable[str]]]) -> int:
    """Store each (OID token, canonical line, reference target tokens) of
    items as it arrives, check that every referenced OID is then stored,
    and commit; return the number of lines stored. On any failure the
    store is rolled back to where it was. The duplicate-OID check is
    _put_line's. Memory is one line in flight plus the set of referenced
    OID tokens."""
    checkpoint = handle.checkpoint()
    pending: set[str] = set()
    stored = 0
    try:
        for token, line, refs in items:
            handle._put_line(token, line)
            stored += 1
            pending.update(refs)
        missing = sorted(t for t in pending if not handle.contains(Oid(t)))
        if missing:
            raise DanglingRefError(missing)
        handle.commit()
    except (TransodbError, OSError):
        handle.rollback(checkpoint)
        raise
    return stored


def import_document(data: bytes, model: ClassModel, handle: StoreAdapter) -> int:
    """Load a canonical document into an open store.

    Import is strict: the document must be byte for byte what
    CanonicalWriter writes (``accept_document``), so its export gives the
    same bytes back. Single pass: each record line is checked by the
    schema-compiled LineAcceptor and stored as it is, with no decode and no
    re-formatting; referenced OIDs accumulate in a pending set checked
    against the store afterwards. Any failure aborts without commit and
    restores the pre-import state; a DocumentError names the document line.
    """
    _require_same_model(model, handle.model)
    return _ingest(handle, accept_document(data, model, handle._layouts))


def export_to(handle: StoreAdapter, model: ClassModel, out: BinaryIO) -> int:
    """Stream the store's content as a canonical document into `out`.

    The body is the store's scan_lines copied as they are: every backend
    holds the canonical line of each record, checked when it was stored
    (and, in a FileStore, shown unchanged since by the log CRC-32, at open
    and again at the end of scan_lines).
    """
    _require_same_model(model, handle.model)
    writer = CanonicalWriter(model, out)
    writer.begin()
    count = 0
    for line in handle.scan_lines():
        out.write(line)
        count += 1
    writer.end()
    return count


def export_store(handle: StoreAdapter, model: ClassModel) -> bytes:
    """Canonical document equal to write_canonical over the scan stream."""
    buf = io.BytesIO()
    export_to(handle, model, buf)
    return buf.getvalue()


def migrate(src: StoreAdapter, dst: StoreAdapter, model: ClassModel) -> int:
    """Move every record from src into dst, line by line.

    Equivalent to exporting src and importing the document into dst, but
    with no intermediate document and no decode: each canonical line of
    src is copied into dst as it is, its OID and reference tokens read
    from its bytes (``line_oid``, ``line_refs``). The lines were validated
    when they entered src, and a FileStore src ends scan_lines with a log
    CRC-32 check that they are unchanged since. The duplicate-OID and
    closure checks run as for an import, and dst is rolled back on any
    failure.
    """
    _require_same_model(model, src.model, dst.model)
    return _ingest(dst, ((line_oid(line), line, line_refs(line)) for line in src.scan_lines()))
