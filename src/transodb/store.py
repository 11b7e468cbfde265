"""Storage backends behind one adapter contract, plus the document-level
import/export/migrate operations built on it.

A store holds canonical record lines (``format_record`` plus a newline,
UTF-8) keyed by OID token; records are a decoded view of them. The
adapter base writes the public surface once: put (record_line checks and
writes the line in one pass; no overwrite), get and scan
(LineAcceptor.record: accept, then read by the grammar), contains,
count, and scan_lines in byte-wise OID order. A
backend supplies only line storage: append a line, read one back,
commit, checkpoint/rollback (so imports stay atomic on any backend) and
close. MemStore is a plain in-process map of lines; FileStore is an
append-only log of record lines and commit marks, bound to its model by
a schema.xsd that must be emit_schema's bytes for it; open frames the
log in one pass over its lines, keeps what its last mark commits, and
checks the kept lines with LineAcceptor when that mark does not check
out; it reads its own bytes only by the strict line grammar (line_oid,
LineAcceptor), never by a decoder. import_document takes only canonical
documents and, like migrate, stores their lines as they are through one
load that rolls back on any failure.

One handle tolerates a single writing thread or any number of reading
threads; concurrent writers to one FileStore directory are rejected by
the flock an open store holds on its LOCK file, an empty file that stays
in the directory.
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
from typing import BinaryIO, Iterable, Iterator

from .errors import ModelMismatchError, TransodbError
from .model import ClassModel
from .objectxml import (
    CanonicalWriter,
    ObjectRecord,
    Oid,
    accept_document,
    line_oid,
    line_refs,
    record_line,
)

_READ_BUFFER = 64 * 1024  # bytes per read of the log, at open and in its CRC checks


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
    scan read a fresh record from a stored line that the model's
    LineAcceptor accepts, and raise StoreError on any other. scan yields
    records in byte-wise OID order regardless of insertion order, and after
    commit reflects every accepted put. A backend
    keeps one entry per stored OID token in ``_entries`` (whatever
    ``_append`` returned) and reads the line back with ``_line``.
    """

    def __init__(self, model: ClassModel):
        self.model = model
        self._entries: dict = {}

    def put(self, record: ObjectRecord) -> None:
        token, line = record_line(record, self.model.layouts)
        self._put_line(token, line.encode("utf-8"))

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
        record = self.model.layouts.acceptor.record(line)
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
    lowercase hex digits, a space and that length. A new store writes its
    log, which starts with ``#00000000 0``, before ``schema.xsd``, so a
    store with a ``schema.xsd`` must have its log; only that creation
    fsyncs the directory. Commit appends a mark, if anything was put since
    the last, and syncs the log: the mark is the commit point.
    ``index.idx``, the same line for the whole log, is written unsynced at
    close and read by nothing here.

    Open reads the log's lines once and frames each (``_read_log``). It
    keeps the lines before the last mark, whose CRC-32 covers every byte
    before it, and truncates the log after that mark (a mark that lacks
    only its newline gets it back); a log with no mark (written before
    marks) keeps every line but a torn append. Unless that mark checks
    out, the kept lines are then checked with LineAcceptor, which rejects
    as corruption any line that is not the canonical line of a valid
    record, and committed. So every line an entry points at is a validated
    canonical line; ``_line`` hands one out only after checking that it
    frames the record its key names, and ``scan_lines`` ends by checking
    the CRC-32 of the log again, so an edit to the log while the store is
    open fails an export or a migrate instead of being copied.

    Checkpoint is the log length, CRC and last mark; as the log is
    append-only, rollback truncates the log there and drops the entries at
    or past that length.

    An open store holds an exclusive flock on ``LOCK``, an empty file that
    stays in the directory, so a second open of it fails. Closing the
    store, or the death of its process, drops the flock, so a killed
    writer leaves the store openable.
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
        fd = os.open(self.directory / self.LOCK_FILE, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise StoreLockedError(f"{self.directory} is locked by another writer") from None
        self._lock_fd = fd

    def _open_files(self, create: bool) -> None:
        schema_path = self.directory / self.SCHEMA_FILE
        log_path = self.directory / self.LOG_FILE
        schema = self.model.schema_xsd
        bound = schema_path.exists()
        if bound:
            if schema_path.read_bytes() != schema:
                raise ModelMismatchError(
                    f"store at {self.directory} is bound to a different schema"
                )
            if not log_path.exists():
                raise FileNotFoundError(f"{log_path} is missing")
        elif not create:
            raise FileNotFoundError(f"{schema_path} is missing")
        # the log comes first, so a creator killed before schema.xsd
        # leaves a directory the next create=True open finishes
        self._log = open(log_path, "ab")
        self._reader = open(log_path, "rb", buffering=_READ_BUFFER)
        if not bound:
            with open(schema_path, "wb") as fh:
                fh.write(schema)
                fh.flush()
                os.fsync(fh.fileno())
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
        if self._lock_fd is not None:
            os.close(self._lock_fd)  # drops the flock
            self._lock_fd = None

    # -- marks -------------------------------------------------------------

    def _load_index(self, size: int) -> None:
        """Set the entries, the log CRC and the last mark from the log,
        size bytes, as the class docstring says."""
        mark, unframed = self._read_log()
        if mark:
            self._log_len, self._crc, kept, checks = mark
            if len(self._entries) > kept:
                self._entries = dict(islice(self._entries.items(), kept))
            self._marked = self._log_len if checks else None
        if self._marked is None:
            self._rebuild_index(unframed)
        if self._log_len < size:  # drop what was never committed
            self._log.truncate(self._log_len)
        elif self._log_len > size:  # a kept last line cut short: write its lost newline
            self._log.write(b"\n")
            self._log.flush()
        if not mark:  # a log written before marks: its CRC-32, newline included
            self._crc = self._log_crc(0, 0, self._log_len)
        self.commit()
        if size == 0:  # a new log: make the directory's new names durable
            fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def _read_log(self) -> tuple[tuple | None, int | None]:
        """Frame the log line by line. A record line starts with a start
        tag (line_oid) and ends with ``</o>``; its entry is noted, and a
        repeated OID raises. ``</o>`` can end only a whole canonical line,
        since text escapes ``<`` and ``o`` is a reserved field name, so a
        last line cut short before it is a torn append and ends the pass;
        one cut after it is a record line only if no mark came before it,
        since after a mark it is uncommitted. A cut last line is framed
        with the newline it lacks, which counts in _log_len (set to the end
        of the lines read), as it may be written back. Returns the last
        mark, or None, as (its end, the CRC-32 to there, the entries before
        it, whether its CRC-32 and length are the log's before it and every
        line there framed; a cut mark counts only if so), and the offset of
        the first line that is neither a record line nor a mark, or None."""
        self._entries = entries = {}
        offset = crc = crc_end = 0  # crc is the CRC-32 of the first crc_end log bytes
        mark = unframed = None
        whole = True
        for line in self._reader:
            if line[-1] != 10:  # the cut last line
                whole, line = False, line + b"\n"
            if line.endswith(b"</o>\n") and (whole or not mark) and (token := line_oid(line)):
                if token in entries:
                    raise StoreError(f"log at {self.directory} holds duplicate OID {token!r}")
                entries[token] = (offset, len(line) - 1)
            elif head := _MARK.fullmatch(line):
                crc, crc_end = self._log_crc(crc, crc_end, offset), offset
                checks = unframed is None and int(head[2]) == offset and int(head[1], 16) == crc
                if not (whole or checks):
                    break
                mark = (offset + len(line), zlib.crc32(line, crc), len(entries), checks)
            elif not (whole or line.endswith(b"</o>\n")):
                break  # a torn append
            elif unframed is None:
                unframed = offset
            offset += len(line)
        self._log_len = offset
        return mark, unframed

    def _log_crc(self, crc: int, start: int, end: int) -> int:
        """crc folded over the log's bytes from start to end, or to its
        end if that comes first, read in fixed chunks."""
        fd = self._reader.fileno()
        while start < end and (chunk := os.pread(fd, min(_READ_BUFFER, end - start), start)):
            crc = zlib.crc32(chunk, crc)
            start += len(chunk)
        return crc

    def _rebuild_index(self, unframed: int | None) -> None:
        """Check the entries _read_log kept, each line read with one pread,
        by LineAcceptor, which takes only the canonical line of a valid
        record; no line is decoded. A rejected entry, or a line before
        _log_len that did not frame (unframed), is corruption: StoreError
        names the first such offset."""
        accept, fd = self.model.layouts.acceptor.accept, self._reader.fileno()
        rejected = (
            offset
            for offset, length in self._entries.values()
            if accept(os.pread(fd, length, offset) + b"\n") is None
        )
        bad = min(next(rejected, self._log_len), self._log_len if unframed is None else unframed)
        if bad < self._log_len:
            raise StoreError(f"log at {self.directory} is corrupt at byte {bad}")

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
        if self._log_crc(0, 0, os.fstat(self._reader.fileno()).st_size) != self._crc:
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


# a mark line: the CRC-32 of the log before it, then its length, then its newline
_MARK = re.compile(rb"#([0-9a-f]{8}) (0|[1-9][0-9]*)\n")


def _require_same_model(*models: ClassModel) -> None:
    if len({m.dump for m in models}) > 1:
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
    return _ingest(handle, accept_document(data, model))


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
