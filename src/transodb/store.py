"""Storage backends behind one adapter contract, plus the document-level
import/export/migrate operations built on it.

Every backend exposes the same surface: put (no overwrite), get, scan and
scan_lines in byte-wise OID order, count, commit, close. Checkpoint/rollback
exists so imports stay atomic on any backend. MemStore is a plain
in-process map; FileStore pairs an append-only record log with an offset
index that carries a CRC-32 of the log and is rebuilt from the log whenever
it is missing or stale.

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
from pathlib import Path
from typing import BinaryIO, Iterator

from .errors import ModelMismatchError, TransodbError
from .model import ClassModel, LayoutIndex, dump_model
from .objectxml import (
    CanonicalWriter,
    DocumentError,
    ObjectRecord,
    Oid,
    decode_record_line,
    format_record,
    iter_refs,
    read_canonical,
    schema_hash,
    validate_record,
)
from .xsd import emit_schema, parse_schema

NO_LOCK_ENV = "TRANSODB_NO_LOCK"
_CRC_CHUNK = 64 * 1024  # bytes per read while checking the log at open


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

    The bound model is fixed at open; put validates against it. scan yields
    records in byte-wise OID order regardless of insertion order, and after
    commit reflects every accepted put.
    """

    model: ClassModel

    @abstractmethod
    def put(self, record: ObjectRecord) -> None: ...

    @abstractmethod
    def get(self, oid: Oid) -> ObjectRecord | None: ...

    def contains(self, oid: Oid) -> bool:
        return self.get(oid) is not None

    @abstractmethod
    def scan(self) -> Iterator[ObjectRecord]: ...

    @abstractmethod
    def scan_lines(self) -> Iterator[bytes]:
        """The canonical record lines, each ending in a newline, in the
        order of scan: ``format_record`` of each record, UTF-8 encoded."""

    @abstractmethod
    def count(self) -> int: ...

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
    """In-process backend; commit is a no-op."""

    def __init__(self, model: ClassModel):
        self.model = model
        self._layouts = LayoutIndex(model)
        self._records: dict[str, ObjectRecord] = {}

    def put(self, record: ObjectRecord) -> None:
        validate_record(record, self.model, self._layouts)
        token = record.oid.token
        if token in self._records:
            raise DuplicateOidError(f"OID {token!r} already stored")
        self._records[token] = record

    def get(self, oid: Oid) -> ObjectRecord | None:
        return self._records.get(oid.token)

    def contains(self, oid: Oid) -> bool:
        return oid.token in self._records

    def scan(self) -> Iterator[ObjectRecord]:
        for token in sorted(self._records):
            yield self._records[token]

    def scan_lines(self) -> Iterator[bytes]:
        # records are caller-owned and mutable, so each is checked again
        for token in sorted(self._records):
            record = self._records[token]
            validate_record(record, self.model, self._layouts)
            if record.oid.token != token:
                raise StoreError(f"record stored as {token!r} now has OID {record.oid.token!r}")
            yield _encode_line(record, self._layouts)

    def count(self) -> int:
        return len(self._records)

    def commit(self) -> None:
        pass

    def close(self) -> None:
        pass

    def checkpoint(self) -> object:
        return len(self._records)

    def rollback(self, token: object) -> None:
        keep = int(token)
        # dicts preserve insertion order, so the tail is what came after.
        for key in list(self._records)[keep:]:
            del self._records[key]


class FileStore(StoreAdapter):
    """Directory-backed store.

    Layout: ``schema.xsd`` (the bound model), ``objects.log`` (one canonical
    record line per put, append-only, insertion order), ``index.idx``
    (rewritten at commit) and ``LOCK``. The index starts with a header line
    ``#`` plus the CRC-32 of the whole log as 8 lowercase hex digits, then
    holds ``OID<TAB>offset<TAB>length`` per record, sorted by OID.

    Open accepts the index only if its header parses, its lengths cover the
    log and the CRC-32 of the log equals the header; otherwise it rebuilds
    the index from the log. The rebuild decodes and validates every line
    and rejects as corruption any line that is not the canonical form of
    its own record. So every line an accepted index points at is a
    validated canonical line, and scan_lines copies it once it has checked
    that the line frames the record its index key names.

    An open store holds an exclusive flock on ``LOCK``, which rejects
    concurrent opens of one directory; the kernel drops it when the
    process dies, so a killed writer leaves the store openable.
    """

    SCHEMA_FILE = "schema.xsd"
    LOG_FILE = "objects.log"
    INDEX_FILE = "index.idx"
    LOCK_FILE = "LOCK"

    def __init__(self, directory: str | Path, model: ClassModel, create: bool = True):
        self.directory = Path(directory)
        self.model = model
        self._layouts = LayoutIndex(model)
        self._index: dict[str, tuple[int, int]] = {}
        self._insertion: list[str] = []
        self._lock_fd: int | None = None
        self._log: BinaryIO | None = None
        self._reader: BinaryIO | None = None
        self._log_len = 0
        self._crc = 0  # CRC-32 of the first _log_len log bytes
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
        if os.environ.get(NO_LOCK_ENV) == "1":
            return
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
        if schema_path.exists():
            parsed, diags = parse_schema(schema_path.read_bytes(), self.model.name)
            if parsed is None:
                raise StoreError(
                    f"{schema_path} does not parse: " + "; ".join(str(d) for d in diags)
                )
            if schema_hash(parsed) != schema_hash(self.model):
                raise ModelMismatchError(
                    f"store at {self.directory} is bound to a different schema"
                )
        elif create:
            schema_path.write_text(emit_schema(self.model), encoding="utf-8")
        else:
            raise FileNotFoundError(f"{schema_path} is missing")

        log_path = self.directory / self.LOG_FILE
        self._log = open(log_path, "ab")
        self._reader = open(log_path, "rb")
        self._log_len = self._log.tell()
        self._load_index()

    def close(self) -> None:
        if self._log is not None:
            self._log.flush()
            self._log.close()
            self._log = None
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        self._release_lock()

    # -- index maintenance -------------------------------------------------

    def _load_index(self) -> None:
        try:
            crc, entries = _parse_index(
                (self.directory / self.INDEX_FILE).read_text(encoding="utf-8")
            )
        except (FileNotFoundError, ValueError):
            pass
        else:
            covered = sum(length + 1 for _, length in entries.values())
            if covered == self._log_len and self._log_crc() == crc:
                self._index = entries
                self._insertion = sorted(entries, key=lambda t: entries[t][0])
                self._crc = crc
                return
        self._rebuild_index()
        self._write_index()

    def _log_crc(self) -> int:
        """CRC-32 of the whole log, read in fixed chunks."""
        crc = offset = 0
        while chunk := os.pread(self._reader.fileno(), _CRC_CHUNK, offset):
            crc = zlib.crc32(chunk, crc)
            offset += len(chunk)
        return crc

    def _rebuild_index(self) -> None:
        """Recover the index and the log CRC by scanning the record log.

        A final line without a newline is a torn append from a crash; it is
        dropped and the log truncated. Damage anywhere else, including a
        line that decodes but is not its record's canonical form, is
        corruption and raises."""
        self._index = {}
        self._insertion = []
        crc = offset = 0
        self._reader.seek(0)
        for raw in self._reader:
            complete = raw.endswith(b"\n")
            try:
                record = decode_record_line(raw, self.model, self._layouts)
            except DocumentError:
                if not complete:
                    self._log.flush()
                    self._log.truncate(offset)
                    break
                raise StoreError(
                    f"log at {self.directory} is corrupt at byte {offset}"
                ) from None
            line = raw if complete else raw + b"\n"
            if line != _encode_line(record, self._layouts):
                raise StoreError(
                    f"log at {self.directory} holds a non-canonical record at byte {offset}"
                )
            token = record.oid.token
            if token in self._index:
                raise StoreError(f"log at {self.directory} holds duplicate OID {token!r}")
            self._index[token] = (offset, len(line) - 1)
            self._insertion.append(token)
            if not complete:
                # full record text landed but the newline did not; finish it
                self._log.write(b"\n")
                self._log.flush()
            crc = zlib.crc32(line, crc)
            offset += len(line)
        self._log_len = offset
        self._crc = crc

    def _write_index(self) -> None:
        path = self.directory / self.INDEX_FILE
        tmp = path.with_suffix(".idx.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f"#{self._crc:08x}\n")
            for token in sorted(self._index):
                offset, length = self._index[token]
                fh.write(f"{token}\t{offset}\t{length}\n")
        os.replace(tmp, path)

    # -- contract ----------------------------------------------------------

    def put(self, record: ObjectRecord) -> None:
        validate_record(record, self.model, self._layouts)
        token = record.oid.token
        if token in self._index:
            raise DuplicateOidError(f"OID {token!r} already stored")
        line = _encode_line(record, self._layouts)
        self._log.write(line)
        self._index[token] = (self._log_len, len(line) - 1)
        self._insertion.append(token)
        self._log_len += len(line)
        self._crc = zlib.crc32(line, self._crc)
        self._dirty_reads = True

    def _flush_puts(self) -> None:
        if self._dirty_reads:
            self._log.flush()
            self._dirty_reads = False

    def _read_at(self, token: str) -> ObjectRecord:
        self._flush_puts()
        offset, length = self._index[token]
        # positioned read: no shared seek state, so concurrent readers on
        # one handle stay safe (single-writer/multi-reader contract)
        line = os.pread(self._reader.fileno(), length, offset)
        return decode_record_line(line, self.model, self._layouts)

    def get(self, oid: Oid) -> ObjectRecord | None:
        if oid.token not in self._index:
            return None
        return self._read_at(oid.token)

    def contains(self, oid: Oid) -> bool:
        return oid.token in self._index

    def scan(self) -> Iterator[ObjectRecord]:
        for token in sorted(self._index):
            yield self._read_at(token)

    def scan_lines(self) -> Iterator[bytes]:
        self._flush_puts()
        fd = self._reader.fileno()
        for token in sorted(self._index):
            offset, length = self._index[token]
            line = os.pread(fd, length + 1, offset)
            # the line was validated and checksummed when it was accepted;
            # what is left to check is that the entry frames that record
            if not (
                line.startswith(b'<o c="')
                and line.startswith(b'" id="%s">' % token.encode(), line.find(b'"', 6))
                and line.endswith(b"</o>\n")
                and line.find(b"\n") == length
            ):
                raise StoreError(
                    f"index entry {token!r} at byte {offset} of {self.directory} "
                    f"does not frame its record"
                )
            yield line

    def count(self) -> int:
        return len(self._index)

    def commit(self) -> None:
        self._log.flush()
        os.fsync(self._log.fileno())
        self._write_index()

    def checkpoint(self) -> object:
        return (self._log_len, len(self._insertion), self._crc)

    def rollback(self, token: object) -> None:
        log_len, kept, crc = token
        self._log.flush()
        self._log.truncate(log_len)
        self._log.seek(log_len)
        for dropped in self._insertion[kept:]:
            del self._index[dropped]
        del self._insertion[kept:]
        self._log_len = log_len
        self._crc = crc
        self._dirty_reads = True


_INDEX_HEADER = re.compile(r"#([0-9a-f]{8})\Z")


def _parse_index(text: str) -> tuple[int, dict[str, tuple[int, int]]]:
    """(log CRC, entries) of an index file; ValueError if malformed."""
    header, *lines = text.splitlines()
    match = _INDEX_HEADER.match(header)
    if match is None:
        raise ValueError(f"index header {header!r} is not a log CRC")
    entries = {}
    for line in lines:
        token, offset, length = line.split("\t")
        entries[token] = (int(offset), int(length))
    return int(match[1], 16), entries


def _encode_line(record: ObjectRecord, layouts: LayoutIndex) -> bytes:
    return (format_record(record, layouts) + "\n").encode("utf-8")


def _names_file(path: Path, fd: int) -> bool:
    """Whether the file open as fd is the one now linked at path."""
    try:
        return os.path.samestat(os.fstat(fd), os.stat(path))
    except FileNotFoundError:
        return False


def _require_same_model(*models: ClassModel) -> None:
    dumps = {dump_model(m) for m in models}
    if len(dumps) > 1:
        raise ModelMismatchError("operation requires identically shaped models")


class _Ingest:
    """One streaming load into a store: records are put as they arrive and
    the destination rolls back unless the closure check passes. Memory is
    one record in flight plus the set of referenced OID tokens."""

    def __init__(self, handle: StoreAdapter, instrumentation=None):
        self.handle = handle
        self.layouts = LayoutIndex(handle.model)
        self.token = handle.checkpoint()
        self.pending: set[str] = set()
        self.stored = 0
        self.instrumentation = instrumentation

    def accept(self, record: ObjectRecord) -> None:
        self.handle.put(record)
        self.stored += 1
        for _, _, target in iter_refs(record, self.layouts):
            self.pending.add(target.token)
        if self.instrumentation is not None:
            self.instrumentation.note_pending(len(self.pending))

    def finish(self) -> int:
        missing = sorted(t for t in self.pending if not self.handle.contains(Oid(t)))
        if missing:
            raise DanglingRefError(missing)
        self.handle.commit()
        return self.stored

    def abort(self) -> None:
        self.handle.rollback(self.token)


def import_document(
    data: bytes,
    model: ClassModel,
    handle: StoreAdapter,
    instrumentation=None,
) -> int:
    """Load a canonical document into an open store.

    Single pass: each decoded record is put immediately; referenced OIDs
    accumulate in a pending set checked against the store afterwards. Any
    failure aborts without commit and restores the pre-import state.
    """
    _require_same_model(model, handle.model)
    ingest = _Ingest(handle, instrumentation)
    try:
        read_canonical(data, model, ingest.accept, instrumentation=instrumentation)
        return ingest.finish()
    except (TransodbError, OSError):
        ingest.abort()
        raise


def export_to(handle: StoreAdapter, model: ClassModel, out: BinaryIO, instrumentation=None) -> int:
    """Stream the store's content as a canonical document into `out`.

    The body is the store's scan_lines copied as they are: a FileStore
    hands out log lines it verified at open, a MemStore validates and
    formats each record.
    """
    _require_same_model(model, handle.model)
    writer = CanonicalWriter(model, out)
    writer.begin()
    count = 0
    for line in handle.scan_lines():
        if instrumentation is not None:
            instrumentation.record_opened()
        out.write(line)
        count += 1
        if instrumentation is not None:
            instrumentation.record_closed()
    writer.end()
    return count


def export_store(handle: StoreAdapter, model: ClassModel, instrumentation=None) -> bytes:
    """Canonical document equal to write_canonical over the scan stream."""
    buf = io.BytesIO()
    export_to(handle, model, buf, instrumentation=instrumentation)
    return buf.getvalue()


def migrate(src: StoreAdapter, dst: StoreAdapter, model: ClassModel, instrumentation=None) -> int:
    """Move every record from src into dst, record by record.

    Equivalent to exporting src and importing the document into dst, but
    with no intermediate document. dst is rolled back on any failure.
    """
    _require_same_model(model, src.model, dst.model)
    ingest = _Ingest(dst, instrumentation)
    try:
        for record in src.scan():
            if instrumentation is not None:
                instrumentation.record_opened()
            ingest.accept(record)
            if instrumentation is not None:
                instrumentation.record_closed()
        return ingest.finish()
    except (TransodbError, OSError):
        ingest.abort()
        raise
