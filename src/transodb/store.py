"""Storage backends behind one adapter contract, plus the document-level
import/export/migrate operations built on it.

Every backend exposes the same surface: put (no overwrite), get, scan in
byte-wise OID order, count, commit, close. Checkpoint/rollback exists so
imports stay atomic on any backend. MemStore is a plain in-process map;
FileStore pairs an append-only record log with an offset index that is
rebuilt from the log whenever it is missing or stale.

One handle tolerates a single writing thread or any number of reading
threads; concurrent writers to one FileStore directory are rejected via
the LOCK file taken at open.
"""

from __future__ import annotations

import io
import os
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
    (``OID<TAB>offset<TAB>length`` sorted by OID, rewritten at commit) and a
    ``LOCK`` file that rejects concurrent opens of one directory.
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
        self._locked = False
        self._log: BinaryIO | None = None
        self._reader: BinaryIO | None = None
        self._log_len = 0
        self._dirty_reads = False

        if not self.directory.exists():
            if not create:
                raise FileNotFoundError(f"store directory {self.directory} does not exist")
            self.directory.mkdir(parents=True)
        self._acquire_lock()
        try:
            self._open_files(create)
        except BaseException:
            self._release_lock()
            raise

    # -- lifecycle --------------------------------------------------------

    def _acquire_lock(self) -> None:
        if os.environ.get(NO_LOCK_ENV) == "1":
            return
        path = self.directory / self.LOCK_FILE
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StoreLockedError(
                f"{self.directory} is locked by another writer (remove {path} if stale)"
            ) from None
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        self._locked = True

    def _release_lock(self) -> None:
        if self._locked:
            (self.directory / self.LOCK_FILE).unlink(missing_ok=True)
            self._locked = False

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
        path = self.directory / self.INDEX_FILE
        entries: dict[str, tuple[int, int]] = {}
        usable = path.exists()
        if usable:
            try:
                for line in path.read_text(encoding="utf-8").splitlines():
                    token, offset, length = line.split("\t")
                    entries[token] = (int(offset), int(length))
            except ValueError:
                usable = False
        if usable:
            covered = sum(length + 1 for _, length in entries.values())
            usable = covered == self._log_len
        if usable:
            self._index = entries
            self._insertion = sorted(entries, key=lambda t: entries[t][0])
        else:
            self._rebuild_index()
            self._write_index()

    def _rebuild_index(self) -> None:
        """Recover the index by scanning the record log.

        A final line without a newline is a torn append from a crash; it is
        dropped and the log truncated. Damage anywhere else is corruption
        and raises."""
        self._index = {}
        self._insertion = []
        offset = 0
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
            token = record.oid.token
            if token in self._index:
                raise StoreError(f"log at {self.directory} holds duplicate OID {token!r}")
            self._index[token] = (offset, len(raw) if not complete else len(raw) - 1)
            self._insertion.append(token)
            if not complete:
                # full record text landed but the newline did not; finish it
                self._log.write(b"\n")
                self._log.flush()
                raw += b"\n"
            offset += len(raw)
        self._log_len = offset

    def _write_index(self) -> None:
        path = self.directory / self.INDEX_FILE
        tmp = path.with_suffix(".idx.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
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
        data = format_record(record, self._layouts).encode("utf-8")
        self._log.write(data + b"\n")
        self._index[token] = (self._log_len, len(data))
        self._insertion.append(token)
        self._log_len += len(data) + 1
        self._dirty_reads = True

    def _read_at(self, token: str) -> ObjectRecord:
        if self._dirty_reads:
            self._log.flush()
            self._dirty_reads = False
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

    def count(self) -> int:
        return len(self._index)

    def commit(self) -> None:
        self._log.flush()
        os.fsync(self._log.fileno())
        self._write_index()

    def checkpoint(self) -> object:
        return (self._log_len, len(self._insertion))

    def rollback(self, token: object) -> None:
        log_len, kept = token
        self._log.flush()
        self._log.truncate(log_len)
        self._log.seek(log_len)
        for dropped in self._insertion[kept:]:
            del self._index[dropped]
        del self._insertion[kept:]
        self._log_len = log_len
        self._dirty_reads = True


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
    """Stream the store's content as a canonical document into `out`."""
    _require_same_model(model, handle.model)
    writer = CanonicalWriter(model, out)
    writer.begin()
    for record in handle.scan():
        if instrumentation is not None:
            instrumentation.record_opened()
        writer.record(record)
        if instrumentation is not None:
            instrumentation.record_closed()
    writer.end()
    return writer.count


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
