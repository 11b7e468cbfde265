"""Adapter contract conformance, FileStore durability, and the document
import/export/migrate operations."""

import fcntl
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import transodb
from transodb import (
    DanglingRefError,
    DocumentError,
    DuplicateOidError,
    FileStore,
    MemStore,
    ModelMismatchError,
    ObjectRecord,
    Oid,
    StoreError,
    StoreLockedError,
    TransodbError,
    build_graph,
    export_store,
    import_document,
    migrate,
    read_canonical,
    schema_hash,
    synthesize_graph,
    write_canonical,
)
from transodb.bench import bench_model
from transodb.conformance import check_adapter_contract, random_graph, random_model
from transodb.graph import records_equal
from transodb.model import LayoutIndex
from transodb.objectxml import format_record

from conftest import person, stream_through_file_store


def make_factories(kind, tmp_path, model):
    counter = [0]

    def make():
        if kind == "mem":
            return MemStore(model)
        counter[0] += 1
        return FileStore(tmp_path / f"store{counter[0]}", model)

    def reopen(store):
        if kind == "mem":
            return store
        directory = store.directory
        store.close()
        return FileStore(directory, model)

    return make, reopen


@pytest.mark.parametrize("kind", ["mem", "file"])
def test_adapter_contract(kind, tmp_path):
    model = random_model(3)
    graph = random_graph(model, 5, 60)
    make, reopen = make_factories(kind, tmp_path, model)
    check_adapter_contract(make, graph, reopen=reopen if kind == "file" else None)


@pytest.mark.parametrize("kind", ["mem", "file"])
def test_contract_on_empty_graph(kind, tmp_path):
    model = random_model(1)
    graph = build_graph([], model)
    make, reopen = make_factories(kind, tmp_path, model)
    check_adapter_contract(make, graph, reopen=reopen if kind == "file" else None)


@pytest.mark.parametrize("kind", ["mem", "file"])
def test_put_copies_the_record(kind, family_model, tmp_path):
    make, _ = make_factories(kind, tmp_path, family_model)
    store = make()
    record = person("p1", name="kept", age=30)
    store.put(record)
    store.commit()
    committed = export_store(store, family_model)

    record.values["name"] = "changed"
    record.values["age"] = "not an integer"

    assert records_equal(store.get(Oid("p1")), person("p1", name="kept", age=30))
    assert [r.values["name"] for r in store.scan()] == ["kept"]
    assert export_store(store, family_model) == committed
    assert committed == write_canonical([person("p1", name="kept", age=30)], family_model)
    store.close()


def test_put_validates_against_bound_model(person_model, tmp_path):
    store = FileStore(tmp_path / "s", person_model)
    from transodb import ObjectRecord, RecordError

    with pytest.raises(RecordError):
        store.put(ObjectRecord("Ghost", Oid("g"), {}))
    store.close()


# -- FileStore specifics --------------------------------------------------------


def test_stores_on_one_model_share_its_line_acceptor(family_model, tmp_path, monkeypatch):
    """Every store opened on one model checks and reads lines through the
    model's one LineAcceptor, built on first use, not one per open."""
    built, real = [], transodb.objectxml.LineAcceptor
    monkeypatch.setattr(
        transodb.objectxml, "LineAcceptor", lambda layouts: built.append(1) or real(layouts)
    )
    doc = write_canonical([person("p1"), person("p2", spouse=Oid("p1"))], family_model)
    for name in ("a", "b"):
        with FileStore(tmp_path / name, family_model) as store:
            import_document(doc, family_model, store)
            assert store.get(Oid("p2")).values["spouse"] == Oid("p1")
    assert built == [1]


def test_stores_on_one_model_render_its_schema_once(family_model, tmp_path, monkeypatch):
    """Every open compares schema.xsd with the model's emit_schema bytes,
    rendered on first use and kept, not once per open."""
    rendered, real = [], transodb.xsd.emit_schema

    def counting(model):
        rendered.append(1)
        return real(model)

    monkeypatch.setattr(transodb.xsd, "emit_schema", counting)
    monkeypatch.setattr(transodb.store, "emit_schema", counting, raising=False)
    for _ in range(2):  # create, then reopen
        FileStore(tmp_path / "s", family_model).close()
    assert rendered == [1]


def test_lock_rejects_second_writer(person_model, tmp_path):
    first = FileStore(tmp_path / "s", person_model)
    with pytest.raises(StoreLockedError):
        FileStore(tmp_path / "s", person_model)
    first.close()
    second = FileStore(tmp_path / "s", person_model)  # released on close
    second.close()
    assert (tmp_path / "s" / "LOCK").read_bytes() == b""  # it stays, empty


def test_open_checks_schema_hash(person_model, family_model, tmp_path):
    store = FileStore(tmp_path / "s", person_model)
    store.close()
    with pytest.raises(ModelMismatchError):
        FileStore(tmp_path / "s", family_model)


@pytest.mark.parametrize("edit", ["reindented", "garbage"])
def test_open_requires_the_schema_file_the_store_wrote(edit, family_model, tmp_path):
    """schema.xsd must be the bytes emit_schema wrote at creation: a
    same-model XSD laid out otherwise, or one that does not parse, fails
    the open with ModelMismatchError and leaves the log and the commit
    record as they were."""
    store = FileStore(tmp_path / "s", family_model)
    import_document(write_canonical([person("p1"), person("p2")], family_model), family_model, store)
    store.close()
    schema_path = tmp_path / "s" / "schema.xsd"
    if edit == "reindented":
        schema = schema_path.read_bytes().replace(b"  <", b"\t<").replace(b"/>", b" />")
        parsed, _ = transodb.parse_schema(schema, family_model.name)
        assert schema_hash(parsed) == schema_hash(family_model)
    else:
        schema = b"not a schema <"
    schema_path.write_bytes(schema)
    before = {name: (tmp_path / "s" / name).read_bytes() for name in ("objects.log", "index.idx")}

    with pytest.raises(ModelMismatchError):
        FileStore(tmp_path / "s", family_model)
    assert {name: (tmp_path / "s" / name).read_bytes() for name in before} == before


def test_open_without_create_requires_layout(person_model, tmp_path):
    with pytest.raises(FileNotFoundError):
        FileStore(tmp_path / "missing", person_model, create=False)


def test_index_rebuild_after_deletion(family_model, tmp_path):
    records = [person(f"p{i}", spouse=Oid(f"p{(i + 1) % 30}")) for i in range(30)]
    store = FileStore(tmp_path / "s", family_model)
    doc = write_canonical(records, family_model)
    import_document(doc, family_model, store)
    before = export_store(store, family_model)
    store.close()

    os.remove(tmp_path / "s" / "index.idx")
    reopened = FileStore(tmp_path / "s", family_model)
    assert export_store(reopened, family_model) == before == doc
    reopened.close()
    assert (tmp_path / "s" / "index.idx").exists()  # written again at close


def test_index_rebuild_after_staleness(family_model, tmp_path):
    store = FileStore(tmp_path / "s", family_model)
    store.put(person("p1"))
    store.commit()
    committed_log = (tmp_path / "s" / "objects.log").read_bytes()
    store.put(person("p2"))  # in the log, not in the committed index
    store.close()

    # the store reopens at its last commit: the uncommitted tail is dropped
    reopened = FileStore(tmp_path / "s", family_model)
    assert reopened.count() == 1
    assert reopened.get(Oid("p2")) is None
    assert (tmp_path / "s" / "objects.log").read_bytes() == committed_log
    reopened.close()


def test_newline_strings_survive_log_and_rebuild(family_model, tmp_path):
    tricky = person("p1", name="line one\nline two\r\nthree\ttab")
    store = FileStore(tmp_path / "s", family_model)
    store.put(tricky)
    store.commit()
    before = export_store(store, family_model)
    store.close()

    os.remove(tmp_path / "s" / "index.idx")
    reopened = FileStore(tmp_path / "s", family_model)
    assert records_equal(reopened.get(Oid("p1")), tricky)
    assert export_store(reopened, family_model) == before
    reopened.close()


@pytest.mark.parametrize(
    "torn_tail",
    [
        b'<o c="Person" id="p3"><name>torn',
        b'<o c="Person" id="p3"><name>caf\xc3',  # cut inside a two-byte character
        b"junk</o>",  # cut after the last mark, so never committed, though it ends in </o>
        b'<o c="Person" id="p1"><name>A</name><age>30</age></o>',  # a stored line, cut
    ],
)
def test_torn_log_tail_is_dropped_on_rebuild(family_model, tmp_path, torn_tail):
    store = FileStore(tmp_path / "s", family_model)
    store.put(person("p1"))
    store.put(person("p2"))
    store.commit()
    store.close()

    log = tmp_path / "s" / "objects.log"
    intact = log.read_bytes()
    log.write_bytes(intact + torn_tail)  # crash mid-append
    os.remove(tmp_path / "s" / "index.idx")

    reopened = FileStore(tmp_path / "s", family_model)
    assert reopened.count() == 2
    assert log.read_bytes() == intact
    reopened.put(person("p3"))  # the log stays appendable after repair
    assert reopened.count() == 3
    reopened.close()


@pytest.mark.parametrize("keep_index", [False, True])
def test_lost_final_newline_is_restored_on_open(family_model, tmp_path, keep_index):
    store = FileStore(tmp_path / "s", family_model)
    store.put(person("p1"))
    store.put(person("p2"))
    store.commit()
    store.close()

    log = tmp_path / "s" / "objects.log"
    intact = log.read_bytes()
    log.write_bytes(intact[:-1])  # the last mark landed, its newline did not
    if not keep_index:
        os.remove(tmp_path / "s" / "index.idx")

    reopened = FileStore(tmp_path / "s", family_model)
    assert reopened.count() == 2
    assert log.read_bytes() == intact
    assert records_equal(reopened.get(Oid("p2")), person("p2"))
    reopened.put(person("p3"))
    reopened.commit()
    reopened.close()

    again = FileStore(tmp_path / "s", family_model)
    assert again.count() == 3
    again.close()


def _open_paths() -> list[str]:
    """Paths of the files this process holds open."""
    paths = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            paths.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the descriptor listdir itself used
            pass
    return paths


def _assert_lock_released(directory: Path) -> None:
    """No descriptor of this process names LOCK, and a non-blocking flock
    on it succeeds."""
    lock = directory / "LOCK"
    assert str(lock.resolve()) not in _open_paths()
    fd = os.open(lock, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    finally:
        os.close(fd)


def test_mid_log_corruption_raises(family_model, tmp_path):
    store = FileStore(tmp_path / "s", family_model)
    store.put(person("p1"))
    store.put(person("p2"))
    store.commit()
    store.close()

    log = tmp_path / "s" / "objects.log"
    data = log.read_bytes()
    first, p1, p2, mark = data.splitlines(keepends=True)
    log.write_bytes(data.replace(p1, b"garbage not xml\n"))
    os.remove(tmp_path / "s" / "index.idx")

    with pytest.raises(StoreError) as failed:  # its traceback keeps the half-open store alive
        FileStore(tmp_path / "s", family_model)
    _assert_lock_released(tmp_path / "s")  # lock released on failed open
    assert str(log.resolve()) not in _open_paths()  # log handles closed too


def _run_child(code: str, *args: str) -> int:
    """Exit status of a Python child running code with this transodb."""
    src = str(Path(transodb.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    return result.returncode


@pytest.mark.parametrize("create", [False, True], ids=["open", "create"])
def test_store_whose_log_is_gone_fails_to_open(create, family_model, tmp_path):
    """A store whose schema.xsd is there but whose objects.log is gone
    fails the open with FileNotFoundError naming the log, whether or not
    the open may create a store, and writes no new log."""
    log = _two_committed_people(tmp_path / "s", family_model)
    log.unlink()
    with pytest.raises(FileNotFoundError, match="objects.log"):
        FileStore(tmp_path / "s", family_model, create=create)
    assert not log.exists()
    _assert_lock_released(tmp_path / "s")


def test_creator_killed_before_its_schema_leaves_a_store_the_next_create_finishes(tmp_path):
    """A new store writes its log before schema.xsd. A creator killed
    between the two leaves a directory that an open without create
    refuses and the next create=True open finishes as a new, empty store."""
    child = (
        "import os, sys\n"
        "import transodb.store\n"
        "from transodb import FileStore\n"
        "from transodb.bench import bench_model\n"
        "def dies_at_the_schema(path, *args, **kwargs):\n"
        "    if str(path).endswith('schema.xsd'):\n"
        "        os._exit(3)\n"
        "    return open(path, *args, **kwargs)\n"
        "transodb.store.open = dies_at_the_schema\n"
        "FileStore(sys.argv[1], bench_model())\n"
    )
    assert _run_child(child, str(tmp_path / "s")) == 3
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == ["LOCK", "objects.log"]

    model = bench_model()
    with pytest.raises(FileNotFoundError, match="schema.xsd"):
        FileStore(tmp_path / "s", model, create=False)
    with FileStore(tmp_path / "s", model) as store:
        assert store.count() == 0
    assert (tmp_path / "s" / "schema.xsd").read_bytes() == model.schema_xsd
    assert (tmp_path / "s" / "objects.log").read_bytes() == b"#00000000 0\n"


def test_killed_writer_leaves_store_openable(tmp_path):
    child = (
        "import os, sys\n"
        "from transodb import FileStore\n"
        "from transodb.bench import bench_model\n"
        "FileStore(sys.argv[1], bench_model())\n"
        "os._exit(1)\n"
    )
    assert _run_child(child, str(tmp_path / "s")) == 1
    assert (tmp_path / "s" / "LOCK").exists()  # the dead writer never released it
    FileStore(tmp_path / "s", bench_model()).close()


def test_killed_import_reopens_at_the_last_commit(tmp_path):
    """A process that dies in the middle of an import, its stored lines
    flushed to the log but not committed, leaves a store that reopens with
    exactly its last committed content."""
    model = bench_model()
    committed = [person(f"keep{i}") for i in range(3)]
    with FileStore(tmp_path / "s", model) as store:
        import_document(write_canonical(committed, model), model, store)
    log = tmp_path / "s" / "objects.log"
    committed_log = log.read_bytes()
    doc = tmp_path / "doc.odbx"
    doc.write_bytes(write_canonical(synthesize_graph(model, 3, 500).records.values(), model))
    child = (
        "import os, sys\n"
        "from pathlib import Path\n"
        "from transodb import FileStore, import_document\n"
        "from transodb.bench import bench_model\n"
        "class DiesAfter300(FileStore):\n"
        "    puts = 0\n"
        "    def _put_line(self, token, line):\n"
        "        super()._put_line(token, line)\n"
        "        self.puts += 1\n"
        "        if self.puts == 300:\n"
        "            self._log.flush()\n"
        "            os._exit(3)\n"
        "model = bench_model()\n"
        "import_document(Path(sys.argv[2]).read_bytes(), model, DiesAfter300(sys.argv[1], model))\n"
    )
    assert _run_child(child, str(tmp_path / "s"), str(doc)) == 3
    assert log.read_bytes().startswith(committed_log)
    assert log.stat().st_size > len(committed_log)  # the 300 lines reached the log

    with FileStore(tmp_path / "s", model) as reopened:
        assert reopened.count() == 3
        assert export_store(reopened, model) == write_canonical(committed, model)
    assert log.read_bytes() == committed_log


def _two_committed_people(directory, model, **p1):
    store = FileStore(directory, model)
    store.put(person("p1", **p1))
    store.put(person("p2"))
    store.commit()
    store.close()
    return directory / "objects.log"


def test_same_length_invalid_edit_is_caught_with_index_in_place(family_model, tmp_path):
    log = _two_committed_people(tmp_path / "s", family_model, age=93)
    data = log.read_bytes()
    log.write_bytes(data.replace(b"<age>93</age>", b"<age>9x</age>"))

    with pytest.raises(TransodbError):
        with FileStore(tmp_path / "s", family_model) as reopened:
            export_store(reopened, family_model)


@pytest.mark.parametrize(
    "dst_kind", [None, "mem", "file"], ids=["export", "migrate-mem", "migrate-file"]
)
def test_same_length_valid_edit_in_session_is_caught(dst_kind, family_model, tmp_path):
    # the edited line is still valid and canonical, so only the log CRC shows it
    store = FileStore(tmp_path / "s", family_model)
    doc = write_canonical([person("p1", age=93), person("p2")], family_model)
    import_document(doc, family_model, store)
    log = tmp_path / "s" / "objects.log"
    log.write_bytes(log.read_bytes().replace(b"<age>93</age>", b"<age>94</age>"))

    if dst_kind is None:
        with pytest.raises(StoreError):
            export_store(store, family_model)
    else:
        make, _ = make_factories(dst_kind, tmp_path, family_model)
        dst = make()
        dst.put(person("d1"))
        dst.commit()
        before = export_store(dst, family_model)
        with pytest.raises(StoreError):
            migrate(store, dst, family_model)
        assert export_store(dst, family_model) == before
        dst.close()
    store.close()


def test_non_canonical_log_line_is_corruption(family_model, tmp_path):
    log = _two_committed_people(tmp_path / "s", family_model)
    data = log.read_bytes()
    swapped = data.replace(b'<o c="Person" id="p1">', b'<o id="p1" c="Person">')
    assert len(swapped) == len(data) and swapped != data
    log.write_bytes(swapped)

    with pytest.raises(StoreError):
        FileStore(tmp_path / "s", family_model)


@pytest.mark.parametrize(
    "read",
    [
        lambda store, model: export_store(store, model),
        lambda store, model: store.get(Oid("p1")),
        lambda store, model: list(store.scan()),
    ],
    ids=["export", "get", "scan"],
)
def test_swapped_log_lines_fail_reads(read, family_model, tmp_path):
    # the entries of an open store point at log offsets; a line moved under
    # them is caught by _line's framing check, before the log CRC check
    log = _two_committed_people(tmp_path / "s", family_model)
    first, p1, p2, mark = log.read_bytes().splitlines(keepends=True)
    assert len(p1) == len(p2)
    with FileStore(tmp_path / "s", family_model) as store:
        log.write_bytes(first + p2 + p1 + mark)
        with pytest.raises(StoreError, match="does not frame record 'p1'"):
            read(store, family_model)


@pytest.mark.parametrize("kind", ["mem", "file"])
@pytest.mark.parametrize(
    "read",
    [lambda store: store.get(Oid("e1")), lambda store: list(store.scan())],
    ids=["get", "scan"],
)
def test_stored_line_edited_off_canonical_fails_reads(read, kind, family_model, tmp_path):
    # 1e0 still frames, and a lenient decode reads it as 1.0; it is not the
    # canonical line of that record, so reads refuse it
    make, _ = make_factories(kind, tmp_path, family_model)
    store = make()
    store.put(ObjectRecord("Employee", Oid("e1"), {"name": "A", "age": 3, "salary": 1.0}))
    store.commit()
    if kind == "file":
        log = store.directory / "objects.log"
        log.write_bytes(log.read_bytes().replace(b">1.0<", b">1e0<"))
    else:
        store._entries["e1"] = store._entries["e1"].replace(b">1.0<", b">1e0<")
    with pytest.raises(StoreError, match="record 'e1' is not canonical"):
        read(store)
    store.close()


def test_rolled_back_import_then_commit_reopens_without_rebuild(family_model, tmp_path, monkeypatch):
    store = FileStore(tmp_path / "s", family_model)
    import_document(write_canonical([person("keep")], family_model), family_model, store)
    with pytest.raises(DanglingRefError):
        bad = write_canonical([person("o1", spouse=Oid("o9"))], family_model)
        import_document(bad, family_model, store)
    store.put(person("later"))
    store.commit()
    before = export_store(store, family_model)
    store.close()

    _forbid_rebuild(monkeypatch)
    with FileStore(tmp_path / "s", family_model) as reopened:
        assert export_store(reopened, family_model) == before


def _forbid_rebuild(monkeypatch):
    """Fail the test if an open rebuilds the log."""

    def no_rebuild(store, size):
        raise AssertionError("a committed store must reopen without a rebuild")

    monkeypatch.setattr(FileStore, "_rebuild_index", no_rebuild)


def _mark(log: bytes) -> bytes:
    """The mark line that commits log: its CRC-32, then its length."""
    return b"#%08x %d\n" % (zlib.crc32(log), len(log))


def _count_rebuilds(monkeypatch) -> list:
    """A list that grows by one each time an open rebuilds the log; the
    rebuild reads the log by LineAcceptor alone, so building the lenient
    decoder fails the test."""
    built, real = [], FileStore._rebuild_index
    monkeypatch.setattr(
        FileStore, "_rebuild_index", lambda store, size: built.append(1) or real(store, size)
    )

    def no_decoder(*args):
        raise AssertionError("a rebuild must not decode a log line")

    monkeypatch.setattr(transodb.objectxml, "_Decoder", no_decoder)
    return built


@pytest.mark.parametrize(
    "bad_mark",
    [
        lambda log: b"#%08x %d\n" % (zlib.crc32(log) ^ 1, len(log)),
        lambda log: _mark(log + b"\n"),
        lambda log: _mark(log[:-3]),
    ],
    ids=["wrong-crc", "length-past-its-offset", "prefix-ends-mid-line"],
)
def test_bad_commit_record_falls_back_to_rebuild(bad_mark, family_model, tmp_path, monkeypatch):
    """A last mark that is well formed but does not check out makes open
    rebuild the log up to it, drop what follows it, and commit."""
    log = _two_committed_people(tmp_path / "s", family_model)
    data = log.read_bytes()
    prefix = data[: -len(data.splitlines(keepends=True)[-1])]
    assert data == prefix + _mark(prefix)
    damaged = prefix + bad_mark(prefix)
    p3 = format_record(person("p3"), LayoutIndex(family_model)) + "\n"
    log.write_bytes(damaged + p3.encode())  # and an uncommitted put after it
    expected = write_canonical([person("p1"), person("p2")], family_model)

    built = _count_rebuilds(monkeypatch)
    with FileStore(tmp_path / "s", family_model) as reopened:
        assert export_store(reopened, family_model) == expected
    assert built == [1]
    assert log.read_bytes() == damaged + _mark(damaged)  # the rebuild's commit
    assert (tmp_path / "s" / "index.idx").read_bytes() == _mark(log.read_bytes())

    _forbid_rebuild(monkeypatch)  # the fresh mark is trusted at the next open
    with FileStore(tmp_path / "s", family_model) as reopened:
        assert export_store(reopened, family_model) == expected


@pytest.mark.parametrize(
    "index",
    [None, b"", b"#00000000 0\n", b"#0123abcd 99999\n", b"#5f3a\np1\t0\t40\n"],
    ids=["missing", "empty", "empty-log", "past-log-end", "old-format"],
)
def test_index_file_is_not_read(index, family_model, tmp_path, monkeypatch):
    """index.idx is a copy of the log's state written at close: open
    neither reads it nor rebuilds because of it."""
    log = _two_committed_people(tmp_path / "s", family_model)
    data, path = log.read_bytes(), tmp_path / "s" / "index.idx"
    assert path.read_bytes() == _mark(data)
    if index is None:
        path.unlink()
    else:
        path.write_bytes(index)

    _forbid_rebuild(monkeypatch)
    with FileStore(tmp_path / "s", family_model) as reopened:
        assert export_store(reopened, family_model) == write_canonical(
            [person("p1"), person("p2")], family_model
        )
    assert log.read_bytes() == data
    assert path.read_bytes() == _mark(data)


def _store_written_before_marks(directory, model, ending) -> tuple[bytes, Path, bytes]:
    """A store of two people whose log, as an older version wrote it, has
    no mark, with ending applied to it, beside the one-line commit record
    that version kept in index.idx: (their document, the log, its lines)."""
    doc = write_canonical([person("p1"), person("p2", spouse=Oid("p1"))], model)
    with FileStore(directory, model) as store:
        import_document(doc, model, store)
    log = directory / "objects.log"
    lines = log.read_bytes().splitlines(keepends=True)
    old = b"".join(line for line in lines if line.startswith(b"<o "))
    log.write_bytes(ending(old))
    (directory / "index.idx").write_bytes(_mark(old))
    return doc, log, old


@pytest.mark.parametrize(
    "ending",
    [
        lambda old: old,
        lambda old: old[:-1],
        lambda old: old + b'<o c="Person" id="p3"><name>torn',
        # a record line, then a byte the crash left of what followed it
        lambda old: old + old.splitlines()[0].replace(b'"p1"', b'"p3"') + b" ",
    ],
    ids=["intact", "last-newline-lost", "torn-append", "torn-after-its-end-tag"],
)
def test_store_written_before_marks_opens_through_one_rebuild(
    ending, family_model, tmp_path, monkeypatch
):
    """A log with no mark opens through one rebuild and gains its first
    mark, so the next open runs none. The rebuild restores a lost last
    newline and drops a torn last append: a cut line that does not end in
    </o>."""
    doc, log, old = _store_written_before_marks(tmp_path / "s", family_model, ending)

    built = _count_rebuilds(monkeypatch)
    with FileStore(tmp_path / "s", family_model) as reopened:
        assert export_store(reopened, family_model) == doc
    assert built == [1]
    assert log.read_bytes() == old + _mark(old)

    _forbid_rebuild(monkeypatch)
    with FileStore(tmp_path / "s", family_model) as reopened:
        assert export_store(reopened, family_model) == doc


def test_marks_past_the_first_read_buffer_are_trusted(tmp_path, monkeypatch):
    """A log of over 64 KiB, with marks past its first 64 KiB, reopens
    without a rebuild: each mark's CRC-32 covers exactly the log before
    it. So does the log with its last mark's newline cut, which open
    writes back."""
    model = bench_model()
    records = list(synthesize_graph(model, 5, 900).records.values())
    with FileStore(tmp_path / "s", model) as store:
        for start in range(0, len(records), 300):
            for record in records[start : start + 300]:
                store.put(record)
            store.commit()
        expected = export_store(store, model)
    log = tmp_path / "s" / "objects.log"
    data = log.read_bytes()
    marks = [mark.start() for mark in re.finditer(rb"^#", data, re.MULTILINE)]
    assert len(marks) == 4 and marks[-2] > 64 * 1024

    _forbid_rebuild(monkeypatch)
    with FileStore(tmp_path / "s", model) as reopened:
        assert export_store(reopened, model) == expected
    assert log.read_bytes() == data

    log.write_bytes(data[:-1])
    with FileStore(tmp_path / "s", model) as reopened:
        assert export_store(reopened, model) == expected
    assert log.read_bytes() == data


def test_cut_last_line_ending_in_its_end_tag_is_corruption(family_model, tmp_path):
    """A cut last line that ends in </o> but is no record line is not a
    torn append: the open fails and leaves the log as it was."""
    _, log, old = _store_written_before_marks(
        tmp_path / "s", family_model, lambda old: old + b"junk</o>"
    )

    with pytest.raises(StoreError, match=f"corrupt at byte {len(old)}$"):
        FileStore(tmp_path / "s", family_model)
    assert log.read_bytes() == old + b"junk</o>"
    _assert_lock_released(tmp_path / "s")  # lock released on failed open


@pytest.mark.parametrize("unframed_first", [True, False], ids=["unframed-first", "framed-first"])
def test_log_without_marks_fails_at_its_first_bad_line(unframed_first, family_model, tmp_path):
    """In a log with no mark, the open fails at the first line that is no
    canonical record line, whether it does not frame or frames a line the
    acceptor rejects, and leaves the log as it was."""
    unframed = b"garbage not xml\n"
    stored = format_record(person("p3"), LayoutIndex(family_model)).encode() + b"\n"
    non_canonical = stored.replace(b"<age>30</age>", b"<age>030</age>")
    assert non_canonical != stored
    bad = unframed + non_canonical if unframed_first else non_canonical + unframed

    def between_the_two_people(old):
        first = old.index(b"\n") + 1
        return old[:first] + bad + old[first:]

    _, log, old = _store_written_before_marks(
        tmp_path / "s", family_model, between_the_two_people
    )
    p1_line = old.splitlines(keepends=True)[0]
    with pytest.raises(StoreError, match=f"corrupt at byte {len(p1_line)}$"):
        FileStore(tmp_path / "s", family_model)
    assert log.read_bytes() == between_the_two_people(old)


@pytest.mark.parametrize("tail", ["junk", "cut-copy"])
def test_cut_line_after_a_failing_mark_is_dropped(tail, family_model, tmp_path, monkeypatch):
    """A cut last line after a last mark that fails was never committed,
    even one that ends in </o>: junk, or a stored record line that lost
    its newline. Open rebuilds up to that mark and drops it."""
    log = _two_committed_people(tmp_path / "s", family_model)
    data = log.read_bytes()
    prefix = data[: -len(data.splitlines(keepends=True)[-1])]
    damaged = prefix + b"#%08x %d\n" % (zlib.crc32(prefix) ^ 1, len(prefix))
    cut = b"junk</o>" if tail == "junk" else prefix.splitlines()[1]
    log.write_bytes(damaged + cut)

    built = _count_rebuilds(monkeypatch)
    with FileStore(tmp_path / "s", family_model) as reopened:
        assert export_store(reopened, family_model) == write_canonical(
            [person("p1"), person("p2")], family_model
        )
    assert built == [1]
    assert log.read_bytes() == damaged + _mark(damaged)


@pytest.mark.parametrize("keep_index", [False, True])
def test_log_cut_in_a_mark_reopens_at_the_previous_commit(keep_index, family_model, tmp_path):
    """A log that ends partway through its last mark, at any byte before
    the mark's newline, reopens at the commit before it."""
    with FileStore(tmp_path / "s", family_model) as store:
        store.put(person("p1"))
        store.commit()
        committed_log = store.directory.joinpath("objects.log").read_bytes()
        store.put(person("p2"))
        store.commit()
    log = tmp_path / "s" / "objects.log"
    data = log.read_bytes()
    mark = data.splitlines(keepends=True)[-1]
    expected = write_canonical([person("p1")], family_model)

    for cut in range(1, len(mark) - 1):  # len(mark) - 1 lacks only the newline
        log.write_bytes(data[: len(data) - len(mark) + cut])
        if not keep_index:
            (tmp_path / "s" / "index.idx").unlink()
        with FileStore(tmp_path / "s", family_model) as reopened:
            assert export_store(reopened, family_model) == expected, cut
        assert log.read_bytes() == committed_log, cut


def test_commit_syncs_the_log_once(family_model, tmp_path, monkeypatch):
    """A commit is one sync of the log: no other file, no rename, no
    directory sync; a commit with nothing put since the last writes nothing."""
    store = FileStore(tmp_path / "s", family_model)
    store.put(person("p0"))
    store.commit()
    calls = []
    for name in ("fsync", "fdatasync", "replace", "rename", "open"):
        real = getattr(os, name)
        monkeypatch.setattr(
            os, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )

    store.put(person("p1"))
    store.put(person("p2"))
    store.commit()
    assert calls in (["fdatasync"], ["fsync"])
    log = tmp_path / "s" / "objects.log"
    committed = log.read_bytes()
    store.commit()
    assert calls in (["fdatasync"], ["fsync"]) and log.read_bytes() == committed
    monkeypatch.undo()
    store.close()


def test_uncommitted_put_is_dropped_without_index_file(tmp_path):
    """A put left uncommitted by a killed writer, with index.idx then
    deleted: the store reopens at its last commit all the same."""
    model = bench_model()
    committed = [person(f"keep{i}") for i in range(3)]
    with FileStore(tmp_path / "s", model) as store:
        import_document(write_canonical(committed, model), model, store)
    log = tmp_path / "s" / "objects.log"
    committed_log = log.read_bytes()
    child = (
        "import os, sys\n"
        "from transodb import FileStore, ObjectRecord, Oid\n"
        "from transodb.bench import bench_model\n"
        "store = FileStore(sys.argv[1], bench_model())\n"
        "store.put(ObjectRecord('Person', Oid('late'), {'name': 'L', 'age': 1}))\n"
        "store._log.flush()\n"
        "os._exit(3)\n"
    )
    assert _run_child(child, str(tmp_path / "s")) == 3
    assert log.stat().st_size > len(committed_log)
    (tmp_path / "s" / "index.idx").unlink()

    with FileStore(tmp_path / "s", model) as reopened:
        assert export_store(reopened, model) == write_canonical(committed, model)
    assert log.read_bytes() == committed_log


@pytest.mark.parametrize("puts", range(1, 6))
def test_killed_first_import_reopens_empty(puts, tmp_path):
    """A new store's first import, killed after any of its puts, leaves a
    store that reopens empty: only the log's first mark was committed."""
    model = bench_model()
    doc = tmp_path / "doc.odbx"
    doc.write_bytes(write_canonical([person(f"p{i}") for i in range(5)], model))
    child = (
        "import os, sys\n"
        "from pathlib import Path\n"
        "from transodb import FileStore, import_document\n"
        "from transodb.bench import bench_model\n"
        "class DiesAfterPuts(FileStore):\n"
        "    puts = 0\n"
        "    def _put_line(self, token, line):\n"
        "        super()._put_line(token, line)\n"
        "        self.puts += 1\n"
        "        if self.puts == int(sys.argv[3]):\n"
        "            self._log.flush()\n"
        "            os._exit(3)\n"
        "model = bench_model()\n"
        "store = DiesAfterPuts(sys.argv[1], model)\n"
        "import_document(Path(sys.argv[2]).read_bytes(), model, store)\n"
    )
    assert _run_child(child, str(tmp_path / "s"), str(doc), str(puts)) == 3
    log = tmp_path / "s" / "objects.log"
    assert log.read_bytes().startswith(b"#00000000 0\n<o ")

    with FileStore(tmp_path / "s", model) as reopened:
        assert export_store(reopened, model) == write_canonical([], model)
    assert log.read_bytes() == b"#00000000 0\n"


# Kill points inside FileStore.commit, named by what reached the log: the
# child replaces commit on its open store, and the syncs inside it.
_DIES_IN_COMMIT = (
    "import os, sys\n"
    "from pathlib import Path\n"
    "from transodb import FileStore, import_document\n"
    "from transodb.bench import bench_model\n"
    "kill = sys.argv[3]\n"
    "def dies(real):\n"
    "    def sync(fd):\n"
    "        if kill == 'after-sync':\n"
    "            real(fd)\n"
    "        os._exit(3)\n"
    "    return sync\n"
    "model = bench_model()\n"
    "store = FileStore(sys.argv[1], model)\n"
    "real_commit = store.commit\n"
    "def commit():\n"
    "    if kill == 'before-mark':\n"
    "        store._log.flush()\n"
    "        os._exit(3)\n"
    "    os.fsync, os.fdatasync = dies(os.fsync), dies(os.fdatasync)\n"
    "    real_commit()\n"
    "store.commit = commit\n"
    "import_document(Path(sys.argv[2]).read_bytes(), model, store)\n"
)


@pytest.mark.parametrize(
    "kill, published",
    [("before-mark", False), ("mark-not-synced", True), ("after-sync", True)],
)
def test_killed_commit_reopens_at_the_last_commit(kill, published, tmp_path):
    """A process killed inside commit leaves a store that reopens at the
    last commit: the one before until its mark reaches the log, then this
    one, synced or not."""
    model = bench_model()
    committed = [person(f"keep{i}") for i in range(3)]
    with FileStore(tmp_path / "s", model) as store:
        import_document(write_canonical(committed, model), model, store)
    added = list(synthesize_graph(model, 5, 40).records.values())
    doc = tmp_path / "doc.odbx"
    doc.write_bytes(write_canonical(added, model))
    index, log = tmp_path / "s" / "index.idx", tmp_path / "s" / "objects.log"
    before, committed_log = index.read_bytes(), log.read_bytes()

    assert _run_child(_DIES_IN_COMMIT, str(tmp_path / "s"), str(doc), kill) == 3
    lines = log.read_bytes().splitlines(keepends=True)
    assert len(lines) == len(committed_log.splitlines()) + len(added) + published
    assert (lines[-1] == _mark(b"".join(lines[:-1]))) is published
    assert index.read_bytes() == before  # only close writes it
    assert not (tmp_path / "s" / "index.idx.tmp").exists()

    last = committed + added if published else committed
    with FileStore(tmp_path / "s", model) as reopened:
        assert export_store(reopened, model) == write_canonical(last, model)
    assert (log.read_bytes() == committed_log) is not published
    assert index.read_bytes() == _mark(log.read_bytes())


def test_reopen_preserves_bytes_exactly(family_model, tmp_path):
    graph = random_graph(family_model, 11, 80)
    store = FileStore(tmp_path / "s", family_model)
    for record in graph.records.values():
        store.put(record)
    store.commit()
    before = export_store(store, family_model)
    store.close()
    reopened = FileStore(tmp_path / "s", family_model)
    assert export_store(reopened, family_model) == before
    reopened.close()


# -- import / export ------------------------------------------------------------


@pytest.mark.parametrize("kind", ["mem", "file"])
def test_import_empty_document(kind, person_model, tmp_path):
    make, _ = make_factories(kind, tmp_path, person_model)
    store = make()
    assert import_document(write_canonical([], person_model), person_model, store) == 0
    assert store.count() == 0
    store.close()


@pytest.mark.parametrize("kind", ["mem", "file"])
def test_import_two_cycle_then_get(kind, family_model, tmp_path):
    a = person("o1", spouse=Oid("o2"))
    b = person("o2", spouse=Oid("o1"))
    doc = write_canonical([a, b], family_model)
    make, _ = make_factories(kind, tmp_path, family_model)
    store = make()
    assert import_document(doc, family_model, store) == 2
    assert records_equal(store.get(Oid("o1")), a)
    assert records_equal(store.get(Oid("o2")), b)
    store.close()


@pytest.mark.parametrize("kind", ["mem", "file", "file-reopened"])
def test_import_dangling_rolls_back(kind, family_model, tmp_path):
    make, reopen = make_factories(kind, tmp_path, family_model)
    store = make()
    committed = [person("p5"), person("p6")]
    import_document(write_canonical(committed, family_model), family_model, store)
    if kind == "file-reopened":
        store = reopen(store)
    before = export_store(store, family_model)

    # the new OID sorts before the committed ones
    bad = write_canonical([person("a1", spouse=Oid("o9"))], family_model)
    with pytest.raises(DanglingRefError):
        import_document(bad, family_model, store)
    assert store.count() == 2
    assert store.get(Oid("a1")) is None
    assert export_store(store, family_model) == before
    store.close()


def _edit(index: int, old: bytes, new: bytes):
    """A change of a document's line list: old replaced by new in line index."""
    return lambda d: d[:index] + [d[index].replace(old, new)] + d[index + 1 :]


# Canonical document lines 1-6 (indexes 0-5): declaration, root, a1, a2
# (empty name), e3 (salary 1.0), footer. Each variant makes one line
# non-canonical; the number is that line.
_STRICT_VARIANTS = {
    "oids-out-of-order": (lambda d: d[:2] + [d[3], d[2]] + d[4:], 4),
    "blank-line": (lambda d: d[:3] + [b"\n"] + d[3:], 4),
    "no-xml-declaration": (lambda d: d[1:], 1),
    "single-quoted-attributes": (_edit(3, b'c="Person" id="a2"', b"c='Person' id='a2'"), 4),
    "character-reference": (_edit(2, b"<name>x<", b"<name>&#120;<"), 3),
    "id-before-c": (_edit(3, b'c="Person" id="a2"', b'id="a2" c="Person"'), 4),
    "open-close-empty": (_edit(3, b"<name/>", b"<name></name>"), 4),
    "float-1e0": (_edit(4, b"<salary>1.0<", b"<salary>1e0<"), 5),
    "fields-out-of-order": (_edit(2, b"<name>x</name><age>30</age>", b"<age>30</age><name>x</name>"), 3),
    "bytes-after-footer": (lambda d: d + [b"\n"], 7),
}


@pytest.mark.parametrize("variant", sorted(_STRICT_VARIANTS))
@pytest.mark.parametrize("kind", ["mem", "file"])
def test_import_rejects_non_canonical_documents(kind, variant, family_model, tmp_path):
    """Import takes only the bytes CanonicalWriter writes. Each variant is
    one the lenient reader accepts; import rejects it naming its line, and
    the store stays at its last committed export."""
    records = [
        person("a1", name="x"),
        person("a2", name=""),
        ObjectRecord("Employee", Oid("e3"), {"name": "E", "age": 40, "salary": 1.0}),
    ]
    lines = write_canonical(records, family_model).splitlines(keepends=True)
    change, line = _STRICT_VARIANTS[variant]
    changed = change(lines)
    assert changed != lines
    doc = b"".join(changed)
    read_canonical(doc, family_model, lambda record: None)

    make, reopen = make_factories(kind, tmp_path, family_model)
    store = make()
    import_document(write_canonical([person("p5"), person("p6")], family_model), family_model, store)
    before = export_store(store, family_model)
    with pytest.raises(DocumentError) as failed:
        import_document(doc, family_model, store)
    assert failed.value.line == line
    assert str(failed.value).startswith(f"line {line}, ")
    assert export_store(store, family_model) == before
    store = reopen(store)
    assert export_store(store, family_model) == before
    store.close()


@pytest.mark.parametrize("kind", ["mem", "file"])
def test_import_duplicate_oid_rolls_back(kind, family_model, tmp_path):
    make, _ = make_factories(kind, tmp_path, family_model)
    store = make()
    doc = write_canonical([person("o1")], family_model)
    import_document(doc, family_model, store)
    with pytest.raises(DuplicateOidError):
        import_document(doc, family_model, store)
    assert store.count() == 1
    store.close()


def test_import_model_mismatch(person_model, family_model, tmp_path):
    store = MemStore(person_model)
    doc = write_canonical([], family_model)
    with pytest.raises(ModelMismatchError):
        import_document(doc, family_model, store)


def test_export_empty_store(person_model):
    store = MemStore(person_model)
    assert export_store(store, person_model) == write_canonical([], person_model)


def test_export_reproduces_imported_document(family_model, tmp_path):
    graph = random_graph(family_model, 13, 120)
    doc = write_canonical(graph.records.values(), family_model)
    store = FileStore(tmp_path / "s", family_model)
    import_document(doc, family_model, store)
    assert export_store(store, family_model) == doc
    store.close()


def test_backends_export_identical_bytes(family_model, tmp_path):
    graph = random_graph(family_model, 17, 60)
    mem = MemStore(family_model)
    fs = FileStore(tmp_path / "s", family_model)
    for record in graph.records.values():
        mem.put(record)
        fs.put(record)
    assert export_store(mem, family_model) == export_store(fs, family_model)
    fs.close()


# -- migrate ----------------------------------------------------------------------


def test_migrate_empty(person_model, tmp_path):
    src = MemStore(person_model)
    dst = FileStore(tmp_path / "dst", person_model)
    assert migrate(src, dst, person_model) == 0
    assert export_store(dst, person_model) == write_canonical([], person_model)
    dst.close()


def test_migrate_chain_mem_file_mem(tmp_path):
    model = bench_model()
    graph = synthesize_graph(model, 42, 500)
    origin = write_canonical(graph.records.values(), model)

    mem1 = MemStore(model)
    import_document(origin, model, mem1)
    fs = FileStore(tmp_path / "mid", model)
    assert migrate(mem1, fs, model) == 500
    mem2 = MemStore(model)
    assert migrate(fs, mem2, model) == 500
    assert export_store(mem2, model) == origin
    fs.close()


@pytest.mark.parametrize("kind", ["mem", "file"])
def test_migrate_collision_leaves_destination_unchanged(kind, family_model, tmp_path):
    make, _ = make_factories(kind, tmp_path, family_model)
    src = make()
    src.put(person("a1", friends=[Oid("shared")]))
    src.commit()
    # uncommitted puts: the colliding OID is reached only through a1's friends
    src.put(person("shared"))
    src.put(person("extra"))
    dst = FileStore(tmp_path / "dst", family_model)
    dst.put(person("shared", age=99))
    dst.commit()
    before = export_store(dst, family_model)

    with pytest.raises(DuplicateOidError):
        migrate(src, dst, family_model)
    assert export_store(dst, family_model) == before
    src.close()
    dst.close()


def test_migrate_model_mismatch(person_model, family_model):
    with pytest.raises(ModelMismatchError):
        migrate(MemStore(person_model), MemStore(family_model), person_model)


@pytest.mark.parametrize("kind", ["mem", "file"])
def test_migrate_dangling_in_source_detected(kind, family_model, tmp_path):
    # a source populated by raw puts may be non-closed; migrate must catch it
    make, _ = make_factories(kind, tmp_path, family_model)
    for dangling in ({"spouse": Oid("ghost")}, {"friends": [Oid("o1"), Oid("ghost")]}):
        src = make()
        src.put(person("o1", **dangling))
        src.commit()
        src.put(person("o2", friends=[Oid("o1")]))  # left uncommitted
        dst = MemStore(family_model)
        with pytest.raises(DanglingRefError) as exc:
            migrate(src, dst, family_model)
        assert exc.value.missing == ["ghost"]
        assert dst.count() == 0
        src.close()


# -- streaming -----------------------------------------------------------------


def test_import_and_export_stream_one_record(tmp_path):
    model = bench_model()
    graph = synthesize_graph(model, 1, 300)
    doc = write_canonical(graph.records.values(), model)
    assert stream_through_file_store(doc, model, tmp_path / "s", 300) == doc


def test_concurrent_readers_share_one_handle(family_model, tmp_path):
    import threading

    records = [person(f"p{i:02d}", age=i) for i in range(40)]
    store = FileStore(tmp_path / "s", family_model)
    for record in records:
        store.put(record)
    store.commit()

    expected = [r.oid.token for r in records]
    results = []
    errors = []

    def reader():
        try:
            for _ in range(20):
                tokens = [r.oid.token for r in store.scan()]
                assert tokens == expected
            results.append(True)
        except BaseException as exc:  # surfaces in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == 4
    store.close()


def test_concurrent_gets_on_a_fresh_handle(family_model, tmp_path):
    """Four threads read every record through one just-opened handle, so
    they race to build its acceptor and compile each class."""
    import threading

    records = [person(f"p{i:02d}", age=i, friends=[Oid("p00")]) for i in range(20)]
    records += [ObjectRecord("Employee", Oid(f"e{i:02d}"), {"name": "B&<", "age": i, "salary": i / 4})
                for i in range(20)]
    with FileStore(tmp_path / "s", family_model) as store:
        for record in records:
            store.put(record)
        store.commit()

    store = FileStore(tmp_path / "s", family_model)
    start = threading.Barrier(4)
    results = []

    def reader():
        start.wait()
        results.append([store.get(r.oid) for r in records])

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    store.close()
    assert results == [records] * 4


def test_schema_file_written_at_creation(person_model, tmp_path):
    store = FileStore(tmp_path / "s", person_model)
    store.close()
    text = (tmp_path / "s" / "schema.xsd").read_bytes()
    from transodb import parse_schema

    parsed, diags = parse_schema(text, "m")
    assert schema_hash(parsed) == schema_hash(person_model)
