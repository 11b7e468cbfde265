"""Adapter contract conformance, FileStore durability, and the document
import/export/migrate operations."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import transodb
from transodb import (
    DanglingRefError,
    DuplicateOidError,
    FileStore,
    MemStore,
    ModelMismatchError,
    Oid,
    StoreError,
    StoreLockedError,
    TransodbError,
    build_graph,
    export_store,
    import_document,
    migrate,
    schema_hash,
    synthesize_graph,
    write_canonical,
)
from transodb.bench import bench_model
from transodb.conformance import check_adapter_contract, random_graph, random_model
from transodb.graph import records_equal

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


def test_lock_rejects_second_writer(person_model, tmp_path):
    first = FileStore(tmp_path / "s", person_model)
    with pytest.raises(StoreLockedError):
        FileStore(tmp_path / "s", person_model)
    first.close()
    second = FileStore(tmp_path / "s", person_model)  # released on close
    second.close()


def test_open_checks_schema_hash(person_model, family_model, tmp_path):
    store = FileStore(tmp_path / "s", person_model)
    store.close()
    with pytest.raises(ModelMismatchError):
        FileStore(tmp_path / "s", family_model)


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
    assert (tmp_path / "s" / "index.idx").exists()  # repaired on open
    reopened.close()


def test_index_rebuild_after_staleness(family_model, tmp_path):
    store = FileStore(tmp_path / "s", family_model)
    store.put(person("p1"))
    store.commit()
    store.put(person("p2"))  # in the log, not in the committed index
    store.close()

    reopened = FileStore(tmp_path / "s", family_model)
    assert reopened.count() == 2
    assert reopened.get(Oid("p2")) is not None
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


def _open_paths() -> list[str]:
    """Paths of the files this process holds open."""
    paths = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            paths.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the descriptor listdir itself used
            pass
    return paths


def test_mid_log_corruption_raises(family_model, tmp_path):
    store = FileStore(tmp_path / "s", family_model)
    store.put(person("p1"))
    store.put(person("p2"))
    store.commit()
    store.close()

    log = tmp_path / "s" / "objects.log"
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"garbage not xml\n" + lines[1])
    os.remove(tmp_path / "s" / "index.idx")

    with pytest.raises(StoreError) as failed:  # its traceback keeps the half-open store alive
        FileStore(tmp_path / "s", family_model)
    assert not (tmp_path / "s" / "LOCK").exists()  # lock released on failed open
    assert str(log.resolve()) not in _open_paths()  # log handles closed too


def test_killed_writer_leaves_store_openable(tmp_path):
    child = (
        "import os, sys\n"
        "from transodb import FileStore\n"
        "from transodb.bench import bench_model\n"
        "FileStore(sys.argv[1], bench_model())\n"
        "os._exit(1)\n"
    )
    src = str(Path(transodb.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path / "s")],
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert result.returncode == 1
    assert (tmp_path / "s" / "LOCK").exists()  # the dead writer never released it
    FileStore(tmp_path / "s", bench_model()).close()


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
def test_swapped_index_offsets_fail_export(read, family_model, tmp_path):
    _two_committed_people(tmp_path / "s", family_model)
    index = tmp_path / "s" / "index.idx"
    header, p1, p2 = index.read_text().splitlines()
    (t1, o1, n1), (t2, o2, n2) = p1.split("\t"), p2.split("\t")
    assert n1 == n2
    index.write_text(f"{header}\n{t1}\t{o2}\t{n1}\n{t2}\t{o1}\t{n2}\n")

    with FileStore(tmp_path / "s", family_model) as reopened:
        with pytest.raises(StoreError):
            read(reopened, family_model)


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

    def no_rebuild(self):
        raise AssertionError("a committed index must be accepted as it is")

    monkeypatch.setattr(FileStore, "_rebuild_index", no_rebuild)
    with FileStore(tmp_path / "s", family_model) as reopened:
        assert export_store(reopened, family_model) == before


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


def test_schema_file_written_at_creation(person_model, tmp_path):
    store = FileStore(tmp_path / "s", person_model)
    store.close()
    text = (tmp_path / "s" / "schema.xsd").read_bytes()
    from transodb import parse_schema

    parsed, diags = parse_schema(text, "m")
    assert schema_hash(parsed) == schema_hash(person_model)
