"""End-to-end command tests: exit codes, outputs, and no partial files."""

import zlib

import pytest

import transodb.model
from transodb import (
    FileStore,
    export_store,
    import_document,
    synthesize_graph,
    write_canonical,
)
from transodb.bench import bench_model
from transodb.cli import main

from conftest import person

EMPTY_XSD = '<?xml version="1.0" encoding="UTF-8"?>\n<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"/>\n'

PERSON_XSD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">\n'
    '  <xs:complexType name="Person">\n'
    "    <xs:sequence>\n"
    '      <xs:element name="name" type="xs:string"/>\n'
    '      <xs:element name="age" type="xs:long"/>\n'
    "    </xs:sequence>\n"
    "  </xs:complexType>\n"
    "</xs:schema>\n"
)


@pytest.fixture
def person_xsd(tmp_path):
    path = tmp_path / "person.xsd"
    path.write_text(PERSON_XSD, encoding="utf-8")
    return path


@pytest.fixture
def bench_xsd(tmp_path):
    from importlib import resources

    path = tmp_path / "bench.xsd"
    path.write_bytes(resources.files("transodb").joinpath("bench_schema.xsd").read_bytes())
    return path


# -- schema ---------------------------------------------------------------------


def test_schema_empty(tmp_path, capsys):
    path = tmp_path / "empty.xsd"
    path.write_text(EMPTY_XSD, encoding="utf-8")
    assert main(["schema", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "cbf29ce484222325\n"


def test_schema_bench_model(bench_xsd, capsys):
    assert main(["schema", str(bench_xsd)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("class Employee : Person {")
    assert out[1].startswith("class Person {")
    assert len(out[2]) == 16


def test_schema_rejects_datetime(tmp_path, capsys):
    path = tmp_path / "bad.xsd"
    path.write_text(
        PERSON_XSD.replace('type="xs:long"', 'type="xs:dateTime"'), encoding="utf-8"
    )
    assert main(["schema", str(path)]) == 1
    err = capsys.readouterr().err
    assert "xs:dateTime" in err
    assert "line" in err


def test_schema_missing_file(tmp_path):
    assert main(["schema", str(tmp_path / "nope.xsd")]) == 2


# -- export ----------------------------------------------------------------------


def test_export_empty_filestore(person_xsd, tmp_path, capsys):
    model, _ = _model_of(person_xsd)
    FileStore(tmp_path / "store", model).close()
    out = tmp_path / "out.odbx"
    assert main(["export", "--schema", str(person_xsd), "--store", str(tmp_path / "store"), "--out", str(out)]) == 0
    assert out.read_bytes() == write_canonical([], model)


def test_export_matches_library_bytes(bench_xsd, tmp_path):
    model, _ = _model_of(bench_xsd)
    graph = synthesize_graph(model, 42, 100)
    store = FileStore(tmp_path / "store", model)
    for record in graph.records.values():
        store.put(record)
    store.commit()
    store.close()

    out = tmp_path / "graph.odbx"
    assert main(["export", "--schema", str(bench_xsd), "--store", str(tmp_path / "store"), "--out", str(out)]) == 0
    assert out.read_bytes() == write_canonical(graph.records.values(), model)


def test_export_wrong_schema_creates_nothing(person_xsd, bench_xsd, tmp_path, capsys):
    model, _ = _model_of(bench_xsd)
    FileStore(tmp_path / "store", model).close()
    out = tmp_path / "out.odbx"
    assert main(["export", "--schema", str(person_xsd), "--store", str(tmp_path / "store"), "--out", str(out)]) == 1
    assert not out.exists()
    assert list(tmp_path.glob("*.tmp")) == []


def test_export_missing_store_is_io_error(person_xsd, tmp_path):
    out = tmp_path / "out.odbx"
    assert main(["export", "--schema", str(person_xsd), "--store", str(tmp_path / "ghost"), "--out", str(out)]) == 2
    assert not out.exists()


def test_export_of_a_store_whose_log_is_gone_is_io_error(person_xsd, tmp_path, capsys):
    model, _ = _model_of(person_xsd)
    FileStore(tmp_path / "store", model).close()
    log = tmp_path / "store" / "objects.log"
    log.unlink()
    out = tmp_path / "out.odbx"
    assert main(["export", "--schema", str(person_xsd), "--store", str(tmp_path / "store"), "--out", str(out)]) == 2
    assert "objects.log is missing" in capsys.readouterr().err
    assert not out.exists()
    assert not log.exists()
    assert list(tmp_path.glob("*.tmp")) == []


# -- import ----------------------------------------------------------------------


def _model_of(xsd_path):
    from transodb import parse_schema

    model, diags = parse_schema(xsd_path.read_bytes(), xsd_path.stem)
    assert model is not None
    return model, diags


def test_import_empty_document(person_xsd, tmp_path, capsys):
    model, _ = _model_of(person_xsd)
    doc = tmp_path / "empty.odbx"
    doc.write_bytes(write_canonical([], model))
    assert main(["import", "--schema", str(person_xsd), "--in", str(doc), "--store", str(tmp_path / "s")]) == 0
    assert "0 records" in capsys.readouterr().out


def test_export_import_export_chain(bench_xsd, tmp_path, capsys):
    model, _ = _model_of(bench_xsd)
    graph = synthesize_graph(model, 7, 150)
    original = write_canonical(graph.records.values(), model)
    doc = tmp_path / "g.odbx"
    doc.write_bytes(original)

    assert main(["import", "--schema", str(bench_xsd), "--in", str(doc), "--store", str(tmp_path / "s")]) == 0
    out = tmp_path / "back.odbx"
    assert main(["export", "--schema", str(bench_xsd), "--store", str(tmp_path / "s"), "--out", str(out)]) == 0
    assert out.read_bytes() == original


def test_each_command_checks_its_model_once(bench_xsd, tmp_path, monkeypatch, capsys):
    """import, export and migrate each run the model check once, when
    --schema is parsed: stores, documents and the dump comparisons read what
    the model keeps, and each command still moves the same bytes."""
    model, _ = _model_of(bench_xsd)
    doc = tmp_path / "g.odbx"
    doc.write_bytes(write_canonical(synthesize_graph(model, 7, 50).records.values(), model))
    walks, real = [], transodb.model._check_model
    monkeypatch.setattr(transodb.model, "_check_model", lambda m: walks.append(1) or real(m))
    store_a, store_b, out = str(tmp_path / "a"), str(tmp_path / "b"), tmp_path / "back.odbx"
    for argv in (
        ["import", "--schema", str(bench_xsd), "--in", str(doc), "--store", store_a],
        ["export", "--schema", str(bench_xsd), "--store", store_a, "--out", str(out)],
        ["migrate", "--schema", str(bench_xsd), "--from", store_a, "--to", store_b],
    ):
        walks.clear()
        assert main(argv) == 0
        assert walks == [1], argv[0]
    assert out.read_bytes() == doc.read_bytes()
    assert main(["export", "--schema", str(bench_xsd), "--store", store_b, "--out", str(out)]) == 0
    assert out.read_bytes() == doc.read_bytes()


def test_import_truncated_document_rolls_back(person_xsd, tmp_path, capsys):
    model, _ = _model_of(person_xsd)
    store = FileStore(tmp_path / "s", model)
    import_document(write_canonical([person("keep")], model), model, store)
    before = export_store(store, model)
    store.close()

    full = write_canonical([person("o1"), person("o2")], model)
    doc = tmp_path / "cut.odbx"
    doc.write_bytes(full[: len(full) - 25])

    assert main(["import", "--schema", str(person_xsd), "--in", str(doc), "--store", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert "line" in err

    store = FileStore(tmp_path / "s", model)
    assert export_store(store, model) == before
    store.close()


def test_import_failure_removes_created_directory(person_xsd, tmp_path):
    model, _ = _model_of(person_xsd)
    bad = write_canonical([person("o1")], model)
    doc = tmp_path / "bad.odbx"
    doc.write_bytes(bad.replace(b"Person", b"Ghost"))
    target = tmp_path / "newstore"
    assert main(["import", "--schema", str(person_xsd), "--in", str(doc), "--store", str(target)]) == 1
    assert not target.exists()


def test_import_of_a_non_canonical_document_names_its_line(person_xsd, tmp_path, capsys):
    model, _ = _model_of(person_xsd)
    canonical = write_canonical([person("o1"), person("o2", name="x")], model)
    doc = tmp_path / "loose.odbx"
    doc.write_bytes(canonical.replace(b"<name>x<", b"<name>&#120;<"))  # decodes to the same record
    target = tmp_path / "newstore"
    assert main(["import", "--schema", str(person_xsd), "--in", str(doc), "--store", str(target)]) == 1
    assert "error: line 4, column 1: not canonical" in capsys.readouterr().err
    assert not target.exists()


def test_import_under_a_renamed_schema_file_fails(person_xsd, tmp_path, capsys):
    # the CLI names the model after the schema file, and line 2 binds it
    model, _ = _model_of(person_xsd)
    with FileStore(tmp_path / "store", model) as store:
        store.put(person("o1"))
        store.commit()
    a_xsd, b_xsd = tmp_path / "a.xsd", tmp_path / "b.xsd"
    a_xsd.write_bytes(person_xsd.read_bytes())
    b_xsd.write_bytes(person_xsd.read_bytes())
    doc = tmp_path / "a.odbx"
    assert main(["export", "--schema", str(a_xsd), "--store", str(tmp_path / "store"), "--out", str(doc)]) == 0
    assert main(["import", "--schema", str(a_xsd), "--in", str(doc), "--store", str(tmp_path / "same")]) == 0
    capsys.readouterr()

    target = tmp_path / "renamed"
    assert main(["import", "--schema", str(b_xsd), "--in", str(doc), "--store", str(target)]) == 1
    assert "error: line 2, column 1: not canonical" in capsys.readouterr().err
    assert not target.exists()


def test_import_missing_input_is_io_error(person_xsd, tmp_path):
    assert main(["import", "--schema", str(person_xsd), "--in", str(tmp_path / "none.odbx"), "--store", str(tmp_path / "s")]) == 2


# -- migrate ---------------------------------------------------------------------


def test_migrate_empty_file_to_file(person_xsd, tmp_path, capsys):
    model, _ = _model_of(person_xsd)
    FileStore(tmp_path / "src", model).close()
    assert main([
        "migrate", "--schema", str(person_xsd),
        "--from", f"file:{tmp_path / 'src'}", "--to", f"file:{tmp_path / 'dst'}",
    ]) == 0
    assert "0 records" in capsys.readouterr().out


def test_migrate_file_to_file(bench_xsd, tmp_path, capsys):
    model, _ = _model_of(bench_xsd)
    graph = synthesize_graph(model, 42, 500)
    src = FileStore(tmp_path / "src", model)
    for record in graph.records.values():
        src.put(record)
    src.commit()
    src.close()

    assert main([
        "migrate", "--schema", str(bench_xsd),
        "--from", f"file:{tmp_path / 'src'}", "--to", f"file:{tmp_path / 'dst'}",
    ]) == 0
    assert "500 records" in capsys.readouterr().out
    with FileStore(tmp_path / "src", model) as src, FileStore(tmp_path / "dst", model) as dst:
        assert export_store(dst, model) == export_store(src, model)
        # the lines are copied as they are, in OID order, between the new
        # log's first mark and the migrate's commit mark
        body = b"#00000000 0\n" + b"".join(src.scan_lines())
        mark = b"#%08x %d\n" % (zlib.crc32(body), len(body))
        assert (tmp_path / "dst" / "objects.log").read_bytes() == body + mark


def test_migrate_collision_leaves_destination_unchanged(person_xsd, tmp_path, capsys):
    model, _ = _model_of(person_xsd)
    src = FileStore(tmp_path / "src", model)
    src.put(person("dup"))
    src.commit()
    src.close()

    dst_dir = tmp_path / "dst"
    dst = FileStore(dst_dir, model)
    dst.put(person("dup", age=77))
    dst.commit()
    before = export_store(dst, model)
    dst.close()

    assert main([
        "migrate", "--schema", str(person_xsd),
        "--from", f"file:{tmp_path / 'src'}", "--to", f"file:{dst_dir}",
    ]) == 1
    dst = FileStore(dst_dir, model)
    assert export_store(dst, model) == before
    dst.close()


# -- bench -----------------------------------------------------------------------


def test_bench_empty_sizes(capsys):
    assert main(["bench", "--sizes", ""]) == 0
    out = capsys.readouterr().out
    assert out == "n\tcanonical_bytes\tverbose_bytes\texport_ms\timport_ms\n"


def test_bench_rows_and_determinism(tmp_path, capsys):
    assert main(["bench", "--sizes", "50,100", "--seed", "42"]) == 0
    first = [line.split("\t")[:3] for line in capsys.readouterr().out.splitlines()[1:]]
    assert main(["bench", "--sizes", "50,100", "--seed", "42"]) == 0
    second = [line.split("\t")[:3] for line in capsys.readouterr().out.splitlines()[1:]]
    assert first == second
    assert [row[0] for row in first] == ["50", "100"]


def test_bench_out_file(tmp_path):
    out = tmp_path / "report.tsv"
    assert main(["bench", "--sizes", "25", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n\t")
    assert len(lines) == 2
