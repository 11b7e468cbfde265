import pytest

from transodb import (
    ClassDef,
    ClassModel,
    DocumentError,
    FieldDef,
    FileStore,
    ListOf,
    Oid,
    ObjectRecord,
    Ref,
    Scalar,
    ScalarKind,
    export_to,
    import_document,
)


@pytest.fixture
def person_model():
    """Person(name, age): the smallest interesting model."""
    return ClassModel(
        "m",
        {
            "Person": ClassDef(
                "Person",
                None,
                (
                    FieldDef("name", Scalar(ScalarKind.STR)),
                    FieldDef("age", Scalar(ScalarKind.INT64)),
                ),
            )
        },
    )


@pytest.fixture
def family_model():
    """Person with refs and a list, Employee extending it."""
    return ClassModel(
        "family",
        {
            "Person": ClassDef(
                "Person",
                None,
                (
                    FieldDef("name", Scalar(ScalarKind.STR)),
                    FieldDef("age", Scalar(ScalarKind.INT64)),
                    FieldDef("spouse", Ref("Person"), optional=True),
                    FieldDef("friends", ListOf(Ref("Person"))),
                ),
            ),
            "Employee": ClassDef(
                "Employee",
                "Person",
                (FieldDef("salary", Scalar(ScalarKind.FLOAT64), optional=True),),
            ),
        },
    )


def person(oid, name="A", age=30, **extra):
    values = {"name": name, "age": age}
    values.update(extra)
    return ObjectRecord("Person", Oid(oid), values)


def with_bad_tail(doc: bytes) -> bytes:
    """doc with a record of an unknown class added after its last record."""
    return doc.replace(b"</objects>\n", b'<o c="Nope" id="zz"/>\n</objects>\n')


class CountingFileStore(FileStore):
    """A FileStore that counts the records it accepted through _put_line,
    the one method every put and every import goes through."""

    puts = 0

    def _put_line(self, token, line):
        super()._put_line(token, line)
        self.puts += 1


class RecordedWrites:
    """A binary sink that keeps each write as it was made."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data) -> int:
        self.writes.append(bytes(data))
        return len(data)


def stream_through_file_store(doc: bytes, model, directory, records: int) -> bytes:
    """Check that import and export of doc move it record by record, and
    return the exported bytes.

    Import: doc with a bad record after its last one fails only once all
    `records` records before it reached put, and the rollback leaves the
    store empty. Export, after a clean import: no write holds more than
    one line."""
    with CountingFileStore(directory, model) as store:
        with pytest.raises(DocumentError):
            import_document(with_bad_tail(doc), model, store)
        assert store.puts == records
        assert store.count() == 0

        import_document(doc, model, store)
        out = RecordedWrites()
        export_to(store, model, out)
    assert all(write.count(b"\n") <= 1 for write in out.writes)
    return b"".join(out.writes)
