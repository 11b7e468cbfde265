"""Canonical document writer/reader, schema hash, and the verbose baseline."""

import random
import struct

import pytest

from transodb import (
    ClassDef,
    ClassModel,
    DocumentError,
    FieldDef,
    HeaderMismatchError,
    ObjectRecord,
    Oid,
    RecordError,
    Scalar,
    ScalarKind,
    read_canonical,
    schema_hash,
    validate_record,
    write_canonical,
    write_verbose,
)
from transodb.conformance import fnv1a64_reference, random_graph, random_model
from transodb.graph import records_equal
from transodb.bench import bench_model
from transodb.model import LayoutIndex, ListOf
from transodb.objectxml import (
    LineAcceptor,
    decode_record_line,
    fnv1a64,
    format_record,
    iter_refs,
    line_oid,
    line_refs,
    parse_record_line,
)

from conftest import person, with_bad_tail


# -- schema hash --------------------------------------------------------------


def test_hash_of_empty_dump_is_offset_basis():
    assert schema_hash(ClassModel("m")) == "cbf29ce484222325"
    assert fnv1a64_reference(b"") == "cbf29ce484222325"


def test_fnv_published_vectors():
    assert format(fnv1a64(b"a"), "016x") == "af63dc4c8601ec8c"
    assert format(fnv1a64(b"foobar"), "016x") == "85944171f73967e8"


def test_person_hash_matches_reference(person_model):
    expected = fnv1a64_reference(b"class Person { name:str, age:int }\n")
    assert schema_hash(person_model) == expected == "1f6905b44bb045fa"


def test_hash_differs_when_a_field_name_differs(person_model):
    other = ClassModel(
        "m",
        {
            "Person": ClassDef(
                "Person",
                None,
                (
                    FieldDef("nome", Scalar(ScalarKind.STR)),
                    FieldDef("age", Scalar(ScalarKind.INT64)),
                ),
            )
        },
    )
    assert schema_hash(other) != schema_hash(person_model)


# -- writer -------------------------------------------------------------------


def test_empty_document_exact_bytes(person_model):
    h = schema_hash(person_model)
    expected = (
        b'<?xml version="1.0" encoding="UTF-8"?>\n'
        + f'<objects schema="m" schemaHash="{h}">\n'.encode()
        + b"</objects>\n"
    )
    assert write_canonical([], person_model) == expected


def test_record_line_with_escaping(person_model):
    doc = write_canonical([person("o1", name="A<B")], person_model)
    assert b'<o c="Person" id="o1"><name>A&lt;B</name><age>30</age></o>' in doc.splitlines()


def test_mutual_refs_sorted_by_oid(family_model):
    a = person("o1", spouse=Oid("o2"))
    b = person("o2", spouse=Oid("o1"))
    lines = write_canonical([b, a], family_model).splitlines()
    assert lines[2].startswith(b'<o c="Person" id="o1">')
    assert lines[3].startswith(b'<o c="Person" id="o2">')
    assert b'<spouse r="o2"/>' in lines[2]
    assert b'<spouse r="o1"/>' in lines[3]


def test_writer_is_permutation_invariant(family_model):
    records = [person(f"p{i}", age=i) for i in range(20)]
    forward = write_canonical(records, family_model)
    assert write_canonical(list(reversed(records)), family_model) == forward


def test_empty_string_renders_self_closed(person_model):
    doc = write_canonical([person("o1", name="")], person_model)
    assert b"<name/><age>30</age>" in doc


def test_bool_int_float_rendering():
    m = ClassModel(
        "m",
        {
            "T": ClassDef(
                "T",
                None,
                (
                    FieldDef("b", Scalar(ScalarKind.BOOL)),
                    FieldDef("i", Scalar(ScalarKind.INT64)),
                    FieldDef("f", Scalar(ScalarKind.FLOAT64)),
                ),
            )
        },
    )
    doc = write_canonical(
        [ObjectRecord("T", Oid("t"), {"b": True, "i": -42, "f": 0.1})], m
    )
    assert b"<b>true</b><i>-42</i><f>0.1</f>" in doc


def test_writer_rejections(person_model, family_model):
    ok = person("o1")
    with pytest.raises(RecordError):
        write_canonical([ok, person("o1")], person_model)  # duplicate OID
    with pytest.raises(RecordError):
        write_canonical([ObjectRecord("Ghost", Oid("g"), {})], person_model)
    with pytest.raises(RecordError):
        write_canonical([person("o1", age="thirty")], person_model)  # kind mismatch
    with pytest.raises(RecordError):
        write_canonical([ObjectRecord("Person", Oid("o1"), {"name": "x"})], person_model)
    with pytest.raises(RecordError):
        write_canonical([person("o1", age=1 << 63)], person_model)  # overflow
    with pytest.raises(RecordError):
        write_canonical(
            [person("o1", spouse=Oid("o1"), friends=[], salary=float("nan"))],
            family_model,
        )
    with pytest.raises(RecordError):
        write_canonical([ObjectRecord("Person", Oid("bad token!"), {})], person_model)


def test_validate_record_accepts_absent_optionals(family_model):
    validate_record(person("o1"), family_model)  # spouse/friends absent is fine


# -- reader -------------------------------------------------------------------


def test_read_empty_document(person_model):
    calls = []
    header = read_canonical(write_canonical([], person_model), person_model, calls.append)
    assert calls == []
    assert header.schema_name == "m"
    assert header.schema_hash == schema_hash(person_model)


def test_round_trip_records_equal(family_model):
    records = [
        person("o2", name="weird &<>\" text", spouse=Oid("o1")),
        person("o1", friends=[Oid("o1"), Oid("o2")]),
    ]
    doc = write_canonical(records, family_model)
    got = []
    read_canonical(doc, family_model, got.append)
    assert [r.oid.token for r in got] == ["o1", "o2"]
    by_oid = {r.oid.token: r for r in records}
    for rec in got:
        assert records_equal(rec, by_oid[rec.oid.token])


def test_round_trip_bytes_stable_randomized():
    for seed in range(25):
        model = random_model(seed)
        graph = random_graph(model, seed, 40)
        doc = write_canonical(graph.records.values(), model)
        got = []
        read_canonical(doc, model, got.append)
        assert write_canonical(got, model) == doc


# text that holds what a loose OID or reference pattern would take for markup
_DECOYS = ['x r="o1"/>', '"/>', ' id="p2">', "&quot;", "&gt;", '<friends r="r0"/>', ' r="r1"']


def _with_decoys(record, layouts, i):
    """record with every string value, scalar or list item, replaced by a decoy."""
    values = dict(record.values)
    for fdef in layouts.layout(record.class_name):
        kind = fdef.kind.element if isinstance(fdef.kind, ListOf) else fdef.kind
        if fdef.name not in values or getattr(kind, "kind", None) is not ScalarKind.STR:
            continue
        if isinstance(fdef.kind, ListOf):
            values[fdef.name] = _DECOYS[: len(values[fdef.name])]
        else:
            values[fdef.name] = _DECOYS[i % len(_DECOYS)]
    return ObjectRecord(record.class_name, record.oid, values)


def test_line_tokens_match_the_decode():
    """The OID and reference tokens read from a canonical line's bytes are
    the decoded record's OID and its iter_refs targets, in order."""
    decoyed = 0
    for seed in range(60):
        model = bench_model() if seed % 4 == 0 else random_model(seed)
        layouts = LayoutIndex(model)
        for i, record in enumerate(random_graph(model, seed, 30).records.values()):
            line = (format_record(_with_decoys(record, layouts, i), layouts) + "\n").encode()
            decoyed += b'x r="o1"/&gt;' in line
            decoded = decode_record_line(line, model, layouts)
            assert line_oid(line) == decoded.oid.token
            assert line_refs(line) == [t.token for _, _, t in iter_refs(decoded, layouts)]
    assert decoyed


def test_line_tokens_ignore_decoy_text(family_model):
    layouts = LayoutIndex(family_model)
    for decoy in _DECOYS:
        record = person("p1", name=decoy, spouse=Oid("s.1"), friends=[Oid("f-2"), Oid("p1")])
        line = (format_record(record, layouts) + "\n").encode()
        assert line_oid(line) == "p1"
        assert line_refs(line) == ["s.1", "f-2", "p1"]
    assert line_oid(b'<o id="p1" c="Person"></o>\n') is None


# -- the canonical-line acceptor against the decoder --------------------------


def _canonical_decode(line, model, layouts):
    """The oracle: the decode of line, if line is format_record of it plus
    a newline; else None."""
    try:
        record = decode_record_line(line, model, layouts)
    except DocumentError:
        return None
    return record if (format_record(record, layouts) + "\n").encode() == line else None


def _agrees(acceptor, line, model, layouts) -> bool:
    """Assert the acceptor and the oracle agree on line; return the verdict."""
    want = _canonical_decode(line, model, layouts)
    got = acceptor.accept(line)
    assert (got is None) == (want is None), line
    if want is not None:
        refs = [t.token for _, _, t in iter_refs(want, layouts)]
        assert got == (want.class_name, want.oid.token, refs), line
        assert got[2] == line_refs(line)
    return got is not None


# bytes that a mutant inserts, besides random ones
_SPLICES = [b"<", b">", b"&", b"\n", b"\r", b"\t", b"\x00", b"\x1f", b"\x80", b'"', b"'", b" ",
            b"-", b"0", b"9", b"e", b".", b"&amp;", b"&#65;", b"</o>", b"\xef\xbf\xbe",
            b"\xed\xa0\x80"]


def _mutant(rng, line: bytes) -> bytes:
    """line after 1-3 random byte flips, inserts, deletes or swaps."""
    data = bytearray(line)
    for _ in range(rng.randint(1, 3)):
        op, pos = rng.randrange(4), rng.randrange(len(data) + 1)
        if op == 0 and pos < len(data):
            data[pos] = rng.randrange(256) if rng.random() < 0.5 else rng.choice(b'0123456789-.e<>&/"= ')
        elif op == 1:
            data[pos:pos] = rng.choice(_SPLICES) if rng.random() < 0.7 else bytes([rng.randrange(256)])
        elif op == 2:
            del data[pos : pos + rng.randint(1, 4)]
        elif op == 3 and pos < len(data) - 1:
            data[pos], data[pos + 1] = data[pos + 1], data[pos]
    return bytes(data)


def test_line_acceptor_agrees_with_the_decoder():
    """LineAcceptor accepts exactly the lines that decode and are
    format_record of their decode plus a newline, with the decode's class,
    OID and reference tokens: over random_graph lines, with and without
    decoy strings, and seeded mutants of them."""
    rng = random.Random(2004)
    inputs = accepted = 0
    for seed in range(40):
        model = bench_model() if seed % 4 == 0 else random_model(seed)
        layouts = LayoutIndex(model)
        acceptor = LineAcceptor(layouts)
        for i, record in enumerate(random_graph(model, seed, 20).records.values()):
            for variant in (record, _with_decoys(record, layouts, i)):
                line = (format_record(variant, layouts) + "\n").encode()
                assert _agrees(acceptor, line, model, layouts)
                for _ in range(7):
                    accepted += _agrees(acceptor, _mutant(rng, line), model, layouts)
                    inputs += 1
    assert inputs >= 10_000
    assert accepted  # some mutants are canonical lines of other records


@pytest.mark.parametrize(
    "leaves, canonical",
    [
        ("<name>A</name><age>1</age><salary>1.0</salary>", True),
        ("<name>A</name><age>1</age><salary>inf</salary>", False),
        ("<name>A</name><age>1</age><salary>nan</salary>", False),
        ("<name>A</name><age>1</age><salary>-inf</salary>", False),
        ("<name>A</name><age>1</age><salary>1e999</salary>", False),
        ("<name>A</name><age>1</age><salary>1e0</salary>", False),
        ("<name>A</name><age>1</age><salary>1.0e+16</salary>", False),
        ("<name>A</name><age>1</age><salary>1e+16</salary>", True),
        ("<name>A</name><age>1</age><salary>-0.0</salary>", True),
        ("<name>A</name><age>-0</age>", False),
        ("<name>A</name><age>007</age>", False),
        ("<name>A</name><age>9223372036854775807</age>", True),
        ("<name>A</name><age>9223372036854775808</age>", False),
        ("<name>A</name><age>-9223372036854775808</age>", True),
        ("<name>A</name><age>-9223372036854775809</age>", False),
        ("<name>A</name><age>99999999999999999999</age>", False),
        ("<name>x\ufffey</name><age>1</age>", False),
        ("<name>x\uffffy</name><age>1</age>", False),
        ("<name>café \U0001d11e</name><age>1</age>", True),
        ("<name>tab\tok</name><age>1</age>", True),
        ("<name>&amp;&lt;&gt;&#13;&#10;</name><age>1</age>", True),
        ("<name>&#120;</name><age>1</age>", False),
        ("<name>&quot;</name><age>1</age>", False),
        ("<name>&#9;</name><age>1</age>", False),
        ("<name></name><age>1</age>", False),
        ("<name/><age>1</age>", True),
        ("<age>1</age><name>A</name>", False),
    ],
)
def test_line_acceptor_edge_cases(family_model, leaves, canonical):
    layouts = LayoutIndex(family_model)
    line = f'<o c="Employee" id="e1">{leaves}</o>\n'.encode()
    assert _agrees(LineAcceptor(layouts), line, family_model, layouts) is canonical


@pytest.mark.parametrize(
    "raw",
    [b"\xed\xa0\x80", b"\xed\xbf\xbf", b"\xff", b"\xc3", b"\xc0\xaf", b"\xf4\x90\x80\x80",
     b"\x00", b"\x07", b"\x0b", b"\x1f", b"\r", b"\n"],
    ids=lambda raw: raw.hex(),
)
def test_line_acceptor_rejects_bytes_xml_cannot_carry(family_model, raw):
    layouts = LayoutIndex(family_model)
    line = b'<o c="Person" id="p1"><name>a' + raw + b"b</name><age>1</age></o>\n"
    assert not _agrees(LineAcceptor(layouts), line, family_model, layouts)


def test_escaping_totality_for_nasty_text(person_model):
    nasty = "&<>\"'é日本\U0001d11e &amp; <o> ]]> \t\r\n\r\n mixed"
    doc = write_canonical([person("o1", name=nasty)], person_model)
    got = []
    read_canonical(doc, person_model, got.append)
    assert got[0].values["name"] == nasty


def test_record_lines_never_contain_raw_newlines(person_model):
    doc = write_canonical([person("o1", name="a\nb\rc")], person_model)
    assert len(doc.splitlines()) == 4  # declaration, header, one record, footer


def test_unrepresentable_control_chars_rejected(person_model):
    with pytest.raises(RecordError):
        write_canonical([person("o1", name="nul\x00")], person_model)
    with pytest.raises(RecordError):
        write_canonical([person("o1", name="bell\x07")], person_model)
    validate_record(person("o1", name="tab\tok"), person_model)


def test_float_bit_exact_round_trip(family_model):
    for value in (0.1, -0.0, 1e308, 5e-324, 3.141592653589793):
        rec = ObjectRecord("Employee", Oid("e1"), {"name": "E", "age": 1, "salary": value})
        doc = write_canonical([rec], family_model)
        got = []
        read_canonical(doc, family_model, got.append)
        assert struct.pack(">d", got[0].values["salary"]) == struct.pack(">d", value)


def test_header_mismatch_fails_before_any_record(person_model):
    doc = write_canonical([person("o1")], person_model)
    h = schema_hash(person_model)
    flipped = ("0" if h[0] != "0" else "1") + h[1:]
    bad = doc.replace(h.encode(), flipped.encode())
    calls = []
    with pytest.raises(HeaderMismatchError):
        read_canonical(bad, person_model, calls.append)
    assert calls == []


def test_reader_rejects_malformed_markup_with_position(person_model):
    doc = write_canonical([person("o1")], person_model)
    truncated = doc[: len(doc) - 15]
    with pytest.raises(DocumentError) as exc:
        read_canonical(truncated, person_model, lambda r: None)
    line_count = truncated.count(b"\n") + 1
    assert 1 <= exc.value.line <= line_count


@pytest.mark.parametrize(
    "payload, message_part",
    [
        ('<o c="Ghost" id="o1"></o>', "unknown class"),
        ('<o c="Person" id="o1"><nope>x</nope></o>', "unknown field"),
        ('<o c="Person" id="o1"><name>a</name><name>b</name><age>1</age></o>', "duplicate field"),
        ('<o c="Person" id="o1"><name>a</name><age>true</age></o>', "not a canonical integer"),
        ('<o c="Person" id="o1"><name>a</name><age>9223372036854775808</age></o>', "overflows"),
        ('<o c="Person" id="o1"><name>a</name></o>', "missing required"),
        ('<o c="Person" id="o1"><name><i>x</i></name><age>1</age></o>', "nested"),
        ('<o c="Person" id="@bad"><name>a</name><age>1</age></o>', "invalid OID"),
        ("stray text", "unexpected text"),
    ],
)
@pytest.mark.parametrize("entry", ["read_canonical", "parse_record_line"])
def test_reader_rejects_bad_records(person_model, payload, message_part, entry):
    if entry == "read_canonical":
        h = schema_hash(person_model)
        doc = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<objects schema="m" schemaHash="{h}">\n'
            f"{payload}\n"
            "</objects>\n"
        ).encode()
        with pytest.raises(DocumentError) as exc:
            read_canonical(doc, person_model, lambda r: None)
    else:
        if payload == "stray text":
            message_part = "malformed XML"  # a bare line has no root to hold text
        with pytest.raises(DocumentError) as exc:
            parse_record_line(payload, person_model)
    assert message_part in str(exc.value)
    assert exc.value.line >= 1


def test_reader_requires_header_attributes(person_model):
    for header in (
        "<objects>",
        '<objects schema="m">',
        f'<objects schemaHash="{schema_hash(person_model)}">',
        '<wrong schema="m" schemaHash="x">',
    ):
        doc = f'<?xml version="1.0" encoding="UTF-8"?>\n{header}\n</{header[1:].split()[0].rstrip(">")}>\n'.encode()
        with pytest.raises(DocumentError):
            read_canonical(doc, person_model, lambda r: None)


def test_bad_encoding_declaration_is_a_document_error(person_model):
    doc = write_canonical([person("o1")], person_model)
    broken = doc.replace(b'encoding="UTF-8"', b'encoding="UTR-8"')
    with pytest.raises(DocumentError) as exc:
        read_canonical(broken, person_model, lambda r: None)
    assert "malformed XML" in str(exc.value)


def test_mutated_documents_never_escape_document_errors(person_model):
    import random as _random

    rng = _random.Random(11)
    doc = write_canonical([person(f"o{i}") for i in range(5)], person_model)
    for _ in range(300):
        data = bytearray(doc)
        for _ in range(rng.randint(1, 8)):
            pos = rng.randrange(len(data))
            op = rng.random()
            if op < 0.4:
                data[pos] = rng.randrange(256)
            elif op < 0.7:
                del data[pos : pos + rng.randint(1, 12)]
            else:
                data[pos:pos] = bytes(rng.randrange(1, 256) for _ in range(rng.randint(1, 8)))
        try:
            read_canonical(bytes(data), person_model, lambda r: None)
        except DocumentError:
            pass  # anything else propagates and fails the test


def test_reader_decodes_entities_and_accepts_open_close_empty(person_model):
    h = schema_hash(person_model)
    doc = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<objects schema="m" schemaHash="{h}">\n'
        '<o c="Person" id="o1"><name>&amp;&lt;&gt;&#65;</name><age>7</age></o>\n'
        '<o c="Person" id="o2"><name></name><age>8</age></o>\n'
        "</objects>\n"
    ).encode()
    got = []
    read_canonical(doc, person_model, got.append)
    assert got[0].values["name"] == "&<>A"
    assert got[1].values["name"] == ""


def test_header_attribute_escaping_round_trips(person_model):
    person_model.name = 'tricky "name" <with>\n&\tjunk'
    doc = write_canonical([], person_model)
    header = read_canonical(doc, person_model, lambda r: None)
    assert header.schema_name == person_model.name


def test_reader_streams_one_record_at_a_time(family_model):
    records = [person(f"p{i}", spouse=Oid(f"p{(i + 1) % 50}")) for i in range(50)]
    doc = with_bad_tail(write_canonical(records, family_model))
    got = []
    with pytest.raises(DocumentError):
        read_canonical(doc, family_model, got.append)
    # each record reached the sink as it closed, before the bad one was read
    assert [r.oid.token for r in got] == sorted((r.oid.token for r in records), key=str.encode)


# -- verbose baseline -----------------------------------------------------------


def test_verbose_empty_graph(person_model):
    docs = write_verbose([], person_model)
    assert sorted(docs) == ["data.dtd", "data.xml", "schema.dtd", "schema.xml"]
    assert b"<Object>" not in docs["data.xml"]


def test_verbose_single_record_structure(person_model):
    docs = write_verbose([person("o1")], person_model)
    data = docs["data.xml"]
    assert data.count(b"<TypeDescriptor>") == 1
    assert data.count(b"<Database>DB0</Database>") == 1
    assert b"<Container>0</Container>" in data
    assert b"<Page>0</Page>" in data
    assert b"<Slot>0</Slot>" in data


def test_verbose_is_always_bigger(family_model):
    records = [person(f"p{i:03d}", spouse=Oid("p000")) for i in range(100)]
    canonical = write_canonical(records, family_model)
    verbose = write_verbose(records, family_model)
    assert sum(len(v) for v in verbose.values()) > len(canonical)
