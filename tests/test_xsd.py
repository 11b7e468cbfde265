"""Frontend subset parsing, diagnostics, and the emit/parse round trip."""

from xml.parsers import expat

import pytest

from transodb import ListOf, Ref, Scalar, ScalarKind, dump_model, emit_schema, parse_schema
from transodb.conformance import random_model

XSD_NS = "http://www.w3.org/2001/XMLSchema"


def wrap(body, prefix="xs"):
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<{prefix}:schema xmlns:{prefix}="{XSD_NS}">\n{body}</{prefix}:schema>\n'
    )


def errors_of(diags):
    return [d for d in diags if d.severity == "error"]


def test_empty_schema_gives_empty_model():
    model, diags = parse_schema(wrap(""), "m")
    assert model is not None
    assert model.classes == {}
    assert errors_of(diags) == []


def test_person_complex_type():
    model, diags = parse_schema(
        wrap(
            '  <xs:complexType name="Person">\n'
            "    <xs:sequence>\n"
            '      <xs:element name="name" type="xs:string"/>\n'
            '      <xs:element name="age" type="xs:int"/>\n'
            "    </xs:sequence>\n"
            "  </xs:complexType>\n"
        ),
        "m",
    )
    assert errors_of(diags) == []
    fields = model.classes["Person"].own_fields
    assert [f.name for f in fields] == ["name", "age"]
    assert fields[0].kind == Scalar(ScalarKind.STR)
    assert fields[1].kind == Scalar(ScalarKind.INT64)
    assert not fields[0].optional and not fields[1].optional


def test_extension_with_optional_ref():
    model, diags = parse_schema(
        wrap(
            '  <xs:complexType name="Person">\n'
            "    <xs:sequence>\n"
            '      <xs:element name="name" type="xs:string"/>\n'
            "    </xs:sequence>\n"
            "  </xs:complexType>\n"
            '  <xs:complexType name="Employee">\n'
            "    <xs:complexContent>\n"
            '      <xs:extension base="Person">\n'
            "        <xs:sequence>\n"
            '          <xs:element name="boss" type="Person" minOccurs="0"/>\n'
            "        </xs:sequence>\n"
            "      </xs:extension>\n"
            "    </xs:complexContent>\n"
            "  </xs:complexType>\n"
        ),
        "m",
    )
    assert errors_of(diags) == []
    employee = model.classes["Employee"]
    assert employee.superclass == "Person"
    (boss,) = employee.own_fields
    assert boss.kind == Ref("Person")
    assert boss.optional


def test_unbounded_becomes_list():
    model, diags = parse_schema(
        wrap(
            '  <xs:complexType name="P">\n'
            "    <xs:sequence>\n"
            '      <xs:element name="tags" type="xs:string" maxOccurs="unbounded"/>\n'
            '      <xs:element name="friends" type="P" minOccurs="0" maxOccurs="unbounded"/>\n'
            "    </xs:sequence>\n"
            "  </xs:complexType>\n"
        ),
        "m",
    )
    assert errors_of(diags) == []
    tags, friends = model.classes["P"].own_fields
    assert tags.kind == ListOf(Scalar(ScalarKind.STR))
    assert tags.optional  # lists are optional-with-empty-default
    assert friends.kind == ListOf(Ref("P"))


def test_datetime_rejected_with_location():
    text = wrap(
        '  <xs:complexType name="P">\n'
        "    <xs:sequence>\n"
        '      <xs:element name="when" type="xs:dateTime"/>\n'
        "    </xs:sequence>\n"
        "  </xs:complexType>\n"
    )
    model, diags = parse_schema(text, "m")
    assert model is None
    (err,) = errors_of(diags)
    assert "xs:dateTime" in err.message
    assert err.line == 5  # the element's line


def test_top_level_element_skipped_with_warning():
    model, diags = parse_schema(
        wrap('  <xs:element name="root" type="xs:string"/>\n'), "m"
    )
    assert model is not None
    assert errors_of(diags) == []
    (warning,) = diags
    assert warning.severity == "warning"
    assert "root" in warning.message


def test_top_level_element_subtree_fully_skipped():
    model, diags = parse_schema(
        wrap(
            '  <xs:element name="root">\n'
            '    <xs:complexType><xs:sequence/></xs:complexType>\n'
            "  </xs:element>\n"
        ),
        "m",
    )
    assert model is not None
    assert errors_of(diags) == []


@pytest.mark.parametrize(
    "body, message_part",
    [
        ('  <xs:complexType name="P"><xs:choice/></xs:complexType>\n', "xs:choice"),
        ('  <xs:complexType name="P"><xs:all/></xs:complexType>\n', "xs:all"),
        (
            '  <xs:complexType name="P"><xs:attribute name="a" type="xs:string"/></xs:complexType>\n',
            "xs:attribute",
        ),
        (
            '  <xs:complexType name="P"><xs:sequence>'
            '<xs:element name="x"><xs:complexType/></xs:element>'
            "</xs:sequence></xs:complexType>\n",
            "anonymous",
        ),
        (
            '  <xs:complexType name="P"><xs:sequence>'
            '<xs:element name="x" type="foo:Bar"/>'
            "</xs:sequence></xs:complexType>\n",
            "namespace-qualified",
        ),
        (
            '  <xs:complexType name="P"><xs:sequence>'
            '<xs:element name="x" type="xs:decimal"/>'
            "</xs:sequence></xs:complexType>\n",
            "unsupported XSD type",
        ),
        (
            '  <xs:complexType name="P"><xs:sequence>'
            '<xs:element name="x" type="Ghost"/>'
            "</xs:sequence></xs:complexType>\n",
            "unresolved type reference",
        ),
        ('  <xs:simpleType name="S"/>\n', "unsupported construct"),
        (
            '  <xs:complexType name="P"><xs:sequence>'
            '<xs:element name="x" type="xs:string" nillable="true"/>'
            "</xs:sequence></xs:complexType>\n",
            "unsupported attribute",
        ),
        (
            '  <xs:complexType name="P"><xs:sequence>'
            '<xs:element name="x" type="xs:string" minOccurs="2"/>'
            "</xs:sequence></xs:complexType>\n",
            "minOccurs",
        ),
        ('  <xs:complexType name="P"/>\n  <xs:complexType name="P"/>\n', "duplicate complexType"),
        (
            '  <xs:complexType name="P">'
            "<xs:complexContent>"
            '<xs:extension base="xs:string"><xs:sequence/></xs:extension>'
            "</xs:complexContent></xs:complexType>\n",
            "must name a declared complexType",
        ),
        (
            '  <xs:complexType name="P"><xs:sequence/><xs:complexContent>'
            '<xs:extension base="P"><xs:sequence/></xs:extension>'
            "</xs:complexContent></xs:complexType>\n",
            "complexType allows a single content block",
        ),
        (
            '  <xs:complexType name="B"/>\n'
            '  <xs:complexType name="P"><xs:complexContent>'
            '<xs:extension base="B"><xs:sequence/></xs:extension>'
            '<xs:extension base="B"><xs:sequence/></xs:extension>'
            "</xs:complexContent></xs:complexType>\n",
            "complexContent allows a single extension",
        ),
        (
            '  <xs:complexType name="B"/>\n'
            '  <xs:complexType name="P"><xs:complexContent>'
            '<xs:extension base="B"><xs:sequence/><xs:sequence/></xs:extension>'
            "</xs:complexContent></xs:complexType>\n",
            "extension allows a single sequence",
        ),
    ],
)
def test_rejected_constructs(body, message_part):
    model, diags = parse_schema(wrap(body), "m")
    assert model is None
    assert any(message_part in d.message for d in errors_of(diags))


def test_reserved_field_name_rejected_via_validator():
    model, diags = parse_schema(
        wrap(
            '  <xs:complexType name="P"><xs:sequence>'
            '<xs:element name="id" type="xs:string"/>'
            "</xs:sequence></xs:complexType>\n"
        ),
        "m",
    )
    assert model is None
    assert any("reserved field name" in d.message for d in errors_of(diags))


def test_inheritance_cycle_surfaces_as_error():
    model, diags = parse_schema(
        wrap(
            '  <xs:complexType name="A"><xs:complexContent>'
            '<xs:extension base="B"><xs:sequence/></xs:extension>'
            "</xs:complexContent></xs:complexType>\n"
            '  <xs:complexType name="B"><xs:complexContent>'
            '<xs:extension base="A"><xs:sequence/></xs:extension>'
            "</xs:complexContent></xs:complexType>\n"
        ),
        "m",
    )
    assert model is None
    assert any("inheritance cycle" in d.message for d in errors_of(diags))


def test_malformed_xml_has_bounded_line():
    text = wrap('  <xs:complexType name="P">\n')  # unclosed element
    model, diags = parse_schema(text, "m")
    assert model is None
    line_count = text.count("\n")
    for err in errors_of(diags):
        assert 1 <= err.line <= line_count + 1


def test_bad_encoding_declaration_is_a_diagnostic():
    text = wrap("").replace('encoding="UTF-8"', 'encoding="UTR-8"')
    model, diags = parse_schema(text, "m")
    assert model is None
    assert any("malformed XML" in d.message for d in errors_of(diags))


def test_mutated_schemas_never_escape_diagnostics():
    import random as _random

    rng = _random.Random(5)
    base = emit_schema(random_model(9)).encode()
    for _ in range(300):
        data = bytearray(base)
        for _ in range(rng.randint(1, 8)):
            pos = rng.randrange(len(data))
            op = rng.random()
            if op < 0.4:
                data[pos] = rng.randrange(256)
            elif op < 0.7:
                del data[pos : pos + rng.randint(1, 12)]
            else:
                data[pos:pos] = bytes(rng.randrange(1, 256) for _ in range(rng.randint(1, 8)))
        model, diags = parse_schema(bytes(data), "fz")
        if model is None:
            assert any(d.severity == "error" for d in diags)


def test_non_xsd_root_rejected():
    model, diags = parse_schema("<root/>", "m")
    assert model is None
    assert any("XSD namespace" in d.message for d in errors_of(diags))


def test_prefix_detected_from_root():
    model, diags = parse_schema(
        wrap('  <xsd:complexType name="P"><xsd:sequence/></xsd:complexType>\n', prefix="xsd"),
        "m",
    )
    assert errors_of(diags) == []
    assert "P" in model.classes


def test_default_namespace_documents_parse():
    text = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<schema xmlns="{XSD_NS}">\n'
        '  <complexType name="P">\n'
        '    <sequence><element name="x" type="string"/></sequence>\n'
        "  </complexType>\n"
        "</schema>\n"
    )
    model, diags = parse_schema(text, "m")
    assert errors_of(diags) == []
    assert model.classes["P"].own_fields[0].kind == Scalar(ScalarKind.STR)


def test_all_errors_collected_not_just_first():
    model, diags = parse_schema(
        wrap(
            '  <xs:complexType name="P"><xs:sequence>'
            '<xs:element name="a" type="xs:dateTime"/>'
            '<xs:element name="b" type="xs:decimal"/>'
            "</xs:sequence></xs:complexType>\n"
        ),
        "m",
    )
    assert model is None
    assert len(errors_of(diags)) == 2


# -- emitter ------------------------------------------------------------------


def test_emit_empty_model():
    from transodb import ClassModel

    assert emit_schema(ClassModel("m")) == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<xs:schema xmlns:xs="{XSD_NS}"/>\n'
    )


def test_emit_reparse_person(person_model):
    text = emit_schema(person_model)
    model, diags = parse_schema(text, "m")
    assert errors_of(diags) == []
    assert dump_model(model) == "class Person { name:str, age:int }\n"


def test_emit_list_field_round_trips(family_model):
    text = emit_schema(family_model)
    assert 'maxOccurs="unbounded"' in text
    model, diags = parse_schema(text, family_model.name)
    assert errors_of(diags) == []
    assert dump_model(model) == dump_model(family_model)


def test_round_trip_random_models():
    for seed in range(60):
        m = random_model(seed)
        reparsed, diags = parse_schema(emit_schema(m), m.name)
        assert errors_of(diags) == [], f"seed {seed}: {diags}"
        assert dump_model(reparsed) == dump_model(m), f"seed {seed}"


def _element_depth(text: str) -> int:
    depth = deepest = 0

    def start(name, attrs):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)

    def end(name):
        nonlocal depth
        depth -= 1

    parser = expat.ParserCreate()
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.Parse(text, True)
    return deepest


def test_single_pass_depth_bound():
    for seed in range(20):
        m = random_model(seed)
        assert _element_depth(emit_schema(m)) <= 6, f"seed {seed}"
