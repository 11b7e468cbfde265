"""record_line checks and formats a record in one pass over its class's
write plan. It is held to the two walks it replaced (validate_record, then
format_record), kept here as the oracle, and it writes every value by its
base type, whatever methods a subclass gives it."""

import math
import random
import re

import pytest

from transodb import (
    FileStore,
    MemStore,
    ObjectRecord,
    Oid,
    RecordError,
    export_store,
    import_document,
    validate_record,
    write_canonical,
    write_verbose,
)
from transodb.bench import bench_model
from transodb.conformance import random_graph, random_model
from transodb.graph import records_equal
from transodb.model import LayoutIndex, ListOf, Ref, ScalarKind
from transodb.objectxml import LineAcceptor, decode_record_line, format_record, record_line

from conftest import person


# -- the oracle: validate_record and format_record as two walks -------------

_O_OID_RE = re.compile(r"[A-Za-z0-9_.\-]+\Z")
_O_UNREPRESENTABLE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_O_TEXT = {ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;", ord("\r"): "&#13;", ord("\n"): "&#10;"}
_O_ATTR = {**_O_TEXT, ord('"'): "&quot;", ord("\t"): "&#9;"}


def oracle_validate(record, model, layouts):
    if not isinstance(record.oid, Oid) or not _O_OID_RE.match(record.oid.token):
        raise RecordError(f"invalid OID {getattr(record.oid, 'token', record.oid)!r}")
    try:
        known = record.class_name in model.classes
        record.values.keys()
    except (TypeError, AttributeError):
        raise RecordError(f"record {record.oid.token} needs a hashable class name and a dict of values") from None
    if not known:
        raise RecordError(f"unknown class {record.class_name!r} (record {record.oid.token})")
    layout = layouts.layout(record.class_name)
    declared = {f.name for f in layout}
    for name in record.values:
        if name not in declared:
            raise RecordError(f"unknown field {name!r} on {record.class_name} (record {record.oid.token})")
    for fdef in layout:
        if fdef.name not in record.values:
            if not fdef.optional:
                raise RecordError(f"missing required field {fdef.name!r} (record {record.oid.token})")
            continue
        value, token = record.values[fdef.name], record.oid.token
        if isinstance(fdef.kind, ListOf):
            if not isinstance(value, list):
                raise RecordError(f"field {fdef.name!r} expects a list (record {token})")
            for item in value:
                _oracle_check(fdef.name, fdef.kind.element, item, token)
        else:
            _oracle_check(fdef.name, fdef.kind, value, token)


def _oracle_check(name, kind, value, token):
    if isinstance(kind, Ref):
        if not isinstance(value, Oid):
            raise RecordError(f"field {name!r} expects a reference (record {token})")
        if not _O_OID_RE.match(value.token):
            raise RecordError(f"field {name!r} holds invalid OID {value.token!r} (record {token})")
        return
    sk = kind.kind
    if sk is ScalarKind.STR:
        if not isinstance(value, str):
            raise RecordError(f"field {name!r} expects text (record {token})")
        if _O_UNREPRESENTABLE.search(value):
            raise RecordError(f"field {name!r} holds characters XML cannot carry (record {token})")
    elif sk is ScalarKind.BOOL:
        if not isinstance(value, bool):
            raise RecordError(f"field {name!r} expects a boolean (record {token})")
    elif sk is ScalarKind.INT64:
        if isinstance(value, bool) or not isinstance(value, int):
            raise RecordError(f"field {name!r} expects an integer (record {token})")
        if not -(1 << 63) <= value <= (1 << 63) - 1:
            raise RecordError(f"field {name!r} out of 64-bit range (record {token})")
    elif sk is ScalarKind.FLOAT64:
        if not isinstance(value, float):
            raise RecordError(f"field {name!r} expects a float (record {token})")
        if not math.isfinite(value):
            raise RecordError(f"field {name!r} is not finite (record {token})")


def oracle_format(record, layouts):
    parts = [f'<o c="{record.class_name.translate(_O_ATTR)}" id="{record.oid.token.translate(_O_ATTR)}">']
    for fdef in layouts.layout(record.class_name):
        if fdef.name not in record.values:
            continue
        value = record.values[fdef.name]
        if isinstance(fdef.kind, ListOf):
            parts.extend(_oracle_leaf(fdef.name, fdef.kind.element, item) for item in value)
        else:
            parts.append(_oracle_leaf(fdef.name, fdef.kind, value))
    parts.append("</o>")
    return "".join(parts)


def _oracle_leaf(name, kind, value):
    if isinstance(kind, Ref):
        return f'<{name} r="{value.token.translate(_O_ATTR)}"/>'
    sk = kind.kind
    if sk is ScalarKind.STR:
        text = value
    elif sk is ScalarKind.BOOL:
        text = "true" if value else "false"
    elif sk is ScalarKind.INT64:
        text = str(value)
    else:
        text = repr(value)
    return f"<{name}/>" if text == "" else f"<{name}>{text.translate(_O_TEXT)}</{name}>"


# -- typed mutants of valid records -------------------------------------------

_WRONG = {  # per scalar kind: wrong types, then values the type admits but the format does not
    ScalarKind.STR: [5, b"x", None, "a\x01b", "\ud800", "x\ufffe", "\x0b"],
    ScalarKind.BOOL: [1, 0, "true", None],
    ScalarKind.INT64: [True, False, 1.0, "5", 1 << 63, -(1 << 63) - 1, 1 << 70],
    ScalarKind.FLOAT64: [1, True, "1.5", float("nan"), float("inf"), float("-inf")],
}
_WRONG_REF = ["r1", None, 5, Oid("bad oid"), Oid(""), Oid("é"), Oid("a/b")]
_EDGE = {  # valid values at the edges of each kind
    ScalarKind.STR: ["", "\t", "&amp;", "]]>", "\U0001d11e", '"\'<>&\r\n'],
    ScalarKind.BOOL: [True, False],
    ScalarKind.INT64: [(1 << 63) - 1, -(1 << 63), 0, -1],
    ScalarKind.FLOAT64: [-0.0, 5e-324, 1.7976931348623157e308, 0.1],
}


def _field_mutants(fdef, value, rng):
    """Replacement values for one field: wrong ones and valid edge ones."""
    kind = fdef.kind.element if isinstance(fdef.kind, ListOf) else fdef.kind
    wrong = _WRONG_REF if isinstance(kind, Ref) else _WRONG[kind.kind]
    edge = [Oid("a.b-c_9")] if isinstance(kind, Ref) else _EDGE[kind.kind]
    picks = rng.sample(wrong, 2) + rng.sample(edge, 1)
    if not isinstance(fdef.kind, ListOf):
        return picks + [[value]]  # a list where one value belongs
    items = list(value) if isinstance(value, list) else []
    return [tuple(items), picks[0], items + [picks[0]], [picks[1]] + items, items + [picks[2]]]


def mutants(record, layouts, rng):
    """Valid and invalid variants of a valid record, each at most a few faults."""
    layout = layouts.layout(record.class_name)
    values = record.values
    out = [
        ObjectRecord(record.class_name, Oid("bad oid"), dict(values)),
        ObjectRecord(record.class_name, Oid(""), dict(values)),
        ObjectRecord(record.class_name, record.oid.token, dict(values)),
        ObjectRecord("NoSuchClass", record.oid, dict(values)),
        ObjectRecord(record.class_name, record.oid, {"zz_unknown": 1, **values}),
        ObjectRecord(record.class_name, record.oid, {**values, "zz_unknown": 1}),
    ]
    for fdef in layout:
        if fdef.name in values and not fdef.optional:
            out.append(ObjectRecord(record.class_name, record.oid,
                                    {k: v for k, v in values.items() if k != fdef.name}))
        for replacement in _field_mutants(fdef, values.get(fdef.name), rng):
            out.append(ObjectRecord(record.class_name, record.oid, {**values, fdef.name: replacement}))
    # two field faults at once: the first in layout order must be named
    fielded = out[6:]
    for _ in range(min(3, len(fielded) // 2)):
        a, b = rng.sample(fielded, 2)
        changed = {k: v for k, v in b.values.items() if values.get(k, _ABSENT) is not v}
        out.append(ObjectRecord(record.class_name, record.oid, {**a.values, **changed}))
    out.append(ObjectRecord([record.class_name], record.oid, dict(values)))  # unhashable class name
    out.append(ObjectRecord(record.class_name, record.oid, list(values.items())))  # values not a dict
    return out


_ABSENT = object()


def _outcome(check, record):
    try:
        return "line", check(record)
    except RecordError as exc:
        return "error", str(exc)


def _models():
    yield bench_model(), 0
    for seed in range(45):
        yield random_model(seed), seed


def test_record_line_agrees_with_the_two_walks():
    """Over 46 models and typed mutants of their records, record_line,
    validate_record and format_record write the oracle's bytes and raise
    RecordError exactly when it does, with its message. Every line written
    is accepted and reads back to its record."""
    compared = faults = 0
    for model, seed in _models():
        layouts = LayoutIndex(model)
        acceptor = LineAcceptor(layouts)
        rng = random.Random(seed)
        for record in random_graph(model, seed, 20).records.values():
            for candidate in [record] + mutants(record, layouts, rng):
                def oracle(r):
                    oracle_validate(r, model, layouts)
                    return oracle_format(r, layouts)

                expected = _outcome(oracle, candidate)
                assert _outcome(lambda r: format_record(r, layouts), candidate) == expected
                assert _outcome(lambda r: validate_record(r, model, layouts), candidate) == (
                    expected if expected[0] == "error" else ("line", None))
                assert _outcome(lambda r: validate_record(r, model), candidate)[0] == expected[0]
                compared += 1
                if expected[0] == "error":
                    faults += 1
                    continue
                token, line = record_line(candidate, layouts)
                assert (token, line) == (candidate.oid.token, expected[1] + "\n")
                data = line.encode("utf-8")
                assert acceptor.accept(data) is not None
                assert records_equal(decode_record_line(data, model), candidate)
    assert compared > 20_000 and faults > compared // 2


# -- values are written by their base type --------------------------------------


class SlyInt(int):
    def __str__(self):
        return "007"

    __repr__ = __format__ = lambda self, *spec: "007"


class SlyStr(str):
    def translate(self, table):
        return "<evil/>"

    __str__ = __repr__ = lambda self: "<evil/>"

    def __format__(self, spec):
        return "<evil/>"

    def __radd__(self, other):
        return other + "<evil/>"


class SlyFloat(float):  # as numpy.float64 under NumPy 2: repr is not the number
    __repr__ = __str__ = lambda self: f"np.float64({float(self)!r})"

    def __format__(self, spec):
        return "np.float64"


@pytest.fixture(params=["mem", "file"])
def open_store(request, tmp_path):
    stores = iter(range(100))

    def opener(model):
        if request.param == "mem":
            return MemStore(model)
        return FileStore(tmp_path / f"s{next(stores)}", model)

    return opener


def test_values_are_written_by_their_base_type(family_model, open_store):
    """Subclass values and tokens commit the plain values' lines: get gives
    the plain values back, and the export is the document of the plain
    records, which a fresh store imports and exports to the same bytes."""
    sly = [
        ObjectRecord("Employee", Oid(SlyStr("e1")), {
            "name": SlyStr("a<b"), "age": SlyInt(7), "salary": SlyFloat(1.5),
            "spouse": Oid(SlyStr("p1")), "friends": [Oid(SlyStr("e1")), Oid("p1")]}),
        person("p1", name=SlyStr(""), age=SlyInt(-3)),
    ]
    plain = [
        ObjectRecord("Employee", Oid("e1"), {
            "name": "a<b", "age": 7, "salary": 1.5, "spouse": Oid("p1"),
            "friends": [Oid("e1"), Oid("p1")]}),
        person("p1", name="", age=-3),
    ]
    store = open_store(family_model)
    for record in sly:
        store.put(record)
    store.commit()
    for expected in plain:
        got = store.get(expected.oid)
        assert got.values == expected.values
        assert {k: type(v) for k, v in got.values.items()} == {k: type(v) for k, v in expected.values.items()}
    doc = export_store(store, family_model)
    store.close()
    assert doc == write_canonical(plain, family_model) == write_canonical(sly, family_model)
    fresh = open_store(family_model)
    assert import_document(doc, family_model, fresh) == 2
    assert export_store(fresh, family_model) == doc
    fresh.close()


# -- non-str OID tokens ------------------------------------------------------------


@pytest.mark.parametrize("token", [5, b"x", None, 1.5])
def test_non_str_oid_token_is_a_record_error(family_model, open_store, token):
    store = open_store(family_model)
    cases = [
        (person(token), f"invalid OID {token!r}"),
        (person("p1", spouse=Oid(token)), f"field 'spouse' holds invalid OID {token!r} (record p1)"),
        (person("p1", friends=[Oid("p1"), Oid(token)]),
         f"field 'friends' holds invalid OID {token!r} (record p1)"),
    ]
    for record, message in cases:
        with pytest.raises(RecordError) as raised:
            validate_record(record, family_model)
        assert str(raised.value) == message
        with pytest.raises(RecordError) as raised:
            store.put(record)
        assert str(raised.value) == message
        for write in (write_canonical, write_verbose):
            with pytest.raises(RecordError) as raised:
                write([person("p0"), record], family_model)
            assert str(raised.value) == message
    assert store.count() == 0
    store.close()
