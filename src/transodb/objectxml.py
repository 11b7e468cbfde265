"""Canonical object-XML reader/writer plus the verbose baseline emitter.

The canonical data document is bit-exact: one header line, one line per
object sorted by OID, no discretionary whitespace. Two documents holding the
same object set are therefore equal as byte strings. The verbose emitter
reproduces the legacy multi-file encoding (per-object storage details and
repeated type descriptors) and exists only as the size-comparison baseline.

record_line checks a record as it writes its line, by base type, in one
pass over a per-class plan; validate_record, format_record and put use it.

Because the form is canonical, a record line of a data document and a line
of a FileStore log are the same bytes, and the expat decoder reads both:
read_canonical over a whole document, decode_record_line over one line.
It is lenient: it accepts any well-formed spelling of a valid record
(character references, ``<f></f>``, ``1e0``, reordered attributes).

Import and the FileStore log rebuild are strict instead: they take only
the bytes CanonicalWriter writes. LineAcceptor checks a record line
against one regex per class of its ancestry, each compiled from that
class's own fields on first use, plus the checks a regex cannot make
(int64 range, float repr, UTF-8 and XML character ranges);
accept_document walks a whole document with it and also checks the
declaration, the root tag (the model's own name and schema hash, byte for
byte), OID order and the footer. Expat decodes a rejected line only to
explain the rejection. A store's get and scan build an ObjectRecord
without it: LineAcceptor.record reads an accepted line by its grammar.

Writers and readers share only their model's caches, whose entries are the
same whoever fills them, so different documents may be processed
concurrently; a single read_canonical call is single-threaded.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator
from xml.parsers import expat

from .errors import EXPAT_FAILURES, TransodbError, describe_expat_failure
from .model import (
    ClassModel,
    FieldDef,
    LayoutIndex,
    ListOf,
    Ref,
    Scalar,
    ScalarKind,
    _kind_spec,  # the verbose baseline reuses the dump kind grammar
    fnv1a64,  # re-exported: the hash behind schema_hash
)

OID_RE = re.compile(r"[A-Za-z0-9_.\-]+\Z")
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_INT_TEXT_RE = re.compile(r"-?(0|[1-9][0-9]*)\Z")


class RecordError(TransodbError):
    """A record failed validation against the model."""


class DocumentError(TransodbError):
    """A data document could not be decoded; carries a 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        self.detail = message
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class HeaderMismatchError(DocumentError):
    """The document's schema hash does not match the supplied model."""


@dataclass(frozen=True)
class Oid:
    """Object identity token, compared byte-wise; the regex keeps it ASCII."""

    token: str


# A field value: str, bool, int, float, Oid, or a homogeneous list of those.
Value = str | bool | int | float | Oid | list


@dataclass
class ObjectRecord:
    """One serialized object; references stay symbolic (OID tokens)."""

    class_name: str
    oid: Oid
    values: dict[str, Value] = field(default_factory=dict)


@dataclass(frozen=True)
class DocumentHeader:
    schema_name: str
    schema_hash: str


def schema_hash(model: ClassModel) -> str:
    """16 lowercase hex digits binding a data document to its schema."""
    return model.schema_hash


# Newlines are escaped so one record is always one physical line (the store
# log is framed on that); carriage returns because XML readers normalize
# them away; tabs additionally in attributes, where they normalize to spaces.
_TEXT_ESCAPES = {ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;",
                 ord("\r"): "&#13;", ord("\n"): "&#10;"}
_ATTR_ESCAPES = dict(_TEXT_ESCAPES)
_ATTR_ESCAPES.update({ord('"'): "&quot;", ord("\t"): "&#9;"})

# Code points XML 1.0 cannot carry at all (even as character references).
_XML_UNREPRESENTABLE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

# what _TEXT_ESCAPES changes or XML cannot carry: text without it is written as it is
_TEXT_SPECIAL = re.compile(_XML_UNREPRESENTABLE.pattern[:-1] + "&<>\r\n]")


def escape_attr(text: str) -> str:
    return text.translate(_ATTR_ESCAPES)


def validate_record(record: ObjectRecord, model: ClassModel, layouts: LayoutIndex | None = None) -> None:
    """Raise RecordError unless the record conforms to its class layout."""
    record_line(record, layouts or model.layouts)


def record_line(record: ObjectRecord, layouts: LayoutIndex) -> tuple[str, str]:
    """The OID token and canonical line (with its newline) of a record, checked
    as one pass over its class's write plan writes it. RecordError names the
    first fault: OID, types of class name and values, class, unknown fields
    in values order, layout order."""
    try:
        token = _ref_text(record.oid)
    except _Reject:
        raise RecordError(f"invalid OID {getattr(record.oid, 'token', record.oid)!r}") from None
    class_name, values = record.class_name, record.values
    try:
        plan, names = layouts.plans.get(class_name), values.keys()
    except (TypeError, AttributeError):  # an unhashable class name, values not a dict
        raise RecordError(f"record {token} needs a hashable class name and a dict of values") from None
    if plan is None:
        if class_name not in layouts.model.classes:
            raise RecordError(f"unknown class {class_name!r} (record {token})")
        plan = layouts.plans[class_name] = _write_plan(layouts, class_name)
    head, declared, fields = plan
    if not names <= declared:
        name = next(name for name in values if name not in declared)
        raise RecordError(f"unknown field {name!r} on {class_name} (record {token})")
    parts = [head, token, '">']
    append = parts.append
    try:
        for name, required, is_list, leaf, start, end, empty in fields:
            if name not in values:
                if required:
                    raise RecordError(f"missing required field {name!r} (record {token})")
                continue
            value = values[name]
            if not is_list:
                value = (value,)
            elif not isinstance(value, list):
                raise _Reject("expects a list")
            for item in value:
                text = leaf(item)
                append(f"{start}{text}{end}" if text else empty)
    except _Reject as fault:
        raise RecordError(f"field {name!r} {fault} (record {token})") from None
    append("</o>\n")
    return token, "".join(parts)


class _Reject(Exception):
    """What is wrong with a field's value; record_line names the field."""


def _write_plan(layouts: LayoutIndex, class_name: str) -> tuple:
    """The start tag up to the OID, the declared field names, and per layout
    field: name, required, is list, leaf function, tags, empty leaf."""
    fields = []
    for fdef in layouts.layout(class_name):
        kind, name = _element_kind(fdef), fdef.name
        tags = (f'<{name} r="', '"/>') if isinstance(kind, Ref) else (f"<{name}>", f"</{name}>")
        fields.append((name, not fdef.optional, isinstance(fdef.kind, ListOf),
                       _LEAF_TEXT.get(kind, _ref_text), *tags, f"<{name}/>"))
    head = f'<o c="{layouts.model.classes[class_name].name}" id="'
    return head, frozenset(f[0] for f in fields), tuple(fields)


def _plain(value, base: type, fault: str):
    """value as a plain base instance (a bool is no int), so no subclass method runs."""
    if not issubclass(type(value), base) or type(value) is bool:
        raise _Reject(fault)
    return base.__getnewargs__(value)[0]


# A leaf function checks one value and returns its escaped leaf text.
def _str_text(value) -> str:
    if type(value) is not str:
        value = _plain(value, str, "expects text")
    if _TEXT_SPECIAL.search(value) is None:
        return value
    if _XML_UNREPRESENTABLE.search(value):
        raise _Reject("holds characters XML cannot carry")
    return value.translate(_TEXT_ESCAPES)


def _bool_text(value) -> str:
    if value is True or value is False:
        return "true" if value else "false"
    raise _Reject("expects a boolean")


def _int_text(value) -> str:
    if type(value) is not int:
        value = _plain(value, int, "expects an integer")
    if not INT64_MIN <= value <= INT64_MAX:
        raise _Reject("out of 64-bit range")
    return repr(value)


def _float_text(value) -> str:
    if type(value) is not float:
        value = _plain(value, float, "expects a float")
    if not math.isfinite(value):
        raise _Reject("is not finite")
    return repr(value)  # the shortest decimal that parses back to the same binary64


def _ref_text(value) -> str:
    if not isinstance(value, Oid):
        raise _Reject("expects a reference")
    token = value.token
    if type(token) is not str:
        token = _plain(token, str, f"holds invalid OID {token!r}")
    if OID_RE.match(token):
        return token
    raise _Reject(f"holds invalid OID {value.token!r}")


_LEAF_TEXT = {
    Scalar(ScalarKind.STR): _str_text, Scalar(ScalarKind.BOOL): _bool_text,
    Scalar(ScalarKind.INT64): _int_text, Scalar(ScalarKind.FLOAT64): _float_text,
}


def iter_refs(record: ObjectRecord, layouts: LayoutIndex) -> Iterator[tuple[str, str, Oid]]:
    """Yield (field name, declared target class, oid) for every reference."""
    for fdef in layouts.layout(record.class_name):
        if fdef.name not in record.values:
            continue
        kind = fdef.kind
        if isinstance(kind, Ref):
            yield fdef.name, kind.target, record.values[fdef.name]
        elif isinstance(kind, ListOf) and isinstance(kind.element, Ref):
            for item in record.values[fdef.name]:
                yield fdef.name, kind.element.target, item


# A canonical line escapes <, > and & in text, and " too in attribute
# values, so '"/>' closes only a reference leaf and a line starts with its
# record's start tag. The one spelling of the start tag (class in group 1,
# OID token in group 2) and of a reference leaf's tail, shared by line_oid,
# line_refs and LineAcceptor. Only line_refs captures the target token: a
# group in the acceptor's segments made a short one match about half as fast.
_TOKEN = rb"[\w.-]+"  # OID_RE: in a bytes pattern \w is [A-Za-z0-9_]
_LINE_HEAD_RE = re.compile(rb'<o c="([A-Za-z_]\w*)" id="(' + _TOKEN + rb')">')
_REF_LEAF = rb' r="' + _TOKEN + rb'"/>'
_LINE_REF_RE = re.compile(_REF_LEAF.replace(_TOKEN, b"(" + _TOKEN + b")"))


def line_oid(line: bytes) -> str | None:
    """The OID token of a canonical record line, read from its start tag;
    None if the line does not start with one."""
    head = _LINE_HEAD_RE.match(line)
    return None if head is None else head[2].decode("ascii")


def line_refs(line: bytes) -> list[str]:
    """The reference target tokens of a canonical record line, read from
    its bytes: the targets of iter_refs over its record, in order."""
    return [token.decode("ascii") for token in _LINE_REF_RE.findall(line)]


# Leaf content as format_record writes it, in the acceptor's segments,
# spelled short: compiling a pattern costs about its length, once per class
# in each import and rebuild. Text is _str_text's output: no markup, no
# raw newline or carriage return and no control character XML cannot carry
# (a tab stays raw); an '&' must start one of the entities _TEXT_ESCAPES
# writes, which _AMP_FAULT, one pattern for every class, checks.
_SCALAR_TEXT = {
    ScalarKind.STR: b"[^\x00-\x08\n-\x1f<>]+",  # control bytes spelled raw: shorter to parse
    ScalarKind.BOOL: rb"(?:true|false)",
    ScalarKind.INT64: rb"(?:0|-?[1-9]\d*)",  # no -0; the range is checked after
    # the repr test after the match decides; the shape only keeps out inf
    # and nan, which pass it
    ScalarKind.FLOAT64: rb"-?\d[\d.e+-]*",
}
_AMP_FAULT = re.compile(rb"&(?!(?:amp|lt|gt|#13|#10);)")
_ENTITIES = {entity: chr(code) for code, entity in _TEXT_ESCAPES.items()}
_ENTITY_RE = re.compile("|".join(_ENTITIES))
# A leaf of an accepted line, where every '<' opens a tag and the start tag
# matches no leaf: its name, then a scalar's text or a reference's token.
_LEAF_RE = re.compile(r"<(\w+)(?:>([^<]*)</\w+>|" + _LINE_REF_RE.pattern.decode() + "|/>)", re.ASCII)
# a scalar leaf's text to its value, _TEXT_ESCAPES undone on text (whose only
# '&'s start its entities); a reference leaf's token makes an Oid
_CONVERTERS = {
    Scalar(ScalarKind.STR): lambda t: _ENTITY_RE.sub(lambda m: _ENTITIES[m[0]], t) if "&" in t else t,
    Scalar(ScalarKind.BOOL): "true".__eq__, Scalar(ScalarKind.INT64): int,
    Scalar(ScalarKind.FLOAT64): float,
}


class LineAcceptor:
    """Accepts exactly the canonical record lines of a model's valid
    records: a line is accepted iff it decodes and equals format_record of
    its decode plus a newline. A class is compiled when first met: one
    segment pattern of its own fields (``?`` for optional and ``*`` for list
    fields, exact boolean, integer and reference leaves), which descendants
    share, and up to two small patterns over its layout for the int64 range
    and ``repr(float(t)) == t``. A line must match its ancestry's segments,
    chained root first after the start tag, then end in ``</o>`` and the
    newline. Greedy chaining loses no match: field names are unique in a
    layout and each leaf starts ``<name`` then ``>``, ``/>`` or `` r=``, so
    at most one leaf starts at a position. A line with non-ASCII bytes must
    also decode as strict UTF-8 into characters XML can carry."""

    def __init__(self, layouts: LayoutIndex):
        self._layouts = layouts
        self._segments: dict[str, re.Pattern | None] = {}  # None: no own fields
        # class name -> (class name, segments, long int leaves, float leaves, has refs)
        self._classes: dict[bytes, tuple | None] = {}
        # class name -> decode plan: field name -> (is list, converter); built by record
        self._plans: dict[str, dict] = {}

    def accept(self, line: bytes) -> tuple[str, str, list[str]] | None:
        """(class name, OID token, reference target tokens in iter_refs
        order) of a canonical record line, or None if it is not one."""
        head = _LINE_HEAD_RE.match(line)
        if head is None:
            return None
        try:
            compiled = self._classes[head[1]]
        except KeyError:
            compiled = self._classes[head[1]] = self._compile(head[1].decode("ascii"))
        if compiled is None:
            return None
        class_name, segments, long_ints, floats, has_refs = compiled
        pos = head.end()
        for segment in segments:
            match = segment.match(line, pos)
            if match is None:
                return None
            pos = match.end()
        if line[pos:] != b"</o>\n" or b"&" in line and _AMP_FAULT.search(line):
            return None
        if long_ints and any(not INT64_MIN <= int(t) <= INT64_MAX for t in long_ints.findall(line)):
            return None
        if floats:
            try:
                if any(repr(float(t)).encode("ascii") != t for t in floats.findall(line)):
                    return None
            except ValueError:  # the float shape lets through "1..2" and the like
                return None
        if not line.isascii():
            # only string text can hold these bytes
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError:
                return None
            if _XML_UNREPRESENTABLE.search(text):
                return None
        return class_name, head[2].decode("ascii"), line_refs(line) if has_refs else []

    def record(self, line: bytes) -> ObjectRecord | None:
        """decode_record_line's record of a line accept takes, or None: one
        findall over the leaves, each converted by its class's plan."""
        accepted = self.accept(line)
        if accepted is None:
            return None
        class_name, token, _ = accepted
        if (plan := self._plans.get(class_name)) is None:
            plan = self._plans[class_name] = {
                f.name: (isinstance(f.kind, ListOf), _CONVERTERS.get(_element_kind(f), Oid))
                for f in self._layouts.layout(class_name)
            }
        values = {}
        for name, text, ref in _LEAF_RE.findall(line.decode("utf-8")):
            is_list, convert = plan[name]
            if is_list:
                values.setdefault(name, []).append(convert(text or ref))
            else:
                values[name] = convert(text or ref)
        return ObjectRecord(class_name, Oid(token), values)

    def _compile(self, class_name: str) -> tuple | None:
        if class_name not in self._layouts.model.classes:
            return None
        layout = self._layouts.layout(class_name)
        return (
            class_name,
            tuple(filter(None, map(self._segment, self._layouts.chain(class_name)))),
            _leaves_of(layout, ScalarKind.INT64, rb"-?\d{19,}"),
            _leaves_of(layout, ScalarKind.FLOAT64, rb"[^<]*"),
            any(isinstance(_element_kind(f), Ref) for f in layout),
        )

    def _segment(self, class_name: str) -> re.Pattern | None:
        if class_name not in self._segments:
            parts = []
            for fdef in self._layouts.model.classes[class_name].own_fields:
                leaf = _leaf_pattern(re.escape(fdef.name.encode()), _element_kind(fdef))
                if fdef.optional:  # every list field is
                    leaf = b"(?:" + leaf + (b")*" if isinstance(fdef.kind, ListOf) else b")?")
                parts.append(leaf)
            self._segments[class_name] = re.compile(b"".join(parts)) if parts else None
        return self._segments[class_name]


def _element_kind(fdef: FieldDef) -> Scalar | Ref:
    return fdef.kind.element if isinstance(fdef.kind, ListOf) else fdef.kind


def _leaf_pattern(name: bytes, kind: Scalar | Ref) -> bytes:
    if isinstance(kind, Ref):
        return b"<" + name + _REF_LEAF
    content = b">" + _SCALAR_TEXT[kind.kind] + b"</" + name + b">"
    if kind.kind is ScalarKind.STR:  # <f/> for the empty string
        return b"<" + name + b"(?:/>|" + content + b")"
    return b"<" + name + content


def _leaves_of(layout: list[FieldDef], kind: ScalarKind, text: bytes) -> re.Pattern | None:
    """Captures the text of each leaf of the given kind that matches text,
    in a line the segments accepted: text holds no '<', so there
    '<f>' is always a tag."""
    names = [re.escape(f.name.encode()) for f in layout if _element_kind(f) == Scalar(kind)]
    if not names:
        return None
    return re.compile(b"<(?:" + b"|".join(names) + b")>(" + text + b")<")


def format_record(record: ObjectRecord, layouts: LayoutIndex) -> str:
    """Render one valid record as its canonical single-line element (no
    newline); RecordError, as validate_record, for an invalid one."""
    return record_line(record, layouts)[1][:-1]


_DECLARATION = b'<?xml version="1.0" encoding="UTF-8"?>\n'
_FOOTER = b"</objects>\n"


def _root_line(model: ClassModel) -> bytes:
    """The root start tag line of a canonical document for model."""
    if _XML_UNREPRESENTABLE.search(model.name):
        raise RecordError("model name holds characters XML cannot carry")
    return f'<objects schema="{escape_attr(model.name)}" schemaHash="{model.schema_hash}">\n'.encode()


class CanonicalWriter:
    """Streaming canonical emitter; callers feed records in ascending OID
    order (enforced, which also rejects duplicates)."""

    def __init__(self, model: ClassModel, out: BinaryIO):
        self._model = model
        self._out = out
        self._last_token = ""

    def begin(self) -> None:
        self._out.write(_DECLARATION)
        self._out.write(_root_line(self._model))

    def record(self, record: ObjectRecord) -> None:
        token, line = record_line(record, self._model.layouts)
        # ASCII tokens: str order is byte-wise order
        if token <= self._last_token:
            if token == self._last_token:
                raise RecordError(f"duplicate OID {token!r}")
            raise RecordError(f"records out of OID order at {token!r}")
        self._last_token = token
        self._out.write(line.encode("utf-8"))

    def end(self) -> None:
        self._out.write(_FOOTER)


def write_canonical(records: Iterable[ObjectRecord], model: ClassModel) -> bytes:
    """Serialize a record set to the canonical document.

    A pure function of (record set, model): input order never shows in the
    output because records are emitted in byte-wise OID order.
    """
    ordered = sorted(records, key=lambda r: str.encode(r.oid.token, "utf-8", "surrogatepass")
                     if isinstance(r.oid, Oid) and isinstance(r.oid.token, str) else b"")
    buf = io.BytesIO()
    writer = CanonicalWriter(model, buf)
    writer.begin()
    for record in ordered:
        writer.record(record)
    writer.end()
    return buf.getvalue()


class _Decoder:
    """The one canonical decoder: a single expat parser over bytes holding
    <o> records, each validated and handed to sink as its element closes.

    A document nests the records under an <objects> root whose start tag
    goes to on_root; a FileStore log line is a bare <o> element, decoded
    with no on_root. Every rejection is a DocumentError with a position.
    """

    def __init__(self, model: ClassModel, sink: Callable[[ObjectRecord], None],
                 on_root: Callable[[dict[str, str]], None] | None = None):
        self._model = model
        self._sink = sink
        self._on_root = on_root
        # nesting of the open element relative to <o>: 0 is the record
        # itself, 1 one of its fields, -1 the <objects> root
        self._level = -1 if on_root is None else -2
        self._record: ObjectRecord | None = None
        self._fdef: FieldDef | None = None
        self._text: list[str] | None = None
        self._is_ref_leaf = False
        parser = self._parser = expat.ParserCreate()
        parser.buffer_text = True
        parser.StartElementHandler = self._start
        parser.EndElementHandler = self._end
        parser.CharacterDataHandler = self._chars

    def decode(self, data: bytes) -> None:
        try:
            self._parser.Parse(data, True)
        except EXPAT_FAILURES as exc:
            raise DocumentError(*describe_expat_failure(exc, data)) from None

    def pos(self) -> tuple[int, int]:
        return self._parser.CurrentLineNumber, self._parser.CurrentColumnNumber + 1

    def fail(self, message: str):
        raise DocumentError(message, *self.pos())

    def _start(self, name: str, attrs: dict[str, str]) -> None:
        self._level += 1
        level = self._level
        if level == 1:
            self._open_field(name, attrs)
        elif level == 0:
            if name != "o":
                self.fail(f"expected <o>, found <{name}>")
            self._open_record(attrs)
        elif level < 0:
            if name != "objects":
                self.fail(f"root element must be <objects>, found <{name}>")
            self._on_root(attrs)
        else:
            self.fail(f"unexpected nested element <{name}>")

    def _end(self, name: str) -> None:
        level = self._level
        if level == 1:
            self._close_field()
        elif level == 0:
            self._close_record()
        self._level = level - 1

    def _chars(self, data: str) -> None:
        if self._fdef is not None:
            if self._is_ref_leaf:
                self.fail(f"unexpected text in reference field {self._fdef.name!r}")
            self._text.append(data)
        elif data.strip():
            self.fail("unexpected text content")

    def _open_record(self, attrs: dict[str, str]) -> None:
        unknown = set(attrs) - {"c", "id"}
        if unknown:
            self.fail(f"unexpected attribute {sorted(unknown)[0]!r} on <o>")
        if "c" not in attrs or "id" not in attrs:
            self.fail("<o> requires c and id attributes")
        class_name, token = attrs["c"], attrs["id"]
        if not OID_RE.match(token):
            self.fail(f"invalid OID {token!r}")
        if class_name not in self._model.classes:
            self.fail(f"unknown class {class_name!r}")
        self._record = ObjectRecord(class_name, Oid(token))

    def _open_field(self, name: str, attrs: dict[str, str]) -> None:
        fdef = self._model.layouts.field(self._record.class_name, name)
        if fdef is None:
            self.fail(f"unknown field {name!r} on {self._record.class_name}")
        self._fdef = fdef
        kind = _element_kind(fdef)
        self._is_ref_leaf = isinstance(kind, Ref)
        if self._is_ref_leaf:
            if set(attrs) != {"r"}:
                self.fail(f"reference field {name!r} requires exactly the r attribute")
            if not OID_RE.match(attrs["r"]):
                self.fail(f"invalid OID {attrs['r']!r} in field {name!r}")
            self._store(name, Oid(attrs["r"]))
            self._text = None
        else:
            if attrs:
                self.fail(f"unexpected attribute on scalar field {name!r}")
            self._text = []

    def _close_field(self) -> None:
        fdef = self._fdef
        if not self._is_ref_leaf:
            raw = "".join(self._text)
            kind = _element_kind(fdef)
            self._store(fdef.name, self._decode_scalar(kind.kind, raw, fdef.name))
        self._fdef = None
        self._text = None

    def _close_record(self) -> None:
        record = self._record
        try:
            validate_record(record, self._model)
        except RecordError as exc:
            self.fail(str(exc))
        self._record = None
        self._sink(record)

    def _store(self, name: str, value) -> None:
        record = self._record
        if isinstance(self._fdef.kind, ListOf):
            record.values.setdefault(name, []).append(value)
        elif name in record.values:
            self.fail(f"duplicate field {name!r}")
        else:
            record.values[name] = value

    def _decode_scalar(self, sk: ScalarKind, raw: str, name: str):
        if sk is ScalarKind.STR:
            return raw
        if sk is ScalarKind.BOOL:
            if raw == "true":
                return True
            if raw == "false":
                return False
            self.fail(f"field {name!r}: {raw!r} is not a boolean")
        if sk is ScalarKind.INT64:
            if not _INT_TEXT_RE.match(raw):
                self.fail(f"field {name!r}: {raw!r} is not a canonical integer")
            value = int(raw)
            if not INT64_MIN <= value <= INT64_MAX:
                self.fail(f"field {name!r}: integer overflows 64 bits")
            return value
        try:
            value = float(raw)
        except ValueError:
            self.fail(f"field {name!r}: {raw!r} is not a float")
        if not math.isfinite(value):
            self.fail(f"field {name!r}: non-finite float")
        return value


def read_canonical(
    data: bytes,
    model: ClassModel,
    sink: Callable[[ObjectRecord], None],
) -> DocumentHeader:
    """Stream-decode a canonical document, invoking sink once per object.

    At most one record is materialized at a time; the schema hash in the
    header is verified against the model before any record is decoded.
    Every rejection carries the offending line and column.
    """
    header: list[DocumentHeader] = []

    def on_root(attrs: dict[str, str]) -> None:
        unknown = set(attrs) - {"schema", "schemaHash"}
        if unknown:
            decoder.fail(f"unexpected attribute {sorted(unknown)[0]!r} on <objects>")
        if "schema" not in attrs or "schemaHash" not in attrs:
            decoder.fail("<objects> requires schema and schemaHash attributes")
        if attrs["schemaHash"] != model.schema_hash:
            raise HeaderMismatchError(
                f"document schemaHash {attrs['schemaHash']!r} does not match "
                f"model hash {model.schema_hash!r}",
                *decoder.pos(),
            )
        header.append(DocumentHeader(attrs["schema"], attrs["schemaHash"]))

    decoder = _Decoder(model, sink, on_root)
    decoder.decode(data)
    return header[0]


def decode_record_line(data: bytes, model: ClassModel) -> ObjectRecord:
    """Decode the UTF-8 bytes of one canonical ``<o .../>`` line."""
    records: list[ObjectRecord] = []
    _Decoder(model, records.append).decode(data)
    return records[0]


def accept_document(data: bytes, model: ClassModel) -> Iterator[tuple[str, bytes, list[str]]]:
    """Walk a document line by line and yield (OID token, line, reference
    target tokens) for each record line, if the document is byte for byte
    what CanonicalWriter writes: the exact XML declaration, the root start
    tag with the model's schema hash, record lines LineAcceptor accepts with
    OIDs strictly rising byte-wise, and the exact footer with nothing after
    it. Otherwise a DocumentError names the first offending line, once the
    lines before it have been yielded."""
    lines = io.BytesIO(data)
    if lines.readline() != _DECLARATION:
        raise DocumentError(f"not canonical: line 1 must be {_DECLARATION.decode()[:-1]}", 1, 1)
    root, expected = lines.readline(), _root_line(model)
    if root != expected:
        # the lenient reader explains a wrong hash or a malformed tag
        raise _explained(
            lambda: read_canonical(_DECLARATION + root + _FOOTER, model, lambda record: None),
            2, f"line 2 must be {expected.decode()[:-1]}",
        )
    acceptor = model.layouts.acceptor
    lineno = 2
    last = ""
    for line in lines:
        lineno += 1
        accepted = acceptor.accept(line)
        if accepted is None:
            if line != _FOOTER:
                raise _explained(
                    lambda: decode_record_line(line, model),
                    lineno, "a valid record, but not its canonical line",
                )
            if lines.read(1):
                raise DocumentError("not canonical: bytes after </objects>", lineno + 1, 1)
            return
        _, token, refs = accepted
        # ASCII tokens: str order is byte-wise order
        if token <= last:
            problem = "duplicate OID" if token == last else "records out of OID order at"
            raise DocumentError(f"{problem} {token!r}", lineno, 1)
        last = token
        yield token, line, refs
    raise DocumentError("document ends before </objects>", lineno + 1, 1)


def _explained(decode: Callable[[], object], lineno: int, why: str) -> DocumentError:
    """Why line lineno, rejected by a byte comparison or LineAcceptor, is not
    canonical: the error decode() raises, re-based to lineno, or, if it
    decodes, "not canonical: " and why."""
    try:
        decode()
    except DocumentError as exc:
        return type(exc)(exc.detail, lineno, exc.column)
    return DocumentError(f"not canonical: {why}", lineno, 1)


_SCHEMA_DTD = """\
<!ELEMENT ObjectSchema (Class*)>
<!ATTLIST ObjectSchema name CDATA #REQUIRED>
<!ELEMENT Class (FieldDescriptor*)>
<!ATTLIST Class name CDATA #REQUIRED extends CDATA #IMPLIED>
<!ELEMENT FieldDescriptor EMPTY>
<!ATTLIST FieldDescriptor name CDATA #REQUIRED kind CDATA #REQUIRED optional (true|false) #REQUIRED>
"""

_DATA_DTD = """\
<!ELEMENT ObjectData (Object*)>
<!ATTLIST ObjectData schema CDATA #REQUIRED>
<!ELEMENT Object (Database, Container, Page, Slot, TypeDescriptor, ObjectId, Fields)>
<!ELEMENT Database (#PCDATA)>
<!ELEMENT Container (#PCDATA)>
<!ELEMENT Page (#PCDATA)>
<!ELEMENT Slot (#PCDATA)>
<!ELEMENT TypeDescriptor (ClassName, SuperClass?, FieldDescriptor*)>
<!ELEMENT ClassName (#PCDATA)>
<!ELEMENT SuperClass (#PCDATA)>
<!ELEMENT FieldDescriptor EMPTY>
<!ATTLIST FieldDescriptor name CDATA #REQUIRED kind CDATA #REQUIRED optional (true|false) #REQUIRED>
<!ELEMENT ObjectId (#PCDATA)>
<!ELEMENT Fields (Field*)>
<!ELEMENT Field (#PCDATA|Item)*>
<!ATTLIST Field name CDATA #REQUIRED type CDATA #REQUIRED ref CDATA #IMPLIED>
<!ELEMENT Item (#PCDATA)>
<!ATTLIST Item ref CDATA #IMPLIED>
"""


def write_verbose(records: Iterable[ObjectRecord], model: ClassModel) -> dict[str, bytes]:
    """Emit the legacy multi-file baseline: two DTDs, a schema restatement,
    and a data file that repeats synthetic storage coordinates and the full
    type descriptor for every object. Used only for size comparison."""
    # sorted computes every key before it compares any: a bad OID is a RecordError
    ordered = sorted(records, key=lambda r: validate_record(r, model) or r.oid.token)
    for before, record in zip(ordered, ordered[1:]):
        if before.oid.token == record.oid.token:
            raise RecordError(f"duplicate OID {record.oid.token!r}")

    schema_lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<!DOCTYPE ObjectSchema SYSTEM "schema.dtd">',
        f'<ObjectSchema name="{escape_attr(model.name)}">',
    ]
    for cname in sorted(model.classes):
        cdef = model.classes[cname]
        extends = f' extends="{cdef.superclass}"' if cdef.superclass else ""
        schema_lines.append(f'  <Class name="{cname}"{extends}>')
        for fdef in cdef.own_fields:
            schema_lines.append("    " + _descriptor_line(fdef))
        schema_lines.append("  </Class>")
    schema_lines.append("</ObjectSchema>")

    data_lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<!DOCTYPE ObjectData SYSTEM "data.dtd">',
        f'<ObjectData schema="{escape_attr(model.name)}">',
    ]
    for index, record in enumerate(ordered):
        layout = model.layouts.layout(record.class_name)
        cdef = model.classes[record.class_name]
        data_lines.append("  <Object>")
        data_lines.append("    <Database>DB0</Database>")
        data_lines.append(f"    <Container>{index // 100}</Container>")
        data_lines.append(f"    <Page>{index // 10}</Page>")
        data_lines.append(f"    <Slot>{index}</Slot>")
        data_lines.append("    <TypeDescriptor>")
        data_lines.append(f"      <ClassName>{record.class_name}</ClassName>")
        if cdef.superclass:
            data_lines.append(f"      <SuperClass>{cdef.superclass}</SuperClass>")
        for fdef in layout:
            data_lines.append("      " + _descriptor_line(fdef))
        data_lines.append("    </TypeDescriptor>")
        data_lines.append(f"    <ObjectId>{record.oid.token}</ObjectId>")
        data_lines.append("    <Fields>")
        for fdef in layout:
            if fdef.name not in record.values:
                continue
            value = record.values[fdef.name]
            spec = _kind_spec(fdef.kind)
            if isinstance(fdef.kind, ListOf):
                data_lines.append(f'      <Field name="{fdef.name}" type="{spec}">')
                for item in value:
                    data_lines.append("        " + _verbose_item(fdef.kind.element, item))
                data_lines.append("      </Field>")
            elif isinstance(fdef.kind, Ref):
                data_lines.append(
                    f'      <Field name="{fdef.name}" type="{spec}" ref="{_ref_text(value)}"/>'
                )
            else:
                text = _LEAF_TEXT[fdef.kind](value)
                data_lines.append(f'      <Field name="{fdef.name}" type="{spec}">{text}</Field>')
        data_lines.append("    </Fields>")
        data_lines.append("  </Object>")
    data_lines.append("</ObjectData>")

    return {
        "schema.dtd": _SCHEMA_DTD.encode("utf-8"),
        "schema.xml": ("\n".join(schema_lines) + "\n").encode("utf-8"),
        "data.dtd": _DATA_DTD.encode("utf-8"),
        "data.xml": ("\n".join(data_lines) + "\n").encode("utf-8"),
    }


def _verbose_item(kind: Scalar | Ref, item) -> str:
    if isinstance(kind, Ref):
        return f'<Item ref="{_ref_text(item)}"/>'
    return f"<Item>{_LEAF_TEXT[kind](item)}</Item>"


def _descriptor_line(fdef: FieldDef) -> str:
    optional = "true" if fdef.optional else "false"
    return f'<FieldDescriptor name="{fdef.name}" kind="{_kind_spec(fdef.kind)}" optional="{optional}"/>'


def parse_record_line(line: str, model: ClassModel, layouts: LayoutIndex | None = None) -> ObjectRecord:
    """Decode one canonical ``<o .../>`` line, as a FileStore log holds it; layouts is not read."""
    return decode_record_line(line.encode("utf-8"), model)
