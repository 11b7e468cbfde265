"""XML Schema frontend: a streaming, event-driven parser for the accepted
XSD subset, and the matching deterministic emitter.

The subset covers exactly what the class model can express: top-level
complex types whose content is a sequence of typed elements, single
inheritance through complexContent/extension, four scalar types, and
references expressed as elements typed by another declared complex type.
Everything else is rejected with a located diagnostic. Parsing and
emission are pure transformations and safe to run concurrently on
different documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from xml.parsers import expat

from .errors import EXPAT_FAILURES, describe_expat_failure
from .model import (
    ClassDef,
    ClassModel,
    FieldDef,
    ListOf,
    Ref,
    Scalar,
    ScalarKind,
    dump_model,
    validate_model,
)

XSD_NAMESPACE = "http://www.w3.org/2001/XMLSchema"

# XSD simple type (local name) -> scalar kind
SCALAR_TYPES = {
    "string": ScalarKind.STR,
    "boolean": ScalarKind.BOOL,
    "int": ScalarKind.INT64,
    "integer": ScalarKind.INT64,
    "long": ScalarKind.INT64,
    "double": ScalarKind.FLOAT64,
}

# Scalar kind -> emitted XSD type (local name)
EMITTED_TYPES = {
    ScalarKind.STR: "string",
    ScalarKind.BOOL: "boolean",
    ScalarKind.INT64: "long",
    ScalarKind.FLOAT64: "double",
}


@dataclass(frozen=True)
class SchemaDiagnostic:
    severity: str  # "error" or "warning"
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: line {self.line}, column {self.column}: {self.message}"


@dataclass
class _FieldDecl:
    name: str
    kind_or_target: ScalarKind | str  # resolved scalar, or raw user type name
    optional: bool
    repeated: bool
    line: int
    column: int


@dataclass
class _ClassDecl:
    name: str
    line: int
    column: int
    base: str | None = None
    base_line: int = 0
    base_column: int = 0
    fields: list[_FieldDecl] = field(default_factory=list)


_ALLOWED_ATTRS = {
    "schema": set(),
    "complexType": {"name"},
    "sequence": set(),
    "complexContent": set(),
    "extension": {"base"},
    "element": {"name", "type", "minOccurs", "maxOccurs"},
}

# element -> element transitions accepted by the subset grammar
_ALLOWED_CHILDREN = {
    "": {"schema"},
    "schema": {"complexType", "element"},
    "complexType": {"sequence", "complexContent"},
    "complexContent": {"extension"},
    "extension": {"sequence"},
    "sequence": {"element"},
    "element": set(),
}

# elements that take a single child -> the error for a second one
_SINGLE_CHILD = {
    "complexType": "complexType allows a single content block",
    "complexContent": "complexContent allows a single extension",
    "extension": "extension allows a single sequence",
}


class _SubsetParser:
    """Single-pass event consumer; declarations are resolved afterwards."""

    def __init__(self):
        self.diagnostics: list[SchemaDiagnostic] = []
        self.classes: dict[str, _ClassDecl] = {}
        self.xsd_prefixes: set[str] = set()
        self.default_is_xsd = False
        # a frame per open subset element, under one for the document root:
        # [XSD local name, children entered]
        self._stack: list[list] = [["", 0]]
        self._skip_depth = 0
        self._current: _ClassDecl | None = None
        self._parser = expat.ParserCreate()
        self._parser.buffer_text = True
        self._parser.StartElementHandler = self._start
        self._parser.EndElementHandler = self._end
        self._parser.CharacterDataHandler = self._chars

    def run(self, data: bytes) -> None:
        try:
            self._parser.Parse(data, True)
        except EXPAT_FAILURES as exc:
            self._error(*describe_expat_failure(exc, data))

    # -- diagnostics ----------------------------------------------------

    def _pos(self) -> tuple[int, int]:
        return self._parser.CurrentLineNumber, self._parser.CurrentColumnNumber + 1

    def _error(self, message: str, line: int | None = None, column: int | None = None) -> None:
        if line is None:
            line, column = self._pos()
        self.diagnostics.append(SchemaDiagnostic("error", line, column, message))

    def _warning(self, message: str) -> None:
        line, column = self._pos()
        self.diagnostics.append(SchemaDiagnostic("warning", line, column, message))

    # -- namespace plumbing ---------------------------------------------

    def _register_root_namespaces(self, attrs: dict[str, str]) -> None:
        for key, value in attrs.items():
            if key == "xmlns" and value == XSD_NAMESPACE:
                self.default_is_xsd = True
            elif key.startswith("xmlns:") and value == XSD_NAMESPACE:
                self.xsd_prefixes.add(key[6:])

    def _xsd_local(self, name: str) -> str | None:
        """Local name if the element is in the XSD namespace, else None."""
        if ":" in name:
            prefix, local = name.split(":", 1)
            return local if prefix in self.xsd_prefixes else None
        return name if self.default_is_xsd else None

    # -- event handlers --------------------------------------------------

    def _start(self, name: str, attrs: dict[str, str]) -> None:
        if self._skip_depth:
            self._skip_depth += 1
            return
        frame = self._stack[-1]
        parent = frame[0]
        if not parent:
            self._register_root_namespaces(attrs)
        local = self._xsd_local(name)
        # each branch but the last reports why the subtree is skipped
        if local is None:
            self._error(f"element <{name}> is not in the XSD namespace")
        elif local in ("choice", "all"):
            self._error(f"xs:{local} groups are not supported")
        elif local == "attribute":
            self._error("xs:attribute is not supported")
        elif local == "complexType" and parent == "element":
            self._error("anonymous nested complex types are not supported")
        elif local not in _ALLOWED_CHILDREN.get(parent, set()):
            self._error(f"unsupported construct xs:{local} inside {parent or 'document root'}")
        elif local == "element" and parent == "schema":
            self._warning(f"top-level element declaration {attrs.get('name', '?')!r} skipped")
        elif bad := [k for k in attrs if k not in _ALLOWED_ATTRS[local] and not _is_xmlns(k, local)]:
            self._error(f"unsupported attribute {bad[0]!r} on xs:{local}")
        elif frame[1] and parent in _SINGLE_CHILD:
            self._error(_SINGLE_CHILD[parent])
        else:
            handler = getattr(self, f"_enter_{local}", None)
            if handler is None or handler(attrs):
                frame[1] += 1
                self._stack.append([local, 0])
                return
        self._skip_depth = 1

    def _end(self, name: str) -> None:
        if self._skip_depth:
            self._skip_depth -= 1
            return
        if self._stack.pop()[0] == "complexType":
            self._current = None

    def _chars(self, data: str) -> None:
        if self._skip_depth == 0 and data.strip():
            self._error("unexpected text content")

    # -- per-element entry checks (return False to skip the subtree) -----

    def _enter_complexType(self, attrs: dict[str, str]) -> bool:
        name = attrs.get("name")
        if not name:
            self._error("xs:complexType requires a name")
            return False
        if name in self.classes:
            self._error(f"duplicate complexType {name!r}")
            return False
        line, column = self._pos()
        decl = _ClassDecl(name, line, column)
        self.classes[name] = decl
        self._current = decl
        return True

    def _enter_extension(self, attrs: dict[str, str]) -> bool:
        decl = self._current
        base = attrs.get("base")
        if not base:
            self._error("xs:extension requires a base")
            return False
        if ":" in base:
            self._error(f"extension base {base!r} must name a declared complexType")
            return False
        decl.base = base
        decl.base_line, decl.base_column = self._pos()
        return True

    def _enter_element(self, attrs: dict[str, str]) -> bool:
        name = attrs.get("name")
        if not name:
            self._error("xs:element requires a name")
            return False
        type_attr = attrs.get("type")
        if not type_attr:
            self._error(f"element {name!r} has no type (anonymous types are not supported)")
            return False
        min_occurs = attrs.get("minOccurs", "1")
        max_occurs = attrs.get("maxOccurs", "1")
        if min_occurs not in ("0", "1"):
            self._error(f"minOccurs={min_occurs!r} is outside the subset")
            return False
        if max_occurs not in ("1", "unbounded"):
            self._error(f"maxOccurs={max_occurs!r} is outside the subset")
            return False

        kind_or_target = self._resolve_type(name, type_attr)
        if kind_or_target is None:
            return False
        line, column = self._pos()
        self._current.fields.append(
            _FieldDecl(
                name,
                kind_or_target,
                optional=min_occurs == "0",
                repeated=max_occurs == "unbounded",
                line=line,
                column=column,
            )
        )
        return True

    def _resolve_type(self, field_name: str, type_attr: str) -> ScalarKind | str | None:
        local = self._xsd_local(type_attr)
        if local is not None:
            if local == "dateTime":
                self._error(f"element {field_name!r}: xs:dateTime is not supported")
                return None
            kind = SCALAR_TYPES.get(local)
            if kind is None:
                self._error(f"element {field_name!r}: unsupported XSD type xs:{local}")
                return None
            return kind
        if ":" in type_attr:
            self._error(
                f"element {field_name!r}: namespace-qualified user type {type_attr!r} is not supported"
            )
            return None
        return type_attr


def _is_xmlns(attr: str, local: str) -> bool:
    return local == "schema" and (attr == "xmlns" or attr.startswith("xmlns:"))


def parse_schema(
    xsd_text: str | bytes, model_name: str
) -> tuple[ClassModel | None, list[SchemaDiagnostic]]:
    """Parse an XSD document into a class model.

    Returns (model, diagnostics); the model is None whenever any diagnostic
    is an error. A returned model always validates cleanly.
    """
    data = xsd_text.encode("utf-8") if isinstance(xsd_text, str) else bytes(xsd_text)
    parser = _SubsetParser()
    parser.run(data)
    diagnostics = parser.diagnostics

    # Resolution pass over the collected declarations.
    classes: dict[str, ClassDef] = {}
    for decl in parser.classes.values():
        fields = []
        for fd in decl.fields:
            if isinstance(fd.kind_or_target, ScalarKind):
                base_kind: Scalar | Ref = Scalar(fd.kind_or_target)
            else:
                if fd.kind_or_target not in parser.classes:
                    diagnostics.append(
                        SchemaDiagnostic(
                            "error",
                            fd.line,
                            fd.column,
                            f"unresolved type reference {fd.kind_or_target!r}",
                        )
                    )
                    continue
                base_kind = Ref(fd.kind_or_target)
            kind = ListOf(base_kind) if fd.repeated else base_kind
            fields.append(FieldDef(fd.name, kind, optional=fd.optional))
        if decl.base is not None and decl.base not in parser.classes:
            diagnostics.append(
                SchemaDiagnostic(
                    "error",
                    decl.base_line,
                    decl.base_column,
                    f"unresolved extension base {decl.base!r}",
                )
            )
        classes[decl.name] = ClassDef(decl.name, decl.base, tuple(fields))

    if any(d.severity == "error" for d in diagnostics):
        return None, diagnostics

    model = ClassModel(model_name, classes)
    for diag in validate_model(model):
        decl = parser.classes.get(diag.class_name)
        line, column = (decl.line, decl.column) if decl else (1, 1)
        diagnostics.append(SchemaDiagnostic("error", line, column, diag.message))
    if any(d.severity == "error" for d in diagnostics):
        return None, diagnostics
    return model, diagnostics


def emit_schema(model: ClassModel) -> str:
    """Render a model as an XSD inside the accepted subset.

    Deterministic: classes sorted by name, fields in declaration order,
    two-space indentation, one trailing newline. Re-parsing the output
    reproduces a model with an identical dump.
    """
    dump_model(model)  # InvalidModelError for an invalid model

    if not model.classes:
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<xs:schema xmlns:xs="{XSD_NAMESPACE}"/>\n'
        )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<xs:schema xmlns:xs="{XSD_NAMESPACE}">',
    ]
    for cname in sorted(model.classes):
        cdef = model.classes[cname]
        lines.append(f'  <xs:complexType name="{cname}">')
        indent = "    "
        if cdef.superclass is not None:
            lines.append("    <xs:complexContent>")
            lines.append(f'      <xs:extension base="{cdef.superclass}">')
            indent = "        "
        lines.extend(_sequence_lines(cdef, indent))
        if cdef.superclass is not None:
            lines.append("      </xs:extension>")
            lines.append("    </xs:complexContent>")
        lines.append("  </xs:complexType>")
    lines.append("</xs:schema>")
    return "\n".join(lines) + "\n"


def _sequence_lines(cdef: ClassDef, indent: str) -> list[str]:
    if not cdef.own_fields:
        return [f"{indent}<xs:sequence/>"]
    lines = [f"{indent}<xs:sequence>"]
    for fdef in cdef.own_fields:
        lines.append(f"{indent}  {_element_line(fdef)}")
    lines.append(f"{indent}</xs:sequence>")
    return lines


def _element_line(fdef: FieldDef) -> str:
    kind = fdef.kind
    repeated = isinstance(kind, ListOf)
    leaf = kind.element if repeated else kind
    if isinstance(leaf, Scalar):
        type_name = f"xs:{EMITTED_TYPES[leaf.kind]}"
    else:
        type_name = leaf.target
    attrs = f'name="{fdef.name}" type="{type_name}"'
    if fdef.optional:
        attrs += ' minOccurs="0"'
    if repeated:
        attrs += ' maxOccurs="unbounded"'
    return f"<xs:element {attrs}/>"
