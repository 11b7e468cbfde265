"""Class-model intermediate representation.

The model is a catalog of entity classes: single inheritance, ordered typed
fields, four scalar kinds. It is the contract between the schema frontend,
the object codec, and the stores. A model is read-only once built, so
what is derived from it (diagnostics, dump, schema hash, layouts) is
computed once, on first use, and kept on it; every operation is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .errors import TransodbError

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Field names that would collide with wire-format element/attribute names.
RESERVED_FIELD_NAMES = frozenset({"o", "c", "id"})


class InvalidModelError(TransodbError):
    """Raised by operations that require a valid model."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__(
            "invalid model: " + "; ".join(d.message for d in diagnostics)
        )


class ScalarKind(Enum):
    STR = "str"
    BOOL = "bool"
    INT64 = "int"
    FLOAT64 = "float"


@dataclass(frozen=True)
class Scalar:
    kind: ScalarKind


@dataclass(frozen=True)
class Ref:
    """Reference to another object by class; resolves to an OID on the wire."""

    target: str


@dataclass(frozen=True)
class ListOf:
    """Homogeneous repeated field. Lists never nest."""

    element: Scalar | Ref


FieldKind = Scalar | Ref | ListOf


@dataclass(frozen=True)
class FieldDef:
    """One declared field.

    List fields are always optional-with-empty-default: the wire format
    cannot distinguish an absent list from an empty one, so the flag is
    normalized to True at construction.
    """

    name: str
    kind: FieldKind
    optional: bool = False

    def __post_init__(self):
        if isinstance(self.kind, ListOf) and not self.optional:
            object.__setattr__(self, "optional", True)


@dataclass(frozen=True)
class ClassDef:
    """One entity class: a name, an optional superclass, and its own fields
    in declaration order (inherited fields live on the ancestors)."""

    name: str
    superclass: str | None = None
    own_fields: tuple[FieldDef, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "own_fields", tuple(self.own_fields))


@dataclass(frozen=True)
class Diagnostic:
    """One model-validation violation. Ordered by (class, field, message)."""

    class_name: str
    field_name: str | None
    message: str

    def sort_key(self) -> tuple[str, str, str]:
        return (self.class_name, self.field_name or "", self.message)


FNV_OFFSET_BASIS = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET_BASIS
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass
class ClassModel:
    """The whole catalog. `classes` is a read-only copy of the mapping
    given, never rebound. `name` identifies the model in document headers
    but is in neither the dump nor the schema hash, so it stays settable."""

    name: str
    classes: Mapping[str, ClassDef] = field(default_factory=dict)

    def __setattr__(self, attr: str, value) -> None:
        if attr == "classes":
            if "classes" in self.__dict__:
                raise AttributeError("a model's classes cannot be rebound")
            value = MappingProxyType(dict(value))
        object.__setattr__(self, attr, value)

    @cached_property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(_check_model(self))

    @cached_property
    def dump(self) -> str:
        if self.diagnostics:
            raise InvalidModelError(list(self.diagnostics))
        lines = []
        for cname, cdef in sorted(self.classes.items()):
            sup = "" if cdef.superclass is None else f" : {cdef.superclass}"
            fields = ", ".join(map(_field_spec, cdef.own_fields))
            lines.append(f"class {cname}{sup} {{ {fields} }}\n")
        return "".join(lines)

    @cached_property
    def schema_hash(self) -> str:
        return f"{fnv1a64(self.dump.encode('utf-8')):016x}"

    @cached_property
    def schema_xsd(self) -> bytes:
        """emit_schema of the model, UTF-8 encoded: a FileStore's schema.xsd.
        It depends on the classes alone, not on the settable name."""
        from .xsd import emit_schema  # xsd builds on this module
        return emit_schema(self).encode("utf-8")

    @cached_property
    def layouts(self) -> LayoutIndex:
        return LayoutIndex(self)  # checks nothing: an invalid model lays out its valid classes


def validate_model(model: ClassModel) -> list[Diagnostic]:
    """Check model well-formedness; an empty result means valid.

    Reports every violation rather than stopping at the first: unresolved
    superclasses and Ref targets, inheritance cycles, duplicate field names
    in the resolved layout, and reserved or malformed names. Deterministic
    order (class name, then field name). The check runs once per model.
    """
    return list(model.diagnostics)


def _check_model(model: ClassModel) -> list[Diagnostic]:
    """The walk behind validate_model."""
    diags: list[Diagnostic] = []

    for cname, cdef in model.classes.items():
        if not NAME_RE.match(cname):
            diags.append(Diagnostic(cname, None, f"invalid class name {cname!r}"))
        if cdef.name != cname:
            diags.append(
                Diagnostic(cname, None, f"class registered under {cname!r} is named {cdef.name!r}")
            )
        if cdef.superclass is not None and cdef.superclass not in model.classes:
            diags.append(
                Diagnostic(cname, None, f"unresolved superclass {cdef.superclass!r} of {cname}")
            )
        for fdef in cdef.own_fields:
            if not NAME_RE.match(fdef.name):
                diags.append(Diagnostic(cname, fdef.name, f"invalid field name {fdef.name!r}"))
            elif fdef.name in RESERVED_FIELD_NAMES:
                diags.append(
                    Diagnostic(cname, fdef.name, f"reserved field name {fdef.name!r} in {cname}")
                )
            target = _ref_target(fdef.kind)
            if target is not None and target not in model.classes:
                diags.append(
                    Diagnostic(
                        cname, fdef.name, f"unresolved reference target {target!r} in {cname}.{fdef.name}"
                    )
                )
        walk = cdef.superclass  # on a cycle iff its superclasses lead back to it
        for _ in model.classes:
            if walk == cname or walk not in model.classes:
                break
            walk = model.classes[walk].superclass
        if walk == cname:
            diags.append(Diagnostic(cname, None, f"inheritance cycle at {cname}"))

    # Duplicate detection needs a resolvable chain: skip classes whose
    # ancestry is broken by a cycle or a missing superclass.
    for cname, cdef in model.classes.items():
        chain = _chain(model, cname)
        if chain is None:
            continue
        seen: set[str] = set()
        for ancestor in chain:
            for fdef in model.classes[ancestor].own_fields:
                if fdef.name in seen:
                    diags.append(
                        Diagnostic(cname, fdef.name, f"duplicate field {fdef.name} in {cname}")
                    )
                seen.add(fdef.name)

    diags.sort(key=Diagnostic.sort_key)
    return diags


def resolve_layout(model: ClassModel, class_name: str) -> list[FieldDef]:
    """Flattened field layout: root ancestor's fields first, then each
    descendant's own fields, declaration order preserved within a class."""
    return list(model.layouts.layout(class_name))


def is_subtype(model: ClassModel, sub: str, sup: str) -> bool:
    """True iff `sup` is `sub` or reachable from it along superclass links."""
    if sup not in model.classes:
        raise KeyError(f"unknown class {sup!r}")
    return sup in model.layouts.chain(sub)


def dump_model(model: ClassModel) -> str:
    """Deterministic one-line-per-class rendering.

    Classes sort by name byte-wise; each line is
    ``class NAME [: SUPER] { field, field }`` with fields as
    ``name:kindspec`` plus a ``?`` suffix when optional. This exact byte
    sequence feeds the schema hash, so the grammar must never drift.
    """
    return model.dump


class LayoutIndex:
    """Per-class ancestry and layout cache over a model, with objectxml's
    write plans and LineAcceptor; a class costs a walk of its own ancestry,
    not of the model, and raises InvalidModelError only if that is broken."""

    def __init__(self, model: ClassModel):
        self.model = model
        self._chains: dict[str, tuple[str, ...]] = {}
        self._layouts: dict[str, list[FieldDef]] = {}
        self._by_name: dict[str, dict[str, FieldDef]] = {}
        self.plans: dict[str, tuple] = {}  # class name -> objectxml's write plan

    def chain(self, class_name: str) -> tuple[str, ...]:
        """The class's ancestry, root first, the class itself last."""
        cached = self._chains.get(class_name)
        if cached is None:
            if class_name not in self.model.classes:
                raise KeyError(f"unknown class {class_name!r}")
            chain = _chain(self.model, class_name)
            if chain is None:
                raise InvalidModelError(validate_model(self.model))
            cached = self._chains[class_name] = chain
        return cached

    def layout(self, class_name: str) -> list[FieldDef]:
        cached = self._layouts.get(class_name)
        if cached is None:
            classes = self.model.classes
            cached = [f for ancestor in self.chain(class_name) for f in classes[ancestor].own_fields]
            self._layouts[class_name] = cached
            self._by_name[class_name] = {f.name: f for f in cached}
        return cached

    def field(self, class_name: str, field_name: str) -> FieldDef | None:
        self.layout(class_name)
        return self._by_name[class_name].get(field_name)

    @cached_property
    def acceptor(self):
        from .objectxml import LineAcceptor  # objectxml builds on this module
        return LineAcceptor(self)


def _field_spec(fdef: FieldDef) -> str:
    spec = f"{fdef.name}:{_kind_spec(fdef.kind)}"
    return spec + "?" if fdef.optional else spec


def _kind_spec(kind: FieldKind) -> str:
    if isinstance(kind, Scalar):
        return kind.kind.value
    if isinstance(kind, Ref):
        return f"ref({kind.target})"
    return f"list({_kind_spec(kind.element)})"


def _ref_target(kind: FieldKind) -> str | None:
    if isinstance(kind, Ref):
        return kind.target
    if isinstance(kind, ListOf) and isinstance(kind.element, Ref):
        return kind.element.target
    return None


def _chain(model: ClassModel, class_name: str) -> tuple[str, ...] | None:
    """Root-first ancestry of a class, or None if it cannot be resolved:
    the walk meets a missing class or comes back to one it has seen."""
    chain: list[str] = []
    current: str | None = class_name
    while current is not None:
        if current in chain or current not in model.classes:
            return None
        chain.append(current)
        current = model.classes[current].superclass
    return tuple(reversed(chain))
