"""Object-graph construction: closure and reference-type checking.

A stream of records becomes a validated, closed graph in two passes: the
first registers identities and collects outbound references, the second
checks that every reference lands on a present record of an acceptable
class. Forward references and cycles of any length are fine; failures are
reported all at once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .errors import ModelMismatchError, TransodbError
from .model import ClassModel
from .objectxml import ObjectRecord, Oid, RecordError, Value, iter_refs, validate_record


class BuildErrorKind(Enum):
    DANGLING_REF = "DanglingRef"
    DUPLICATE_OID = "DuplicateOid"
    REF_TYPE_MISMATCH = "RefTypeMismatch"
    RECORD_INVALID = "RecordInvalid"


@dataclass(frozen=True)
class BuildError:
    kind: BuildErrorKind
    offending_oid: Oid
    detail: str

    @property
    def token(self) -> object:  # an invalid record's oid may be no Oid: it is its own token
        return getattr(self.offending_oid, "token", self.offending_oid)

    def sort_key(self) -> tuple[bool, str, str, str]:
        token = self.token  # an invalid record's may not be a str: it sorts last
        return (type(token) is not str, str(token), self.kind.value, self.detail)


class GraphBuildError(TransodbError):
    """Raised when a record stream cannot form a valid graph; carries the
    complete, deterministically ordered error list."""

    def __init__(self, errors: list[BuildError]):
        self.errors = errors
        summary = "; ".join(f"{e.kind.value}({e.token}): {e.detail}" for e in errors[:5])
        if len(errors) > 5:
            summary += f"; ... {len(errors) - 5} more"
        super().__init__(summary)


@dataclass
class ObjectGraph:
    """A closed, type-correct set of records keyed by OID."""

    model: ClassModel
    records: dict[Oid, ObjectRecord] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)


def build_graph(records: Iterable[ObjectRecord], model: ClassModel) -> ObjectGraph:
    """Assemble a graph, or raise GraphBuildError listing every problem."""
    layouts = model.layouts
    errors: list[BuildError] = []
    by_oid: dict[Oid, ObjectRecord] = {}
    outbound: list[tuple[Oid, str, str, Oid]] = []

    for record in records:
        try:
            validate_record(record, model, layouts)
        except RecordError as exc:
            errors.append(BuildError(BuildErrorKind.RECORD_INVALID, record.oid, str(exc)))
            continue
        if record.oid in by_oid:
            errors.append(
                BuildError(BuildErrorKind.DUPLICATE_OID, record.oid, f"OID {record.oid.token} seen twice")
            )
            continue
        by_oid[record.oid] = record
        for field_name, target_class, target in iter_refs(record, layouts):
            outbound.append((record.oid, field_name, target_class, target))

    for source, field_name, target_class, target in outbound:
        resolved = by_oid.get(target)
        if resolved is None:
            errors.append(
                BuildError(
                    BuildErrorKind.DANGLING_REF,
                    source,
                    f"{source.token}.{field_name} references missing {target.token}",
                )
            )
        elif target_class not in layouts.chain(resolved.class_name):
            errors.append(
                BuildError(
                    BuildErrorKind.REF_TYPE_MISMATCH,
                    source,
                    f"{source.token}.{field_name} expects {target_class}, "
                    f"{target.token} is {resolved.class_name}",
                )
            )

    if errors:
        errors.sort(key=BuildError.sort_key)
        raise GraphBuildError(errors)
    return ObjectGraph(model, by_oid)


def values_equal(a: Value, b: Value) -> bool:
    """Strict value comparison: kinds must match and floats compare bit-wise."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, float) or isinstance(b, float):
        return (
            type(a) is type(b)
            and struct.pack(">d", a) == struct.pack(">d", b)
        )
    if isinstance(a, list) or isinstance(b, list):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(values_equal(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def records_equal(a: ObjectRecord, b: ObjectRecord) -> bool:
    if a.class_name != b.class_name or a.oid != b.oid:
        return False
    if set(a.values) != set(b.values):
        return False
    return all(values_equal(a.values[k], b.values[k]) for k in a.values)


def graphs_equal(a: ObjectGraph, b: ObjectGraph) -> bool:
    """Field-wise graph equality; both graphs must share one schema."""
    if a.model.dump != b.model.dump:
        raise ModelMismatchError("graphs bound to different models")
    if set(a.records) != set(b.records):
        return False
    return all(records_equal(rec, b.records[oid]) for oid, rec in a.records.items())
