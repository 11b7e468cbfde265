"""Cross-cutting verification harness.

Holds the instrumentation counters threaded through the codec and store
paths, deterministic random generators for models and graphs, the adapter
contract suite that any backend must pass, and independent oracles
(reference hash, naive layout flattening) that deliberately do not call
into the implementations they check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Callable

from .graph import ObjectGraph, build_graph, records_equal
from .model import (
    ClassDef,
    ClassModel,
    FieldDef,
    LayoutIndex,
    ListOf,
    Ref,
    Scalar,
    ScalarKind,
    is_subtype,
)
from .objectxml import ObjectRecord, Oid, Value, format_record
from .store import DuplicateOidError, StoreAdapter


@dataclass
class Instrumentation:
    """Counters proving the streaming bounds hold.

    max_records_in_flight must end at 1 for any canonical read, import, or
    export over a non-empty document; max_pending_oids tracks the closure
    set; max_open_elements bounds simultaneously open XML contexts during
    schema parsing.
    """

    max_records_in_flight: int = 0
    max_pending_oids: int = 0
    max_open_elements: int = 0
    _records_open: int = dc_field(default=0, repr=False)
    _elements_open: int = dc_field(default=0, repr=False)

    def reset(self) -> None:
        self.max_records_in_flight = 0
        self.max_pending_oids = 0
        self.max_open_elements = 0
        self._records_open = 0
        self._elements_open = 0

    def record_opened(self) -> None:
        self._records_open += 1
        self.max_records_in_flight = max(self.max_records_in_flight, self._records_open)

    def record_closed(self) -> None:
        self._records_open -= 1

    def element_opened(self) -> None:
        self._elements_open += 1
        self.max_open_elements = max(self.max_open_elements, self._elements_open)

    def element_closed(self) -> None:
        self._elements_open -= 1

    def note_pending(self, size: int) -> None:
        self.max_pending_oids = max(self.max_pending_oids, size)


# -- independent oracles ----------------------------------------------------


def fnv1a64_reference(data: bytes) -> str:
    """FNV-1a from its published constants; intentionally a second
    implementation, kept apart from the codec's."""
    state = 14695981039346656037  # 0xcbf29ce484222325
    for byte in data:
        state = ((state ^ byte) * 1099511628211) % (1 << 64)
    return format(state, "016x")


def flatten_layout_reference(model: ClassModel, class_name: str) -> list[str]:
    """Field names by a naive recursive walk, root first."""
    cdef = model.classes[class_name]
    inherited = flatten_layout_reference(model, cdef.superclass) if cdef.superclass else []
    return inherited + [f.name for f in cdef.own_fields]


# -- deterministic generators -------------------------------------------------

_SCALARS = [ScalarKind.STR, ScalarKind.BOOL, ScalarKind.INT64, ScalarKind.FLOAT64]


def random_model(seed: int) -> ClassModel:
    """Valid model with at most 8 classes, 6 fields each, inheritance
    chains at most 3 deep; same seed, same model.

    Required reference fields only target the declaring class or one of its
    ancestors, so any record can satisfy them by pointing at itself; that
    keeps random_graph total for every generated model and every n >= 1.
    """
    rng = random.Random(seed)
    n_classes = rng.randint(1, 8)
    names = [f"C{i}" for i in range(n_classes)]
    depth: dict[str, int] = {}
    classes: dict[str, ClassDef] = {}

    for i, name in enumerate(names):
        superclass = None
        if i > 0 and rng.random() < 0.45:
            shallow = [p for p in names[:i] if depth[p] < 2]
            if shallow:
                superclass = rng.choice(shallow)
        depth[name] = depth[superclass] + 1 if superclass else 0

        ancestry = [name]
        walk = superclass
        while walk is not None:
            ancestry.append(walk)
            walk = classes[walk].superclass

        fields = []
        for j in range(rng.randint(0, 6)):
            fname = f"f{i}_{j}"
            roll = rng.random()
            if roll < 0.45:
                kind: Scalar | Ref | ListOf = Scalar(rng.choice(_SCALARS))
                optional = rng.random() < 0.4
            elif roll < 0.7:
                optional = rng.random() < 0.6
                target = rng.choice(ancestry) if not optional else rng.choice(names)
                kind = Ref(target)
            elif roll < 0.85:
                kind = ListOf(Scalar(rng.choice(_SCALARS)))
                optional = True
            else:
                kind = ListOf(Ref(rng.choice(names)))
                optional = True
            fields.append(FieldDef(fname, kind, optional))
        classes[name] = ClassDef(name, superclass, tuple(fields))

    return ClassModel(f"model{seed}", classes)


def _random_text(rng: random.Random) -> str:
    length = rng.randint(0, 24)
    chars = [chr(rng.randint(32, 126)) for _ in range(length)]
    if length and rng.random() < 0.2:
        chars[rng.randrange(length)] = rng.choice('&<>"\'')
    if length and rng.random() < 0.1:
        chars[rng.randrange(length)] = rng.choice("\t\n\r")
    text = "".join(chars)
    if rng.random() < 0.15:
        text += rng.choice(["é", "ß", "日本", "→", "𝄞"])
    return text


def _random_scalar(rng: random.Random, kind: ScalarKind) -> Value:
    if kind is ScalarKind.STR:
        return _random_text(rng)
    if kind is ScalarKind.BOOL:
        return rng.random() < 0.5
    if kind is ScalarKind.INT64:
        return rng.randint(-(1 << 63), (1 << 63) - 1)
    # full-precision finite doubles, occasionally signed zero or huge
    roll = rng.random()
    if roll < 0.05:
        return rng.choice([0.0, -0.0, 1e308, -1e-308])
    return rng.uniform(-1e6, 1e6)


def random_graph(model: ClassModel, seed: int, n: int) -> ObjectGraph:
    """Closed, type-correct graph of exactly n records; deterministic per
    (model, seed, n). Works for any model out of random_model."""
    rng = random.Random(f"{seed}:{n}")
    names = list(model.classes)
    assigned = [rng.choice(names) for _ in range(n)]
    oids = [Oid(f"r{i}") for i in range(n)]

    # candidate record indices per reference target, honoring subtyping
    layouts = LayoutIndex(model)
    candidates: dict[str, list[int]] = {}
    for target in names:
        candidates[target] = [
            i for i, cls in enumerate(assigned) if is_subtype(model, cls, target)
        ]

    records = []
    for i in range(n):
        cls = assigned[i]
        values: dict[str, Value] = {}
        for fdef in layouts.layout(cls):
            kind = fdef.kind
            if isinstance(kind, Scalar):
                if fdef.optional and rng.random() < 0.3:
                    continue
                values[fdef.name] = _random_scalar(rng, kind.kind)
            elif isinstance(kind, Ref):
                pool = candidates[kind.target]
                if fdef.optional and (not pool or rng.random() < 0.35):
                    continue
                values[fdef.name] = oids[pool[rng.randrange(len(pool))] if pool else i]
            else:
                element = kind.element
                if isinstance(element, Ref):
                    pool = candidates[element.target]
                    length = rng.randint(0, 4) if pool else 0
                    if length:
                        values[fdef.name] = [
                            oids[pool[rng.randrange(len(pool))]] for _ in range(length)
                        ]
                else:
                    length = rng.randint(0, 4)
                    if length:
                        values[fdef.name] = [
                            _random_scalar(rng, element.kind) for _ in range(length)
                        ]
        records.append(ObjectRecord(cls, oids[i], values))

    return build_graph(records, model)


# -- adapter contract suite ----------------------------------------------------


def check_adapter_contract(
    make_store: Callable[[], StoreAdapter],
    graph: ObjectGraph,
    reopen: Callable[[StoreAdapter], StoreAdapter] | None = None,
) -> None:
    """Assert the behavioral contract against one backend.

    `make_store` must yield a fresh empty store bound to graph.model;
    `reopen`, when given (persistent backends), closes the handle and
    returns a new one on the same location.
    """
    records = list(graph.records.values())
    store = make_store()
    try:
        # insertion in arbitrary (here: reversed-sorted) order
        for record in sorted(records, key=lambda r: r.oid.token, reverse=True):
            store.put(record)
        assert store.count() == len(records), "count must reflect accepted puts"

        for record in records:
            got = store.get(record.oid)
            assert got is not None and records_equal(got, record), (
                f"get({record.oid.token}) must return the stored record"
            )
        assert store.get(Oid("never.stored")) is None, "get of absent OID must be None"

        tokens = [r.oid.token for r in store.scan()]
        assert tokens == sorted(tokens), "scan must be in byte-wise OID order"
        assert len(tokens) == len(records)

        if records:
            try:
                store.put(records[0])
            except DuplicateOidError:
                pass
            else:
                raise AssertionError("duplicate put must be rejected")
            assert store.count() == len(records), "rejected put must not change count"

        store.commit()
        scanned = {r.oid.token: r for r in store.scan()}
        for record in records:
            assert records_equal(scanned[record.oid.token], record), (
                "scan after commit must reflect every accepted put"
            )
        _check_scan_lines(store)

        if reopen is not None:
            store = reopen(store)
            assert store.count() == len(records), "reopen must preserve count"
            for record in records:
                got = store.get(record.oid)
                assert got is not None and records_equal(got, record), (
                    "reopen must preserve records exactly"
                )
            _check_scan_lines(store)
    finally:
        store.close()


def _check_scan_lines(store: StoreAdapter) -> None:
    layouts = LayoutIndex(store.model)
    expected = [(format_record(r, layouts) + "\n").encode("utf-8") for r in store.scan()]
    assert list(store.scan_lines()) == expected, (
        "scan_lines must yield the canonical line of each record scan yields"
    )
