"""Graph assembly, equality, and the synthetic benchmark workload."""

import random

import pytest

from transodb import (
    ClassDef,
    ClassModel,
    FieldDef,
    GraphBuildError,
    ModelMismatchError,
    ObjectRecord,
    Oid,
    Ref,
    build_graph,
    graphs_equal,
    synthesize_graph,
    write_canonical,
)
from transodb.graph import BuildErrorKind, values_equal
from transodb.bench import bench_model

from conftest import person


def test_single_record_graph(person_model):
    graph = build_graph([person("o1")], person_model)
    assert len(graph) == 1
    assert graph.records[Oid("o1")].values["age"] == 30


def test_forward_reference_two_cycle(family_model):
    a = person("o1", spouse=Oid("o2"))
    b = person("o2", spouse=Oid("o1"))
    graph = build_graph([a, b], family_model)
    assert len(graph) == 2


def test_dangling_ref_reported(family_model):
    with pytest.raises(GraphBuildError) as exc:
        build_graph([person("o1", spouse=Oid("o9"))], family_model)
    (err,) = exc.value.errors
    assert err.kind is BuildErrorKind.DANGLING_REF
    assert err.offending_oid == Oid("o1")
    assert "o9" in err.detail


def test_ref_type_mismatch():
    model = ClassModel(
        "m",
        {
            "Person": ClassDef("Person", None, (FieldDef("friend", Ref("Person"), optional=True),)),
            "Unrelated": ClassDef("Unrelated", None, ()),
        },
    )
    records = [
        ObjectRecord("Person", Oid("p"), {"friend": Oid("u")}),
        ObjectRecord("Unrelated", Oid("u"), {}),
    ]
    with pytest.raises(GraphBuildError) as exc:
        build_graph(records, model)
    (err,) = exc.value.errors
    assert err.kind is BuildErrorKind.REF_TYPE_MISMATCH
    assert err.offending_oid == Oid("p")


def test_subtype_target_accepted(family_model):
    # spouse declares Person; an Employee record satisfies it
    emp = ObjectRecord("Employee", Oid("e"), {"name": "E", "age": 1})
    rec = person("p", spouse=Oid("e"))
    graph = build_graph([rec, emp], family_model)
    assert len(graph) == 2


def test_all_errors_reported_in_deterministic_order(family_model):
    records = [
        person("b", spouse=Oid("missing2")),
        person("a", spouse=Oid("missing1")),
        person("a"),  # duplicate
        ObjectRecord("Person", Oid("c"), {"name": "x"}),  # invalid: age missing
        person(5),  # invalid: an int token, which sorts after the str ones
    ]
    with pytest.raises(GraphBuildError) as exc:
        build_graph(records, family_model)
    errors = exc.value.errors
    keys = [e.sort_key() for e in errors]
    assert keys == sorted(keys)
    assert (errors[-1].kind, errors[-1].offending_oid) == (BuildErrorKind.RECORD_INVALID, Oid(5))
    kinds = {e.kind for e in errors}
    assert kinds == {
        BuildErrorKind.DANGLING_REF,
        BuildErrorKind.DUPLICATE_OID,
        BuildErrorKind.RECORD_INVALID,
    }


def test_record_whose_oid_is_no_oid_is_reported_invalid():
    record = ObjectRecord("Person", "p1", {"name": "x", "age": 1})
    with pytest.raises(GraphBuildError, match=r"^RecordInvalid\(p1\): invalid OID 'p1'$") as exc:
        build_graph([record], bench_model())
    [error] = exc.value.errors
    assert (error.kind, error.offending_oid, error.detail) == (
        BuildErrorKind.RECORD_INVALID, "p1", "invalid OID 'p1'"
    )


def test_error_result_carries_no_partial_graph(family_model):
    try:
        build_graph([person("o1", spouse=Oid("gone"))], family_model)
    except GraphBuildError as exc:
        assert not hasattr(exc, "graph")
    else:
        pytest.fail("expected GraphBuildError")


def test_order_independence(family_model):
    records = [
        person(f"p{i}", spouse=Oid(f"p{(i * 7 + 3) % 30}"), friends=[Oid(f"p{(i + 1) % 30}")])
        for i in range(30)
    ]
    base = build_graph(records, family_model)
    rng = random.Random(7)
    for _ in range(10):
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert graphs_equal(base, build_graph(shuffled, family_model))


def test_error_set_is_order_independent(family_model):
    records = [person(f"p{i}", spouse=Oid(f"gone{i}")) for i in range(6)]
    def collect(recs):
        try:
            build_graph(recs, family_model)
        except GraphBuildError as exc:
            return exc.errors
        return []
    baseline = collect(records)
    assert collect(list(reversed(records))) == baseline


def test_closure_verified_by_independent_walk(family_model):
    records = [person(f"p{i}", friends=[Oid(f"p{j}") for j in range(i)]) for i in range(12)]
    graph = build_graph(records, family_model)
    for record in graph.records.values():
        for value in record.values.values():
            targets = value if isinstance(value, list) else [value]
            for item in targets:
                if isinstance(item, Oid):
                    assert item in graph.records


def test_deleting_k_referenced_records_yields_k_danglings(family_model):
    records = [person(f"p{i}", spouse=Oid(f"p{(i + 1) % 20}")) for i in range(20)]
    build_graph(records, family_model)
    for k in (1, 2, 4):
        # drop spaced-out records so each deleted one is referenced by a survivor
        dropped = {i * 5 for i in range(k)}
        survivors = [r for i, r in enumerate(records) if i not in dropped]
        with pytest.raises(GraphBuildError) as exc:
            build_graph(survivors, family_model)
        dangling = [e for e in exc.value.errors if e.kind is BuildErrorKind.DANGLING_REF]
        assert len(dangling) >= k


def test_graphs_equal_reflexive_and_discriminating(family_model):
    g1 = build_graph([person("o1")], family_model)
    g2 = build_graph([person("o1")], family_model)
    g3 = build_graph([person("o1", age=31)], family_model)
    assert graphs_equal(g1, g1)
    assert graphs_equal(g1, g2)
    assert not graphs_equal(g1, g3)


def test_graphs_equal_requires_same_model(person_model, family_model):
    g1 = build_graph([person("o1")], person_model)
    g2 = build_graph([person("o1")], family_model)
    with pytest.raises(ModelMismatchError):
        graphs_equal(g1, g2)


def test_values_equal_is_kind_strict():
    assert not values_equal(True, 1)
    assert not values_equal(1, 1.0)
    assert not values_equal("o1", Oid("o1"))
    assert values_equal(Oid("o1"), Oid("o1"))
    assert values_equal([1, 2], [1, 2])
    assert not values_equal([1, 2], [1, 2.0])
    assert values_equal(0.1 + 0.2, 0.30000000000000004)
    assert not values_equal(0.0, -0.0)  # bit-wise float comparison


# -- synthetic workload ---------------------------------------------------------


def test_synthesize_empty():
    model = bench_model()
    graph = synthesize_graph(model, 1, 0)
    assert len(graph) == 0


def test_synthesize_deterministic_and_seed_sensitive():
    model = bench_model()
    doc_a = write_canonical(synthesize_graph(model, 42, 100).records.values(), model)
    doc_b = write_canonical(synthesize_graph(model, 42, 100).records.values(), model)
    doc_c = write_canonical(synthesize_graph(model, 43, 100).records.values(), model)
    assert doc_a == doc_b
    assert doc_a != doc_c


def test_synthesize_oids_and_closure():
    model = bench_model()
    graph = synthesize_graph(model, 7, 50)
    assert set(r.token for r in graph.records) == {f"o{i}" for i in range(50)}


def test_synthesize_requires_bench_classes(person_model):
    with pytest.raises(ModelMismatchError):
        synthesize_graph(person_model, 42, 1)


def test_synthesize_strings_exercise_escaping():
    model = bench_model()
    graph = synthesize_graph(model, 42, 400)
    names = "".join(r.values["name"] for r in graph.records.values())
    assert any(ch in names for ch in '&<>"')
