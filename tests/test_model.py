"""Class-model validation, layout resolution, subtyping, and the dump grammar."""

import pytest

from transodb import (
    ClassDef,
    ClassModel,
    FieldDef,
    InvalidModelError,
    ListOf,
    Ref,
    Scalar,
    ScalarKind,
    dump_model,
    is_subtype,
    resolve_layout,
    validate_model,
)
from transodb.conformance import flatten_layout_reference, random_model
from transodb.model import LayoutIndex


def cls(name, superclass=None, *fields):
    return ClassDef(name, superclass, tuple(fields))


def test_empty_model_is_valid():
    assert validate_model(ClassModel("m")) == []


def test_self_cycle_reported():
    m = ClassModel("m", {"A": cls("A", "A")})
    diags = validate_model(m)
    assert len(diags) == 1
    assert diags[0].message == "inheritance cycle at A"


def test_two_step_cycle_reports_both_members():
    m = ClassModel("m", {"A": cls("A", "B"), "B": cls("B", "A")})
    messages = [d.message for d in validate_model(m)]
    assert "inheritance cycle at A" in messages
    assert "inheritance cycle at B" in messages


def test_duplicate_field_in_resolved_layout():
    m = ClassModel(
        "m",
        {
            "Person": cls("Person", None, FieldDef("name", Scalar(ScalarKind.STR))),
            "Employee": cls("Employee", "Person", FieldDef("name", Scalar(ScalarKind.STR))),
        },
    )
    diags = validate_model(m)
    assert len(diags) == 1
    assert diags[0].message == "duplicate field name in Employee"


def test_unresolved_superclass_and_ref_target():
    m = ClassModel(
        "m",
        {
            "A": cls("A", "Ghost", FieldDef("x", Ref("Phantom"))),
        },
    )
    messages = [d.message for d in validate_model(m)]
    assert any("unresolved superclass 'Ghost'" in msg for msg in messages)
    assert any("unresolved reference target 'Phantom'" in msg for msg in messages)


def test_reserved_and_invalid_names():
    m = ClassModel(
        "m",
        {
            "A": cls(
                "A",
                None,
                FieldDef("id", Scalar(ScalarKind.STR)),
                FieldDef("9lives", Scalar(ScalarKind.STR)),
            ),
        },
    )
    messages = [d.message for d in validate_model(m)]
    assert any("reserved field name 'id'" in msg for msg in messages)
    assert any("invalid field name '9lives'" in msg for msg in messages)


def test_list_ref_target_checked():
    m = ClassModel("m", {"A": cls("A", None, FieldDef("xs", ListOf(Ref("Nope"))))})
    assert any("Nope" in d.message for d in validate_model(m))


def test_validation_is_idempotent_and_sorted():
    m = ClassModel(
        "m",
        {
            "B": cls("B", "Ghost", FieldDef("id", Scalar(ScalarKind.STR))),
            "A": cls("A", "A"),
        },
    )
    first = validate_model(m)
    second = validate_model(m)
    assert first == second
    keys = [d.sort_key() for d in first]
    assert keys == sorted(keys)


def three_level_model():
    return ClassModel(
        "m",
        {
            "Person": cls(
                "Person",
                None,
                FieldDef("name", Scalar(ScalarKind.STR)),
                FieldDef("age", Scalar(ScalarKind.INT64)),
            ),
            "Employee": cls("Employee", "Person", FieldDef("salary", Scalar(ScalarKind.FLOAT64))),
            "Manager": cls("Manager", "Employee", FieldDef("reports", ListOf(Ref("Employee")))),
        },
    )


def test_layout_without_inheritance():
    m = three_level_model()
    assert [f.name for f in resolve_layout(m, "Person")] == ["name", "age"]


def test_layout_flattens_root_first():
    m = three_level_model()
    assert [f.name for f in resolve_layout(m, "Employee")] == ["name", "age", "salary"]
    assert [f.name for f in resolve_layout(m, "Manager")] == ["name", "age", "salary", "reports"]


def test_layout_unknown_class():
    with pytest.raises(KeyError):
        resolve_layout(three_level_model(), "Ghost")


def test_layout_resolves_each_class_through_its_own_ancestry():
    """A cycle or a missing superclass fails only the classes whose
    ancestry reaches it; LayoutIndex.chain is that ancestry, root first."""
    m = ClassModel(
        "m",
        {
            "A": cls("A", "B"),
            "B": cls("B", "A"),
            "C": cls("C", None, FieldDef("x", Scalar(ScalarKind.INT64))),
            "D": cls("D", "A"),
            "E": cls("E", "Ghost"),
            "F": cls("F", "C", FieldDef("y", Scalar(ScalarKind.STR))),
        },
    )
    assert [f.name for f in resolve_layout(m, "F")] == ["x", "y"]
    assert LayoutIndex(m).chain("F") == ("C", "F")
    for cname in ("A", "B", "D", "E"):
        with pytest.raises(InvalidModelError):
            resolve_layout(m, cname)
        with pytest.raises(InvalidModelError):
            LayoutIndex(m).layout(cname)
    with pytest.raises(KeyError):
        LayoutIndex(m).chain("Ghost")


def test_layout_matches_naive_oracle_on_random_models():
    for seed in range(40):
        m = random_model(seed)
        for cname in m.classes:
            assert [f.name for f in resolve_layout(m, cname)] == flatten_layout_reference(m, cname)


def test_layout_has_each_ancestor_field_exactly_once():
    for seed in range(40):
        m = random_model(seed)
        for cname in m.classes:
            names = [f.name for f in resolve_layout(m, cname)]
            assert len(names) == len(set(names))
            walk = cname
            while walk is not None:
                for fdef in m.classes[walk].own_fields:
                    assert names.count(fdef.name) == 1
                walk = m.classes[walk].superclass


def test_subtype_basics():
    m = three_level_model()
    assert is_subtype(m, "Person", "Person")
    assert is_subtype(m, "Employee", "Person")
    assert not is_subtype(m, "Person", "Employee")
    assert is_subtype(m, "Manager", "Person")
    with pytest.raises(KeyError):
        is_subtype(m, "Person", "Ghost")


def test_subtype_of_a_class_with_a_broken_ancestry_is_an_invalid_model():
    """is_subtype walks the ancestry LayoutIndex.chain walks: a cycle or a
    missing superclass on sub's ancestry raises, even when sup is met before
    the break; other classes of the model still answer, and an unknown
    class is still a KeyError."""
    m = ClassModel(
        "m",
        {
            "A": cls("A", "B"),
            "B": cls("B", "A"),
            "C": cls("C"),
            "D": cls("D", "A"),
            "E": cls("E", "Ghost"),
            "F": cls("F", "C"),
        },
    )
    for sub in ("A", "B", "D", "E"):
        for sup in ("A", "C", "E", sub):
            with pytest.raises(InvalidModelError):
                is_subtype(m, sub, sup)
    assert is_subtype(m, "F", "C")
    assert not is_subtype(m, "C", "F")
    assert not is_subtype(m, "F", "A")
    with pytest.raises(KeyError):
        is_subtype(m, "Ghost", "C")


def test_subtype_is_a_partial_order_on_small_models():
    for seed in range(30):
        m = random_model(seed)
        names = list(m.classes)
        for a in names:
            assert is_subtype(m, a, a)
            for b in names:
                for c in names:
                    if is_subtype(m, a, b) and is_subtype(m, b, c):
                        assert is_subtype(m, a, c)
                if a != b:
                    assert not (is_subtype(m, a, b) and is_subtype(m, b, a))


def test_dump_empty_model():
    assert dump_model(ClassModel("m")) == ""


def test_dump_person_line(person_model):
    assert dump_model(person_model) == "class Person { name:str, age:int }\n"


def test_dump_inheritance_and_kindspecs():
    m = ClassModel(
        "m",
        {
            "Person": cls(
                "Person",
                None,
                FieldDef("name", Scalar(ScalarKind.STR)),
                FieldDef("age", Scalar(ScalarKind.INT64)),
            ),
            "Employee": cls(
                "Employee",
                "Person",
                FieldDef("salary", Scalar(ScalarKind.FLOAT64), optional=True),
            ),
        },
    )
    assert dump_model(m) == (
        "class Employee : Person { salary:float? }\n"
        "class Person { name:str, age:int }\n"
    )


def test_dump_all_kindspec_forms():
    m = ClassModel(
        "m",
        {
            "T": cls(
                "T",
                None,
                FieldDef("a", Scalar(ScalarKind.BOOL)),
                FieldDef("b", Ref("T")),
                FieldDef("c_", ListOf(Scalar(ScalarKind.STR))),
                FieldDef("d", ListOf(Ref("T"))),
            ),
        },
    )
    assert dump_model(m) == "class T { a:bool, b:ref(T), c_:list(str)?, d:list(ref(T))? }\n"


def test_dump_requires_valid_model():
    with pytest.raises(InvalidModelError):
        dump_model(ClassModel("m", {"A": cls("A", "A")}))


def test_model_is_read_only_once_built():
    """A model keeps a read-only copy of the classes it is given, which
    cannot be rebound, so what it derives from them stays true; its name,
    which nothing derived reads, stays settable."""
    given = {"A": cls("A", None, FieldDef("x", Scalar(ScalarKind.INT64)))}
    m = ClassModel("m", given)
    dump = dump_model(m)
    given["B"] = cls("B", "A")
    del given["A"]
    assert list(m.classes) == ["A"]
    with pytest.raises(TypeError):
        m.classes["B"] = cls("B", "A")
    with pytest.raises(AttributeError):
        m.classes = {"B": cls("B")}
    m.name = "renamed"
    assert (m.name, list(m.classes), dump_model(m)) == ("renamed", ["A"], dump)


def test_list_fields_normalize_to_optional():
    f = FieldDef("xs", ListOf(Scalar(ScalarKind.STR)), optional=False)
    assert f.optional


def test_dump_distinguishes_structurally_different_models():
    # Injectivity up to the model name: distinct structure, distinct bytes.
    seen = {}
    for seed in range(120):
        m = random_model(seed)
        text = dump_model(m)
        if text in seen:
            other = seen[text]
            assert {c: m.classes[c] for c in m.classes} == {
                c: other.classes[c] for c in other.classes
            }
        seen[text] = m
    assert len(seen) > 100  # the generator explores a wide structural space
