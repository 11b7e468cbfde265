"""The generators and oracles themselves: determinism, validity, coverage."""

from transodb import dump_model, graphs_equal, validate_model, write_canonical
from transodb.conformance import (
    fnv1a64_reference,
    random_graph,
    random_model,
)
from transodb.model import Ref, Scalar


def test_random_model_deterministic():
    for seed in (0, 1, 17, 999):
        assert dump_model(random_model(seed)) == dump_model(random_model(seed))


def test_random_model_always_valid():
    for seed in range(100):
        m = random_model(seed)
        assert validate_model(m) == [], f"seed {seed}"
        assert len(m.classes) <= 8
        for cdef in m.classes.values():
            assert len(cdef.own_fields) <= 6


def test_random_model_depth_bound():
    for seed in range(100):
        m = random_model(seed)
        for cname in m.classes:
            depth = 0
            walk = m.classes[cname].superclass
            while walk is not None:
                depth += 1
                walk = m.classes[walk].superclass
            assert depth <= 3


def test_random_model_covers_every_field_kind():
    seen = set()
    for seed in range(100):
        for cdef in random_model(seed).classes.values():
            for fdef in cdef.own_fields:
                kind = fdef.kind
                if isinstance(kind, Scalar):
                    seen.add(("scalar", kind.kind))
                elif isinstance(kind, Ref):
                    seen.add(("ref",))
                elif isinstance(kind.element, Scalar):
                    seen.add(("list-scalar",))
                else:
                    seen.add(("list-ref",))
    assert ("ref",) in seen
    assert ("list-scalar",) in seen
    assert ("list-ref",) in seen
    assert len([k for k in seen if k[0] == "scalar"]) == 4


def test_random_graph_empty():
    m = random_model(4)
    assert len(random_graph(m, 0, 0)) == 0


def test_random_graph_builds_clean_and_deterministic():
    for seed in range(30):
        m = random_model(seed)
        g1 = random_graph(m, seed, 25)  # build_graph inside validates closure
        g2 = random_graph(m, seed, 25)
        assert len(g1) == 25
        assert graphs_equal(g1, g2)
        assert write_canonical(g1.records.values(), m) == write_canonical(
            g2.records.values(), m
        )


def test_random_graph_distinct_seeds_differ():
    m = random_model(8)
    a = random_graph(m, 1, 30)
    b = random_graph(m, 2, 30)
    assert not graphs_equal(a, b) or dump_model(m) == ""  # tiny models may collide


def test_fnv_reference_vectors():
    assert fnv1a64_reference(b"") == "cbf29ce484222325"
    assert fnv1a64_reference(b"a") == "af63dc4c8601ec8c"
    assert fnv1a64_reference(b"foobar") == "85944171f73967e8"
