"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Sizes and tolerances are
pinned here; nothing is deferred to later calibration.
"""

import os
import random
import statistics
import time
from contextlib import contextmanager

import pytest

from transodb import (
    DanglingRefError,
    DuplicateOidError,
    FileStore,
    MemStore,
    dump_model,
    emit_schema,
    export_store,
    import_document,
    migrate,
    parse_schema,
    schema_hash,
    synthesize_graph,
    write_canonical,
)
from transodb.bench import bench_model, materialize_comparison, run_bench
from transodb.conformance import (
    check_adapter_contract,
    fnv1a64_reference,
    random_graph,
    random_model,
)

from conftest import person, stream_through_file_store


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def test_round_trip_fidelity(tmp_path):
    """Export -> import -> export is byte-identical for 200 randomized
    (model, graph) pairs with graphs up to 2,000 records. Tolerance: exact."""
    with criterion("round-trip fidelity"):
        rng = random.Random(2024)
        for i in range(200):
            model = random_model(i)
            n = 2000 if i % 40 == 0 else rng.randint(0, 320)
            graph = random_graph(model, i, n)
            first = write_canonical(graph.records.values(), model)

            if i % 5 == 0:
                store = FileStore(tmp_path / f"rt{i}", model)
            else:
                store = MemStore(model)
            try:
                assert import_document(first, model, store) == n
                second = export_store(store, model)
            finally:
                store.close()
            assert second == first, f"pair {i} (n={n}) drifted"


def test_heterogeneous_migration(tmp_path):
    """Mem -> File -> Mem chains on 50 randomized graphs (<= 1,000 records)
    end byte-equal; collision and dangling injections abort with the
    destination provably unchanged. Tolerance: exact."""
    with criterion("heterogeneous migration"):
        rng = random.Random(77)
        for i in range(50):
            model = random_model(1000 + i)
            n = 1000 if i % 25 == 0 else rng.randint(0, 250)
            graph = random_graph(model, i, n)
            origin = write_canonical(graph.records.values(), model)

            mem1 = MemStore(model)
            import_document(origin, model, mem1)
            fs = FileStore(tmp_path / f"mig{i}", model)
            try:
                assert migrate(mem1, fs, model) == n
                mem2 = MemStore(model)
                assert migrate(fs, mem2, model) == n
            finally:
                fs.close()
            assert export_store(mem2, model) == origin, f"chain {i} drifted"

        # OID-collision injection: destination must be provably unchanged.
        model = random_model(42)
        graph = random_graph(model, 9, 50)
        src = MemStore(model)
        for record in graph.records.values():
            src.put(record)
        dst = FileStore(tmp_path / "collide", model)
        try:
            colliding = next(iter(graph.records.values()))
            dst.put(colliding)
            dst.commit()
            before = export_store(dst, model)
            with pytest.raises(DuplicateOidError):
                migrate(src, dst, model)
            assert export_store(dst, model) == before
        finally:
            dst.close()

        # dangling-ref injection via a handcrafted document
        fam_model = bench_model()
        dst = FileStore(tmp_path / "dangle", fam_model)
        try:
            seeded = synthesize_graph(fam_model, 3, 20)
            import_document(write_canonical(seeded.records.values(), fam_model), fam_model, dst)
            before = export_store(dst, fam_model)
            bad = write_canonical(
                [person("zz1", spouse=__import__("transodb").Oid("never"))], fam_model
            )
            with pytest.raises(DanglingRefError):
                import_document(bad, fam_model, dst)
            assert export_store(dst, fam_model) == before
        finally:
            dst.close()


@pytest.fixture(scope="module")
def size_rows(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench")
    return run_bench(bench_model(), [1000, 4000, 16000], 42, workdir)


def test_lightweight_format_ratio_threshold(size_rows):
    """canonical/verbose <= 0.5 on the bundled schema at n in
    {1,000, 4,000, 16,000} with seed 42."""
    with criterion("lightweight format: ratio <= 0.5"):
        for row in size_rows:
            ratio = row.canonical_bytes / row.verbose_bytes
            assert ratio <= 0.5, f"n={row.n_objects}: ratio {ratio:.4f}"


def test_lightweight_format_ratio_monotone(size_rows):
    """canonical/verbose is non-increasing in n.

    Expected to fail: the workload's OIDs are o0..o(n-1), so identifier
    digits grow with n, and the canonical form is proportionally denser in
    identifier digits than the metadata-heavy baseline; the ratio therefore
    creeps up by ~1% per quadrupling. See README "Known limitation" for the
    derivation. The assertion is kept strict rather than widened.
    """
    with criterion("lightweight format: ratio non-increasing"):
        ratios = [row.canonical_bytes / row.verbose_bytes for row in size_rows]
        for smaller, larger in zip(ratios, ratios[1:]):
            assert larger <= smaller, f"ratio increased: {smaller:.6f} -> {larger:.6f}"


def test_two_file_representation(tmp_path):
    """A full export is exactly one .xsd plus one .odbx; the baseline is
    exactly four files."""
    with criterion("two-file representation"):
        model = bench_model()
        graph = synthesize_graph(model, 42, 100)
        canonical, verbose = materialize_comparison(tmp_path / "cmp", model, graph)
        assert sorted(p.suffix for p in canonical) == [".odbx", ".xsd"]
        assert len(canonical) == 2
        assert sorted(p.name for p in verbose) == [
            "data.dtd",
            "data.xml",
            "schema.dtd",
            "schema.xml",
        ]
        top = [p for p in (tmp_path / "cmp").iterdir() if p.is_file()]
        assert len(top) == 2


def test_streaming_memory_bound(tmp_path):
    """Import and export of a 100,000-record graph move it record by record
    through a FileStore: with a bad record after the last one, the import
    puts all 100,000 records before it fails and then rolls back to an empty
    store; the export writes at most one line per write. A bound in bytes
    waits for chunked parsing."""
    with criterion("streaming memory"):
        model = bench_model()
        graph = synthesize_graph(model, 42, 100_000)
        doc = write_canonical(graph.records.values(), model)

        out = stream_through_file_store(doc, model, tmp_path / "big", len(graph.records))
        assert out == doc


def _export_import_cpu_ms(graph, model, directory) -> float:
    """CPU time of this process for one write_canonical plus one import
    into a fresh FileStore, the pair bench.measure times by wall clock."""
    store = FileStore(directory, model)
    try:
        t0 = time.process_time()
        import_document(write_canonical(graph.records.values(), model), model, store)
        return (time.process_time() - t0) * 1000.0
    finally:
        store.close()


def test_scaling_guard(tmp_path):
    """Export+import time satisfies t(2n) <= 3 t(n) + 50 ms for n doubling
    through 10k, 20k, 40k; median of 5 runs. Time is this process's CPU
    time, so another process sharing the CPU does not count against it.
    Each run times every size in turn, so a stretch where the machine runs
    slow falls on all sizes rather than on one."""
    with criterion("scaling guard"):
        model = bench_model()
        sizes = [10_000, 20_000, 40_000]
        graphs = {n: synthesize_graph(model, 42, n) for n in sizes}
        samples = {n: [] for n in sizes}
        for run in range(5):
            for n in sizes:
                samples[n].append(_export_import_cpu_ms(graphs[n], model, tmp_path / f"s{n}-{run}"))
        medians = {n: statistics.median(samples[n]) for n in sizes}
        for n in (10_000, 20_000):
            assert medians[2 * n] <= 3 * medians[n] + 50, (
                f"t({2*n})={medians[2*n]:.0f}ms vs 3*t({n})+50={3*medians[n]+50:.0f}ms"
            )


def test_schema_round_trip():
    """parse(emit(m)) reproduces the dump exactly for 200 randomized models;
    the empty dump hashes to cbf29ce484222325 against an independent
    implementation. Tolerance: exact."""
    with criterion("schema round-trip"):
        from transodb import ClassModel

        assert fnv1a64_reference(b"") == "cbf29ce484222325"
        assert schema_hash(ClassModel("any")) == "cbf29ce484222325"
        for seed in range(200):
            model = random_model(seed)
            reparsed, diags = parse_schema(emit_schema(model), model.name)
            assert reparsed is not None, f"seed {seed}: {diags}"
            assert dump_model(reparsed) == dump_model(model), f"seed {seed}"
            assert schema_hash(reparsed) == fnv1a64_reference(
                dump_model(model).encode("utf-8")
            )


def test_adapter_conformance(tmp_path):
    """Both backends pass the identical contract suite, including reopen
    persistence and index rebuild for the file backend."""
    with criterion("adapter conformance"):
        model = random_model(5)
        graph = random_graph(model, 21, 120)

        check_adapter_contract(lambda: MemStore(model), graph)

        counter = [0]

        def make_file():
            counter[0] += 1
            return FileStore(tmp_path / f"c{counter[0]}", model)

        def reopen(store):
            directory = store.directory
            store.close()
            return FileStore(directory, model)

        check_adapter_contract(make_file, graph, reopen=reopen)

        # index rebuild: deleting the index must not lose a byte
        store = FileStore(tmp_path / "rebuild", model)
        doc = write_canonical(graph.records.values(), model)
        import_document(doc, model, store)
        before = export_store(store, model)
        store.close()
        os.remove(tmp_path / "rebuild" / "index.idx")
        store = FileStore(tmp_path / "rebuild", model)
        try:
            assert export_store(store, model) == before
        finally:
            store.close()
