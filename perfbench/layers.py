"""Traced run: per-layer times of the modules cli, xsd, model, objectxml,
graph and store, on the workload's own inputs.

Import, export and migrate are rebuilt here from public calls, with a span
around each call, so each span's self time belongs to one module:

- import: ``read_canonical`` with a sink that spans ``FileStore.put`` and
  ``iter_refs``, then ``contains`` for every referenced OID, then ``commit``;
- export: ``scan`` stepped under spans, plus ``CanonicalWriter.record``;
- migrate: ``scan``, then ``put``, ``iter_refs``, ``contains`` and ``commit``.

The rebuilt operations must leave the same store files and output bytes as
``import_document``/``export_to``/``migrate``, which run untraced beside
them; the difference in wall time between the two is the tracing overhead.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import io
import shutil
import statistics
import time
import tracemalloc
from pathlib import Path

from transodb import (
    FileStore, MemStore, Oid, build_graph, dump_model, emit_schema, export_to, import_document,
    migrate, parse_schema, read_canonical, schema_hash, validate_record, write_canonical,
)
from transodb.model import LayoutIndex
from transodb.objectxml import CanonicalWriter, format_record, iter_refs, parse_record_line

import endtoend
from spans import Tracer

MICRO_REPS = 5  # calls per schema-level micro timing; the median is reported
STARTUP_REPS = 5
OPEN_REPS = 3
PARSE_LINE_SAMPLE = 10_000  # records decoded one line at a time


def _median_call(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def _store_files(path: Path) -> dict[str, bytes]:
    return {name: (path / name).read_bytes() for name in (FileStore.LOG_FILE, FileStore.INDEX_FILE)}


def traced_import(tracer: Tracer, doc: bytes, model, store) -> None:
    layouts = LayoutIndex(model)
    pending: set[str] = set()
    begin, finish = tracer.begin, tracer.finish

    def sink(record):
        i = begin("store.put")
        store.put(record)
        finish(i)
        i = begin("objectxml.iter_refs")
        for _, _, target in iter_refs(record, layouts):
            pending.add(target.token)
        finish(i)

    root = begin("bench.import")
    with tracer.span("objectxml.read_canonical"):
        read_canonical(doc, model, sink)
    _close_and_commit(tracer, store, pending)
    finish(root)


def _close_and_commit(tracer: Tracer, store, pending: set[str]) -> None:
    missing = []
    for token in sorted(pending):
        i = tracer.begin("store.contains")
        present = store.contains(Oid(token))
        tracer.finish(i)
        if not present:
            missing.append(token)
    if missing:
        raise RuntimeError(f"traced ingest found {len(missing)} dangling references")
    with tracer.span("store.commit"):
        store.commit()


def traced_export(tracer: Tracer, store, model) -> bytes:
    begin, finish = tracer.begin, tracer.finish
    out = io.BytesIO()
    root = begin("bench.export")
    writer = CanonicalWriter(model, out)
    with tracer.span("objectxml.CanonicalWriter.begin"):
        writer.begin()
    records = store.scan()
    while True:
        i = begin("store.scan")
        record = next(records, None)
        finish(i)
        if record is None:
            break
        i = begin("objectxml.CanonicalWriter.record")
        writer.record(record)
        finish(i)
    with tracer.span("objectxml.CanonicalWriter.end"):
        writer.end()
    finish(root)
    return out.getvalue()


def traced_migrate(tracer: Tracer, src, dst, model) -> None:
    layouts = LayoutIndex(model)
    pending: set[str] = set()
    begin, finish = tracer.begin, tracer.finish
    root = begin("bench.migrate")
    records = src.scan()
    while True:
        i = begin("store.scan")
        record = next(records, None)
        finish(i)
        if record is None:
            break
        i = begin("store.put")
        dst.put(record)
        finish(i)
        i = begin("objectxml.iter_refs")
        for _, _, target in iter_refs(record, layouts):
            pending.add(target.token)
        finish(i)
    _close_and_commit(tracer, dst, pending)
    finish(root)


def traced_txns(tracer: Tracer, inputs, store_dir: Path, ops: endtoend.Ops) -> int:
    """One epoch's transactions on a fresh copy of the preloaded store;
    returns the index bytes written by their commits."""
    endtoend.copy_durably(inputs.preloaded, store_dir)
    stream = inputs.stream
    index_path = store_dir / FileStore.INDEX_FILE
    index_written = 0
    begin, finish = tracer.begin, tracer.finish
    with FileStore(store_dir, inputs.model, create=False) as store:
        for oid in inputs.warmup:
            ops.check(store.get(oid) == inputs.expected[oid.token], f"warm-up get {oid.token}")
        for txn in stream:
            root = begin("bench.txn")
            for record in txn.records:
                i = begin("store.put")
                store.put(record)
                finish(i)
            with tracer.span("store.commit"):
                store.commit()
            finish(root)
            index_written += index_path.stat().st_size
            for oid in txn.gets:
                root = begin("bench.get")
                i = begin("store.get")
                got = store.get(oid)
                finish(i)
                finish(root)
                ops.check(got == inputs.expected[oid.token], f"traced get {oid.token}")
    endtoend.verify_store(store_dir, inputs.model, [r for t in stream for r in t.records],
                          inputs.workload.preload_records, ops)
    return index_written


def one_pass(inputs, tracer: Tracer, workdir: Path, launcher: endtoend.Launcher, deadline: float,
             ops: endtoend.Ops) -> dict[str, float]:
    model, records = inputs.model, inputs.bulk
    doc = inputs.doc.read_bytes()
    xsd = inputs.xsd.read_bytes()
    layouts = LayoutIndex(model)
    m: dict[str, float] = {"objectxml.records": len(records), "objectxml.doc_bytes": len(doc)}

    # cli: interpreter start, imports and one schema parse, as every command pays
    startups = []
    for _ in range(STARTUP_REPS):
        child = launcher.run(endtoend.cli("schema", str(inputs.xsd)), workdir, deadline)
        ops.check(child.exit_code == 0, "schema command")
        startups.append(child.wall_s)
    m["cli.startup_s"] = statistics.median(startups)

    # xsd, model: fixed per-command costs that grow with the schema
    m["xsd.parse_schema_ms"] = 1e3 * _median_call(lambda: parse_schema(xsd, inputs.xsd.stem), MICRO_REPS)
    m["xsd.emit_schema_ms"] = 1e3 * _median_call(lambda: emit_schema(model), MICRO_REPS)
    m["model.dump_model_ms"] = 1e3 * _median_call(lambda: dump_model(model), MICRO_REPS)
    m["objectxml.schema_hash_ms"] = 1e3 * _median_call(lambda: schema_hash(model), MICRO_REPS)

    # objectxml: whole-document and per-record codec work
    m["objectxml.read_canonical_s"], _ = _timed(lambda: read_canonical(doc, model, lambda r: None))
    m["objectxml.write_canonical_s"], written = _timed(lambda: write_canonical(records, model))
    ops.check(written == doc, "write_canonical reproduces the document")
    t, _ = _timed(lambda: [validate_record(r, model, layouts) for r in records])
    m["objectxml.validate_record_us"] = 1e6 * t / len(records)
    t, lines = _timed(lambda: [format_record(r, layouts) for r in records])
    m["objectxml.format_record_us"] = 1e6 * t / len(records)
    sample = lines[:PARSE_LINE_SAMPLE]
    t, parsed = _timed(lambda: [parse_record_line(line, model, layouts) for line in sample])
    m["objectxml.parse_record_line_us"] = 1e6 * t / len(sample)
    ops.check(parsed == records[: len(sample)], "parse_record_line round trip")
    del lines, parsed

    # graph: closure and reference-type check over the whole document
    m["graph.build_graph_s"], graph = _timed(lambda: build_graph(records, model))
    ops.check(len(graph) == len(records), "build_graph keeps every record")
    del graph

    # store: library paths untraced, then the same paths rebuilt under spans
    lib_dir, traced_dir = workdir / "lib", workdir / "traced"
    lib_mig, traced_mig = workdir / "lib-migrated", workdir / "traced-migrated"
    with FileStore(lib_dir, model) as store:
        m["store.import_document_s"], _ = _timed(lambda: import_document(doc, model, store))
    mem = MemStore(model)
    m["store.import_document_mem_s"], _ = _timed(lambda: import_document(doc, model, mem))
    with FileStore(traced_dir, model) as store:
        t, _ = _timed(lambda: traced_import(tracer, doc, model, store))
    overhead = t - m["store.import_document_s"]
    ops.check(_store_files(traced_dir) == _store_files(lib_dir), "traced import leaves the same store")
    m["store.log_bytes"] = (lib_dir / FileStore.LOG_FILE).stat().st_size
    m["store.index_bytes"] = (lib_dir / FileStore.INDEX_FILE).stat().st_size

    opens = []
    for _ in range(OPEN_REPS):
        t0 = time.perf_counter()
        FileStore(lib_dir, model, create=False).close()
        opens.append(time.perf_counter() - t0)
    m["store.open_s"] = statistics.median(opens)

    with FileStore(lib_dir, model, create=False) as store:
        out = io.BytesIO()
        m["store.export_to_s"], _ = _timed(lambda: export_to(store, model, out))
        ops.check(out.getvalue() == doc, "export_to reproduces the document")
        t, traced_doc = _timed(lambda: traced_export(tracer, store, model))
        overhead += t - m["store.export_to_s"]
        ops.check(traced_doc == doc, "traced export reproduces the document")
        with FileStore(lib_mig, model) as dst:
            m["store.migrate_s"], _ = _timed(lambda: migrate(store, dst, model))
        with FileStore(traced_mig, model) as dst:
            t, _ = _timed(lambda: traced_migrate(tracer, store, dst, model))
        overhead += t - m["store.migrate_s"]
        ops.check(_store_files(traced_mig) == _store_files(lib_mig), "traced migrate leaves the same store")
    out = io.BytesIO()
    m["store.export_to_mem_s"], _ = _timed(lambda: export_to(mem, model, out))
    ops.check(out.getvalue() == doc, "export_to from MemStore reproduces the document")
    del mem, out

    index_before = (lib_dir / FileStore.INDEX_FILE).read_bytes()
    (lib_dir / FileStore.INDEX_FILE).unlink()
    t0 = time.perf_counter()
    FileStore(lib_dir, model, create=False).close()
    m["store.rebuild_s"] = time.perf_counter() - t0
    ops.check((lib_dir / FileStore.INDEX_FILE).read_bytes() == index_before, "rebuilt index")

    peak_dir = workdir / "peak"
    with FileStore(peak_dir, model) as store:
        tracemalloc.start()
        try:
            import_document(doc, model, store)
            m["store.import_py_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    for path in (lib_dir, traced_dir, lib_mig, traced_mig, peak_dir):
        shutil.rmtree(path)

    m["store.index_bytes_written"] = traced_txns(tracer, inputs, workdir / "txn", ops)
    shutil.rmtree(workdir / "txn")

    lib_total = m["store.import_document_s"] + m["store.export_to_s"] + m["store.migrate_s"]
    m["trace.overhead_s"] = overhead
    m["trace.overhead_pct"] = 100.0 * overhead / lib_total
    return m


# Modules whose calls each traced request spans; "bench" is the
# benchmark's own share of a request.
SPANNED = {
    "import": ("objectxml", "store", "bench"),
    "export": ("objectxml", "store", "bench"),
    "migrate": ("objectxml", "store", "bench"),
    "txn": ("store", "bench"),
}


def span_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    m: dict[str, float] = {}
    for op, modules in SPANNED.items():
        by_module = tracer.self_by_module(f"bench.{op}")
        for module in modules:
            m[f"trace.{op}.{module}_self_s"] = by_module.get(module, 0) / 1e9 / passes
    m["store.put_us"] = statistics.median(tracer.durations("store.put", "bench.import")) / 1e3
    m["store.commit_ms"] = statistics.median(tracer.durations("store.commit", "bench.txn")) / 1e6
    m["store.get_us"] = statistics.median(tracer.durations("store.get", "bench.get")) / 1e3
    m["store.scan_s"] = sum(tracer.durations("store.scan", "bench.export")) / 1e9 / passes
    m["trace.spans"] = len(tracer) / passes
    return m


def traced_run(inputs, seconds: float, workdir: Path, launcher: endtoend.Launcher, deadline: float,
               ops: endtoend.Ops, spans_path: Path) -> tuple[dict, dict]:
    """Passes over every layer until ``seconds`` have gone (at least one);
    each metric is the median over passes."""
    tracer = Tracer()
    passes: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        pass_dir = workdir / f"pass{len(passes)}"
        pass_dir.mkdir()
        passes.append(one_pass(inputs, tracer, pass_dir, launcher, deadline, ops))
        shutil.rmtree(pass_dir)
        now = time.perf_counter()
        if now - start >= seconds or time.monotonic() + 2 * (now - pass_start) > deadline:
            break
    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    metrics.update(span_metrics(tracer, len(passes)))
    tracer.write(spans_path)
    return metrics, {"samples": {"passes": len(passes), "spans": len(tracer)},
                     "spans_file": spans_path.name}
