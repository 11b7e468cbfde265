"""Fast checks of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import time
from itertools import chain
from pathlib import Path

import pytest

import run  # noqa: F401  (puts this checkout's src first on sys.path)
from endtoend import Launcher, Ops, cli_rep, verify_store
from transodb import (
    FileStore, build_graph, import_document, parse_schema, synthesize_graph, write_canonical,
)
from transodb.bench import bench_model
from workloads import BenchRecords, WideRecords, Workload, txn_stream, wide_schema_xsd

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = Workload("tiny", "bench", 60, 40)


@pytest.fixture
def launcher():
    helper = Launcher(run.SRC)
    yield helper
    helper.close()


@pytest.mark.parametrize("seed", [1, 42])
def test_bench_records_reproduce_synthesize_graph(seed):
    model = bench_model()
    source = BenchRecords(seed)
    ours = [source.next() for _ in range(400)]
    theirs = synthesize_graph(model, seed, 400).records.values()
    assert write_canonical(ours, model) == write_canonical(theirs, model)


def test_wide_records_are_closed_and_type_correct():
    model, diagnostics = parse_schema(wide_schema_xsd(), "wide")
    assert model is not None, diagnostics
    assert len(model.classes) == 401
    source = WideRecords(3)
    records = [source.next() for _ in range(300)]
    build_graph(records, model)  # raises on a dangling or mistyped reference
    kinds = {type(v).__name__ for r in records for v in r.values.values()}
    assert kinds == {"str", "int", "float", "bool", "list", "Oid"}


def test_txn_stream_is_seeded_and_closed():
    def make(seed):
        source = BenchRecords(seed)
        preload = [source.next() for _ in range(50)]
        return preload, txn_stream(iter(source.next, None), 50, 30, seed)

    preload, stream = make(5)
    assert [t.records for t in stream] == [t.records for t in make(5)[1]]
    assert all(1 <= len(t.records) <= 8 and len(t.gets) == 4 for t in stream)
    build_graph(chain(preload, (r for t in stream for r in t.records)), bench_model())
    stored = 50
    for txn in stream:
        stored += len(txn.records)
        assert all(int(oid.token[1:]) < stored for oid in txn.gets)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(tmp_path, trace, section):
    metrics, _, ops = run.run_workload(TINY, 7, 0.1, trace, tmp_path, tmp_path / "spans.tsv.gz")
    assert set(metrics) == {m["name"] for m in SPEC[section]}
    assert ops.failed == 0 and ops.attempted > 0, ops.errors
    assert all(v > 0 for k, v in metrics.items() if k in {m["name"] for m in SPEC["end_to_end"]})


def _tiny_document(tmp_path):
    model, _ = parse_schema((run.SRC / "transodb" / "bench_schema.xsd").read_bytes(), "bench")
    source = BenchRecords(9)
    records = [source.next() for _ in range(30)]
    xsd = tmp_path / "bench.xsd"
    xsd.write_bytes((run.SRC / "transodb" / "bench_schema.xsd").read_bytes())
    return model, records, xsd, write_canonical(records, model)


def test_flipped_document_byte_is_a_failed_operation(tmp_path, launcher):
    model, records, xsd, data = _tiny_document(tmp_path)
    deadline = time.monotonic() + 60
    doc = tmp_path / "data.odbx"
    doc.write_bytes(data)
    good = Ops()
    cli_rep(xsd, doc, hashlib.sha256(data).hexdigest(), len(records), tmp_path, launcher, deadline, good)
    assert (good.attempted, good.failed) == (4, 0), good.errors

    at = data.index(b"<name>") + len(b"<name>")
    while not data[at:at + 1].isalnum():
        at += 1
    flipped = data[:at] + (b"x" if data[at:at + 1] != b"x" else b"y") + data[at + 1:]
    doc.write_bytes(flipped)
    bad = Ops()
    rep = cli_rep(xsd, doc, hashlib.sha256(data).hexdigest(), len(records), tmp_path, launcher,
                  deadline, bad)
    # import and migrate succeed; both exports differ from the expected bytes
    assert (bad.attempted, bad.failed) == (4, 2), bad.errors
    assert rep.import_s > 0


def test_deleted_committed_record_is_a_failed_operation(tmp_path):
    model, records, _, data = _tiny_document(tmp_path)
    preload, committed = records[:20], records[20:]
    store_dir = tmp_path / "store"
    with FileStore(store_dir, model) as store:
        import_document(write_canonical(preload, model), model, store)
        for record in committed:
            store.put(record)
        store.commit()

    intact = Ops()
    verify_store(store_dir, model, committed, len(preload), intact)
    assert intact.failed == 0 and intact.attempted == len(committed) + 1

    log = store_dir / FileStore.LOG_FILE
    lines = log.read_bytes().splitlines(keepends=True)
    victim = f' id="{committed[3].oid.token}"'.encode()
    log.write_bytes(b"".join(line for line in lines if victim not in line))
    (store_dir / FileStore.INDEX_FILE).unlink()
    damaged = Ops()
    verify_store(store_dir, model, committed, len(preload), damaged)
    # the missing record, and the record count
    assert damaged.failed == 2, damaged.errors


def test_launcher_reports_exit_codes_and_kills_at_deadline(tmp_path, launcher):
    failed = launcher.run(["-c", "import sys; sys.exit(3)"], tmp_path, time.monotonic() + 30)
    assert failed.exit_code == 3
    hung = launcher.run(["-c", "import time; time.sleep(30)"], tmp_path, time.monotonic() + 0.5)
    assert hung.exit_code != 0 and hung.wall_s < 10
