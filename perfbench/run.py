"""transodb benchmark: one command per workload, result as one JSON line.

    python3 perfbench/run.py --workload bulk-small --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program under test is the
``src/transodb`` package of that checkout, run from source. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run (see README.md). The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run's metadata. Both also go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HARD_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_REPS = 3
MIN_ROUNDS = 4  # so every run commits at least 4 x 4 x TXNS_PER_EPOCH transactions


def _import_program():
    """Import transodb from this checkout's ``src`` and nowhere else."""
    if not (SRC / "transodb" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'transodb'} not found; run from a transodb source checkout")
    sys.path.insert(0, str(SRC))
    import transodb

    if Path(transodb.__file__).resolve().parent != (SRC / "transodb").resolve():
        sys.exit(f"error: imported transodb from {transodb.__file__}, not from {SRC}")


_import_program()

from transodb import FileStore, import_document, parse_schema, schema_hash, write_canonical  # noqa: E402
from transodb.objectxml import format_record  # noqa: E402
from transodb.model import ClassModel, LayoutIndex  # noqa: E402

import endtoend  # noqa: E402
from endtoend import Ops  # noqa: E402
from workloads import TXNS_PER_EPOCH, WORKLOADS, Workload, record_source, txn_stream, wide_schema_xsd  # noqa: E402


@dataclass
class Inputs:
    """Everything a run measures against, made from the seed."""

    workload: Workload
    model: ClassModel
    xsd: Path
    doc: Path
    doc_sha: str
    doc_bytes: int
    bulk: list  # records of the document, generation order
    preloaded: Path  # closed FileStore holding the first preload_records
    stream: list  # txn_stream(...) for one epoch
    expected: dict  # OID token -> record, preload and stream
    warmup: list  # OID of the first preloaded record of each class
    committed_line_bytes: int  # canonical line bytes one epoch commits


def prepare(workload: Workload, seed: int, setup_dir: Path, launcher: endtoend.Launcher,
            deadline: float, ops: Ops) -> Inputs:
    """Make every input of a run under ``setup_dir``, from the seed alone."""
    setup_dir.mkdir(parents=True)
    xsd = setup_dir / f"{workload.schema}.xsd"
    if workload.schema == "bench":
        shutil.copyfile(SRC / "transodb" / "bench_schema.xsd", xsd)
    else:
        xsd.write_text(wide_schema_xsd(), encoding="utf-8")
    # The CLI names a model after its schema file's stem; so must we, or
    # exported headers would differ from the generated document.
    model, diagnostics = parse_schema(xsd.read_bytes(), xsd.stem)
    if model is None:
        raise SystemExit("error: benchmark schema rejected: " + "; ".join(map(str, diagnostics)))

    # One record sequence serves both phases: the document is its first
    # bulk_records, the preloaded store its first preload_records, and the
    # transactions put the records that follow the preload.
    source = record_source(workload.schema, seed)
    records = [source.next() for _ in range(max(workload.bulk_records, workload.preload_records))]
    bulk, preload = records[: workload.bulk_records], records[: workload.preload_records]
    stream = txn_stream(chain(records[workload.preload_records:], iter(source.next, None)),
                        workload.preload_records, TXNS_PER_EPOCH, seed)

    data = write_canonical(bulk, model)
    doc = setup_dir / "data.odbx"
    doc.write_bytes(data)
    doc_sha = hashlib.sha256(data).hexdigest()

    preloaded = setup_dir / "preloaded"
    with FileStore(preloaded, model) as store:
        import_document(write_canonical(preload, model), model, store)

    layouts = LayoutIndex(model)
    txn_records = [r for txn in stream for r in txn.records]
    expected = {r.oid.token: r for r in preload}
    expected.update((r.oid.token, r) for r in txn_records)
    line_bytes = sum(len(format_record(r, layouts).encode("utf-8")) + 1 for r in txn_records)

    # First CLI start in a fresh checkout also compiles the package.
    child = launcher.run(endtoend.cli("schema", str(xsd)), setup_dir, deadline)
    ops.check(child.exit_code == 0 and child.stdout.endswith(f"{schema_hash(model)}\n".encode()),
              f"schema exit {child.exit_code} or wrong hash")
    warmup = list({r.class_name: r.oid for r in reversed(preload)}.values())
    return Inputs(workload, model, xsd, doc, doc_sha, len(data), bulk, preloaded, stream, expected,
                  warmup, line_bytes)


def set_up(workload: Workload, seed: int, workdir: Path, launcher: endtoend.Launcher,
           deadline: float, ops: Ops, reps: int) -> tuple[Inputs, list[float]]:
    """Set up ``reps`` times from nothing; keep the last inputs."""
    times = []
    for _ in range(reps):
        shutil.rmtree(workdir / "setup", ignore_errors=True)
        t0 = time.perf_counter()
        inputs = prepare(workload, seed, workdir / "setup", launcher, deadline, ops)
        times.append(time.perf_counter() - t0)
    return inputs, times


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between the closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(inputs: Inputs, seconds: float, workdir: Path, launcher: endtoend.Launcher,
            deadline: float, ops: Ops) -> tuple[dict, dict]:
    """Untraced run: rounds of one CLI rep with a txn epoch after each of
    its four children, so that both phases sample the whole run rather
    than one stretch of it. A round starts only if one more round of the
    last one's length fits in ``seconds``; every run makes at least
    MIN_ROUNDS rounds unless the hard deadline comes first."""
    w = inputs.workload
    reps: list[endtoend.CliRep] = []
    epochs: list[endtoend.Epoch] = []

    def epoch() -> None:
        epochs.append(endtoend.txn_epoch(
            inputs.preloaded, workdir / f"epoch{len(epochs)}", inputs.model, inputs.stream,
            inputs.expected, w.preload_records, inputs.warmup, ops))

    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rep_dir = workdir / f"rep{len(reps)}"
        rep_dir.mkdir()
        reps.append(endtoend.cli_rep(inputs.xsd, inputs.doc, inputs.doc_sha, w.bulk_records,
                                     rep_dir, launcher, deadline, ops, epoch))
        shutil.rmtree(rep_dir, ignore_errors=True)
        now = time.perf_counter()
        last = now - round_start
        if len(reps) >= MIN_ROUNDS and now - start + last > seconds:
            break
        if time.monotonic() + last > deadline:
            break

    metrics = {f.name: statistics.median(getattr(r, f.name) for r in reps)
               for f in fields(endtoend.CliRep)}
    commits = [x for e in epochs for x in e.commit_ms]
    gets = [x for e in epochs for x in e.get_us]
    metrics["txn_per_s"] = len(commits) / sum(e.loop_s for e in epochs)
    metrics["commit_p50_ms"] = statistics.median(commits)
    metrics["get_p50_us"] = statistics.median(gets)
    metrics["get_p99_us"] = quantile(gets, 99)
    metrics["write_amp"] = sum(e.wchar for e in epochs) / (len(epochs) * inputs.committed_line_bytes)
    samples = {"cli_reps": len(reps), "txn_epochs": len(epochs), "commits": len(commits), "gets": len(gets)}
    # Reported, not gated: see README.md on why the commit tail is too
    # unsteady between runs to carry a bound.
    tail = {"commit_p95_ms": quantile(commits, 95), "commit_p99_ms": quantile(commits, 99)}
    return metrics, {"samples": samples, "ungated": tail}


def run_workload(workload: Workload, seed: int, seconds: float, trace: int,
                 work_root: Path, spans_path: Path) -> tuple[dict, dict, Ops]:
    """Set up and run one workload in a fresh directory under ``work_root``;
    returns the metrics, the run's metadata and the operation counts."""
    deadline = time.monotonic() + HARD_LIMIT_S
    ops = Ops()
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    launcher = endtoend.Launcher(SRC)
    try:
        inputs, setup_times = set_up(workload, seed, workdir, launcher, deadline, ops,
                                     1 if trace else SETUP_REPS)
        # The inputs live for the whole run; keep the collector from
        # rescanning them inside timed library calls.
        gc.freeze()
        if trace:
            import layers

            metrics, meta = layers.traced_run(inputs, seconds, workdir, launcher, deadline, ops,
                                              spans_path)
        else:
            metrics, meta = measure(inputs, seconds, workdir, launcher, deadline, ops)
            metrics["setup_s"] = statistics.median(setup_times)
    finally:
        gc.unfreeze()
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    meta.update(doc_bytes=inputs.doc_bytes, setup_reps=len(setup_times))
    return metrics, meta, ops


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    metrics, run_meta, ops = run_workload(
        workload, args.seed, args.seconds, args.trace, BENCH_DIR / "work",
        out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz")

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"error: run produced no value for {missing}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "bulk_records": workload.bulk_records,
        "preload_records": workload.preload_records,
        "txns_per_epoch": TXNS_PER_EPOCH,
        **run_meta,
        "op_error_rate": ops.failed / ops.attempted,
        "errors": ops.errors,
        "wall_s": time.monotonic() - started,
    }
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units.get(name, '')}", file=sys.stderr)
    print(f"{'op_error_rate':32s} {meta['op_error_rate']:14.6g} ({ops.failed}/{ops.attempted})", file=sys.stderr)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
