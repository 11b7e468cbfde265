"""Benchmark harness over the bundled reference schema: a seeded workload
(synthesize_graph), export/import timing and the verbose-baseline size."""

from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ModelMismatchError
from .graph import ObjectGraph, build_graph
from .model import ClassModel
from .objectxml import ObjectRecord, Oid, Value, write_canonical, write_verbose
from .store import FileStore, import_document
from .xsd import parse_schema

BENCH_MODEL_NAME = "bench"


@dataclass(frozen=True)
class BenchRow:
    n_objects: int
    canonical_bytes: int
    verbose_bytes: int
    export_ms: float
    import_ms: float


TSV_HEADER = "n\tcanonical_bytes\tverbose_bytes\texport_ms\timport_ms"


def bench_model() -> ClassModel:
    """The bundled reference schema (Person / Employee)."""
    data = resources.files("transodb").joinpath("bench_schema.xsd").read_bytes()
    model, diagnostics = parse_schema(data, BENCH_MODEL_NAME)
    if model is None:
        raise RuntimeError(
            "bundled benchmark schema failed to parse: "
            + "; ".join(str(d) for d in diagnostics)
        )
    return model


def measure(graph: ObjectGraph, model: ClassModel, workdir: Path) -> BenchRow:
    """One timed export+import pipeline run over an already-built graph.

    Canonical bytes count the two-file representation (schema plus data);
    verbose bytes count all four baseline files.
    """
    t0 = time.perf_counter()
    data = write_canonical(graph.records.values(), model)
    export_ms = (time.perf_counter() - t0) * 1000.0

    store_dir = workdir / f"store-{len(graph.records)}-{time.monotonic_ns()}"
    store = FileStore(store_dir, model)
    try:
        t0 = time.perf_counter()
        import_document(data, model, store)
        import_ms = (time.perf_counter() - t0) * 1000.0
    finally:
        store.close()

    verbose = write_verbose(graph.records.values(), model)
    canonical_bytes = len(data) + len(model.schema_xsd)
    verbose_bytes = sum(len(body) for body in verbose.values())
    row = BenchRow(len(graph.records), canonical_bytes, verbose_bytes, export_ms, import_ms)
    if row.n_objects >= 1 and row.verbose_bytes <= row.canonical_bytes:
        raise AssertionError("verbose baseline must out-weigh the canonical form")
    return row


class Lcg:
    """64-bit linear-congruential generator (modulus 2**64) used by the
    synthetic workload so byte counts stay reproducible everywhere."""

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next(self) -> int:
        self.state = (self.state * self.MULTIPLIER + self.INCREMENT) & self.MASK
        return self.state

    def below(self, bound: int) -> int:
        return self.next() % bound

    def chance(self, percent: int) -> bool:
        return self.below(100) < percent


_STRING_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _.-"
_MARKUP_CHARS = '&<>"'


def _random_string(rng: Lcg) -> str:
    length = 1 + rng.below(32)
    chars = [_STRING_ALPHABET[rng.below(len(_STRING_ALPHABET))] for _ in range(length)]
    if rng.chance(10):
        chars[rng.below(length)] = _MARKUP_CHARS[rng.below(len(_MARKUP_CHARS))]
    return "".join(chars)


def synthesize_graph(model: ClassModel, seed: int, n: int) -> ObjectGraph:
    """Deterministic benchmark workload over the bundled reference schema.

    Produces exactly n records with OIDs o0..o(n-1); every reference points
    at an earlier-or-equal index, so the result is closed by construction.
    """
    for required in ("Person", "Employee"):
        if required not in model.classes:
            raise ModelMismatchError(
                f"benchmark workload needs class {required!r}; model lacks it"
            )
    rng = Lcg(seed)
    records: dict[Oid, ObjectRecord] = {}
    employees: list[int] = []

    for i in range(n):
        is_employee = rng.chance(50)
        values: dict[str, Value] = {
            "name": _random_string(rng),
            "age": rng.below(100),
        }
        if rng.chance(60):
            values["email"] = _random_string(rng)
        if rng.chance(50):
            values["spouse"] = Oid(f"o{rng.below(i + 1)}")
        friends = [Oid(f"o{rng.below(i + 1)}") for _ in range(rng.below(4))]
        if friends:
            values["friends"] = friends
        class_name = "Person"
        if is_employee:
            class_name = "Employee"
            values["salary"] = rng.below(10_000_000) / 100.0
            employees.append(i)
            if rng.chance(50):
                values["manager"] = Oid(f"o{employees[rng.below(len(employees))]}")
        oid = Oid(f"o{i}")
        records[oid] = ObjectRecord(class_name, oid, values)

    return build_graph(records.values(), model)


def run_bench(model: ClassModel, sizes: list[int], seed: int, workdir: Path) -> list[BenchRow]:
    return [measure(synthesize_graph(model, seed, n), model, workdir) for n in sizes]


def rows_to_tsv(rows: list[BenchRow]) -> str:
    lines = [TSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.n_objects}\t{row.canonical_bytes}\t{row.verbose_bytes}"
            f"\t{row.export_ms:.3f}\t{row.import_ms:.3f}"
        )
    return "\n".join(lines) + "\n"


def materialize_comparison(
    outdir: Path, model: ClassModel, graph: ObjectGraph
) -> tuple[list[Path], list[Path]]:
    """Write both representations to disk and return their file lists.

    The canonical side is exactly two files (one .xsd, one .odbx); the
    baseline side is the four legacy files under verbose/.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    xsd_path = outdir / f"{model.name}.xsd"
    data_path = outdir / f"{model.name}.odbx"
    xsd_path.write_bytes(model.schema_xsd)
    data_path.write_bytes(write_canonical(graph.records.values(), model))

    verbose_dir = outdir / "verbose"
    verbose_dir.mkdir(exist_ok=True)
    verbose_paths = []
    for name, body in write_verbose(graph.records.values(), model).items():
        path = verbose_dir / name
        path.write_bytes(body)
        verbose_paths.append(path)
    return [xsd_path, data_path], verbose_paths
