"""Untraced end-to-end phases: CLI reps in child processes and txn epochs.

A CLI rep runs the real ``transodb`` command line four times, one child
at a time: import into a fresh store, export, migrate file:->file:, and
export of the migrated store after its ``index.idx`` is deleted. Each
child is timed from spawn to reap (interpreter start included) and its
peak memory is that child's own ``ru_maxrss`` from ``os.wait4``.

A txn epoch drives the public ``FileStore`` API the way the README's
library tour does: a fresh copy of a preloaded store, a stream of small
transactions (puts then commit) with point reads between them, then
close, reopen and a read-back of every committed record.

Every output is checked; a non-zero exit or a mismatch counts as a failed
operation and never as a timing.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from transodb import FileStore, ObjectRecord, Oid, TransodbError
from transodb.model import ClassModel

from workloads import Txn


@dataclass
class Ops:
    """Operations attempted and failed in a run, with the first failures."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a false ``ok`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


@dataclass(frozen=True)
class Child:
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes


class Launcher:
    """Runs CLI children through the small helper in ``launcher.py`` so
    that each child's ``ru_maxrss`` is its own (see that module)."""

    def __init__(self, src_dir: Path):
        self.env = {k: v for k, v in os.environ.items() if k != "TRANSODB_NO_LOCK"}
        self.env["PYTHONPATH"] = str(src_dir)
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], workdir: Path, deadline: float) -> Child:
        """Run ``python argv`` to completion. stdout and stderr go to files
        in ``workdir``. A child still running at ``deadline`` (a
        ``time.monotonic`` value) is killed and reported as failed."""
        out_path, err_path = workdir / "child.out", workdir / "child.err"
        request = {
            "argv": [sys.executable, *argv], "env": self.env,
            "stdout": str(out_path), "stderr": str(err_path),
            "timeout_s": deadline - time.monotonic(),
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher helper exited")
        reply = json.loads(line)
        code = reply["exit_code"]
        if code != 0:
            tail = err_path.read_text(errors="replace")[-500:]
            sys.stderr.write(f"child {argv[2:4]} exited {code}: {tail}\n")
        # ru_maxrss is in KiB on Linux
        return Child(reply["wall_s"], reply["maxrss_kb"] / 1024.0, code, out_path.read_bytes())

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def cli(*args: str) -> list[str]:
    return ["-m", "transodb.cli", *args]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def fsync_tree(root: Path) -> None:
    """fsync every regular file under ``root``. Done between timed steps,
    so that no step pays for flushing what an earlier one wrote."""
    for path in root.rglob("*"):
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())


def copy_durably(src: Path, dst: Path) -> None:
    shutil.copytree(src, dst)
    fsync_tree(dst)


@dataclass
class CliRep:
    import_s: float
    export_s: float
    migrate_s: float
    recover_export_s: float
    import_rss_mb: float
    export_rss_mb: float
    migrate_rss_mb: float
    store_space_ratio: float


def cli_rep(
    xsd: Path, doc: Path, doc_sha: str, n_records: int, workdir: Path,
    launcher: Launcher, deadline: float, ops: Ops, between: Callable[[], None] = lambda: None,
) -> CliRep:
    """One import -> export -> migrate -> export-after-index-loss sequence
    in fresh store directories under ``workdir``, calling ``between()``
    after each child."""
    src, dst = workdir / "src-store", workdir / "dst-store"
    out1, out2 = workdir / "export.odbx", workdir / "recovered.odbx"
    count_line = f"{n_records} records\n".encode()

    def run(*args: str) -> Child:
        child = launcher.run(cli(*args, "--schema", str(xsd)), workdir, deadline)
        fsync_tree(workdir)
        between()
        return child

    imp = run("import", "--in", str(doc), "--store", str(src))
    ops.check(imp.exit_code == 0 and imp.stdout == count_line, f"import exit {imp.exit_code}")
    space = dir_bytes(src) / doc.stat().st_size

    exp = run("export", "--store", str(src), "--out", str(out1))
    ops.check(exp.exit_code == 0 and sha256_file(out1) == doc_sha, f"export exit {exp.exit_code} or bytes differ")

    mig = run("migrate", "--from", f"file:{src}", "--to", f"file:{dst}")
    ops.check(mig.exit_code == 0 and mig.stdout == count_line, f"migrate exit {mig.exit_code}")

    # Exporting the migrated store both checks the migrate target byte for
    # byte and, with its index gone, times the rebuild from the log.
    (dst / FileStore.INDEX_FILE).unlink(missing_ok=True)
    rec = run("export", "--store", str(dst), "--out", str(out2))
    ops.check(rec.exit_code == 0 and sha256_file(out2) == doc_sha, f"recover export exit {rec.exit_code} or bytes differ")

    for path in (src, dst):
        shutil.rmtree(path, ignore_errors=True)
    for path in (out1, out2):
        path.unlink(missing_ok=True)
    return CliRep(imp.wall_s, exp.wall_s, mig.wall_s, rec.wall_s,
                  imp.rss_mb, exp.rss_mb, mig.rss_mb, space)


def process_wchar() -> int:
    """Bytes this process has passed to write-like syscalls so far."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


@dataclass
class Epoch:
    commit_ms: list[float]
    get_us: list[float]
    loop_s: float
    wchar: int


def txn_epoch(
    preloaded: Path, store_dir: Path, model: ClassModel, stream: list[Txn],
    expected: dict[str, ObjectRecord], preload_count: int, warmup: list[Oid], ops: Ops,
) -> Epoch:
    """Run ``stream`` against a fresh copy of the closed store ``preloaded``.

    The stored records in ``warmup`` are read first, untimed, so that the
    timed calls see a warm store (per-class layout caches filled) rather
    than a just-opened one. Commit latency covers a transaction's puts
    plus its commit; each get is timed on its own. Reads are checked
    against what was put."""
    copy_durably(preloaded, store_dir)
    commit_ms: list[float] = []
    get_us: list[float] = []
    perf = time.perf_counter
    store = FileStore(store_dir, model, create=False)
    try:
        for oid in warmup:
            ops.check(store.get(oid) == expected[oid.token], f"warm-up get {oid.token}")
        w0 = process_wchar()
        start = perf()
        for txn in stream:
            t0 = perf()
            try:
                for record in txn.records:
                    store.put(record)
                store.commit()
            except (TransodbError, OSError) as exc:
                ops.check(False, f"txn failed: {exc}")
                continue
            commit_ms.append((perf() - t0) * 1e3)
            ops.check(True, "txn")
            for oid in txn.gets:
                t0 = perf()
                got = store.get(oid)
                get_us.append((perf() - t0) * 1e6)
                ops.check(got == expected[oid.token], f"get {oid.token} returned a different record")
        loop_s = perf() - start
        wchar = process_wchar() - w0
    finally:
        store.close()
    verify_store(store_dir, model, [r for txn in stream for r in txn.records],
                 preload_count, ops)
    shutil.rmtree(store_dir, ignore_errors=True)
    return Epoch(commit_ms, get_us, loop_s, wchar)


def verify_store(
    store_dir: Path, model: ClassModel, committed: list[ObjectRecord],
    preload_count: int, ops: Ops,
) -> None:
    """Reopen a closed store and read back every record in ``committed``;
    each one missing or different is a failed operation, and so is a
    record count other than ``preload_count + len(committed)``."""
    store = FileStore(store_dir, model, create=False)
    try:
        for record in committed:
            got = store.get(record.oid)
            ops.check(got == record, f"committed {record.oid.token} missing or different after reopen")
        ops.check(store.count() == preload_count + len(committed), "record count after reopen")
    finally:
        store.close()
