"""Command-line surface for the whole pipeline.

Commands: schema (inspect an XSD), export / import (move a store to and
from the canonical data document), migrate (store to store), bench (size
and timing table). Exit codes: 0 success, 1 domain or validation error,
2 I/O failure. Failing commands leave the filesystem as they found it,
but for one thing: the first open of a store written by an earlier
version adds an empty LOCK file, which stays.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .bench import bench_model, rows_to_tsv, run_bench
from .errors import TransodbError
from .model import ClassModel
from .store import FileStore, StoreAdapter, export_to, import_document, migrate
from .xsd import parse_schema

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


@contextmanager
def _store(spec: str, model: ClassModel, create: bool = False) -> Iterator[StoreAdapter]:
    """Open a store for the length of one command and close it after. If
    the command fails, a store directory this call created is removed."""
    path = Path(spec.removeprefix("file:"))
    created = create and not path.exists()
    try:
        with FileStore(path, model, create=create) as store:
            yield store
    except BaseException:
        if created:
            shutil.rmtree(path, ignore_errors=True)
        raise


def _write_atomically(path: str, produce) -> None:
    """produce(fileobj) writes the payload; publish via rename only on success."""
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as out:
            produce(out)
        os.replace(tmp_name, target)
    except BaseException:
        Path(tmp_name).unlink(missing_ok=True)
        raise


def cmd_schema(args) -> int:
    sys.stdout.write(args.model.dump)
    print(args.model.schema_hash)
    return EXIT_OK


def cmd_export(args) -> int:
    model = args.model
    with _store(args.store, model) as store:
        _write_atomically(args.out, lambda out: export_to(store, model, out))
    return EXIT_OK


def cmd_import(args) -> int:
    model = args.model
    data = Path(args.infile).read_bytes()
    with _store(args.store, model, create=True) as store:
        count = import_document(data, model, store)
    print(f"{count} records")
    return EXIT_OK


def cmd_migrate(args) -> int:
    model = args.model
    with _store(args.from_spec, model) as src, _store(args.to_spec, model, create=True) as dst:
        count = migrate(src, dst, model)
    print(f"{count} records")
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        print(f"error: bad --sizes value {args.sizes!r}", file=sys.stderr)
        return EXIT_DOMAIN
    model = bench_model()
    with tempfile.TemporaryDirectory(prefix="transodb-bench-") as workdir:
        rows = run_bench(model, sizes, args.seed, Path(workdir))
    tsv = rows_to_tsv(rows)
    if args.out:
        _write_atomically(args.out, lambda out: out.write(tsv.encode("utf-8")))
    else:
        sys.stdout.write(tsv)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transodb",
        description="Move object graphs between XML documents and object stores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schema", help="parse an XSD and print the class dump and hash")
    p.add_argument("schema", metavar="xsd")
    p.set_defaults(func=cmd_schema)

    p = sub.add_parser("export", help="write a store's content as a canonical document")
    p.add_argument("--schema", required=True)
    p.add_argument("--store", required=True, help="store directory or file:PATH")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("import", help="load a canonical document into a store")
    p.add_argument("--schema", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--store", required=True, help="store directory or file:PATH")
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("migrate", help="copy every record from one store into another")
    p.add_argument("--schema", required=True)
    p.add_argument("--from", dest="from_spec", required=True, help="store directory or file:PATH")
    p.add_argument("--to", dest="to_spec", required=True, help="store directory or file:PATH")
    p.set_defaults(func=cmd_migrate)

    p = sub.add_parser("bench", help="size and timing table over the bundled schema")
    p.add_argument("--sizes", default="", help="comma-separated object counts")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None, help="write the TSV here instead of stdout")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "schema" in args:  # every command but bench loads its model first
            path = Path(args.schema)
            args.model, diagnostics = parse_schema(path.read_bytes(), path.stem)
            for diag in diagnostics:
                print(str(diag), file=sys.stderr)
            if args.model is None:
                return EXIT_DOMAIN
        return args.func(args)
    except TransodbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
