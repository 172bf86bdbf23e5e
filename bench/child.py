"""One measured repetition, in a fresh process.

The library keeps module-level caches (dimensions._dim and the excited
caches), so every repetition runs in its own process: a second call in
the same process would read warm caches and measure a different program
from the one a `hookchar verify` user runs.

Prints one JSON object on stdout.  Exit status 3 means hookchar could
not be imported from the checkout's src directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

NO_PACKAGE = 3


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--cpu", type=int, help="pin this process to one CPU")
    p.add_argument("--sweep")
    p.add_argument("--n", type=int)
    p.add_argument("--queries", choices=("full", "smoke"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", type=Path, help="write every span here")
    p.add_argument("--fault", choices=("flip", "route"), help="inject one failure")
    return p.parse_args(argv)


def _import_hookchar(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import hookchar
        from hookchar import cli
    except ImportError as exc:
        print(f"cannot import hookchar from {src}: {exc}", file=sys.stderr)
        sys.exit(NO_PACKAGE)
    if not Path(hookchar.__file__).resolve().is_relative_to(src):
        print(f"hookchar was imported from {hookchar.__file__}, not {src}", file=sys.stderr)
        sys.exit(NO_PACKAGE)
    return cli


def _file_facts(path: Path) -> tuple[str, int, int]:
    """sha256, data rows (lines after the header) and bytes, read in chunks."""
    digest = hashlib.sha256()
    lines = 0
    size = 0
    with open(path, "rb") as stream:
        while chunk := stream.read(1 << 20):
            digest.update(chunk)
            lines += chunk.count(b"\n")
            size += len(chunk)
    return digest.hexdigest(), lines - 1, size


def _flip_byte(path: Path) -> None:
    with open(path, "r+b") as stream:
        stream.seek(path.stat().st_size // 2)
        byte = stream.read(1)
        stream.seek(-1, io.SEEK_CUR)
        stream.write(bytes([byte[0] ^ 1]))


def _run_sweep(cli, args, out: dict) -> None:
    budget = args.work / "budget.cfg"
    budget.write_text(f"{args.sweep} = {args.n}\n")
    target = args.work / "out.csv"
    argv = ["verify", args.sweep, "--n", str(args.n), "--config", str(budget), "--out", str(target)]
    out["setup_s"] = time.monotonic() - args.spawned

    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        out["rc"] = cli.main(argv)
        out["wall_s"] = time.perf_counter() - t0

    written = sorted(args.work.glob("out*.csv"))
    if args.fault == "flip" and written:
        _flip_byte(written[0])
    out["digests"] = {}
    out["rows"] = out["bytes"] = 0
    for path in written:
        digest, rows, size = _file_facts(path)
        out["digests"][path.name] = digest
        out["rows"] += rows
        out["bytes"] += size
        path.unlink()


def _run_queries(args, out: dict) -> None:
    # imported only now, so that it binds the traced functions when tracing
    import queries

    batch = queries.make_queries(args.seed, queries.FULL if args.queries == "full" else queries.SMOKE)
    out["setup_s"] = time.monotonic() - args.spawned

    latencies = []
    answers = []
    failures = []
    t0 = time.perf_counter()
    for index, query in enumerate(batch):
        got = []
        for route in (query.primary, query.second):
            start = time.perf_counter()
            try:
                got.append(queries.answer(route))
            except Exception as exc:  # any exception is a failed query, not a crash
                got.append(f"{type(exc).__name__}: {exc}")
            latencies.append((time.perf_counter() - start) * 1e3)
        first, second = got
        if args.fault == "route" and index == 0:
            second += 1
        if first != second or isinstance(first, str):
            failures.append(f"{query.kind} {query.text}: {first} != {second}")
        answers.append(first)
    out["wall_s"] = time.perf_counter() - t0

    out["queries"] = len(batch)
    out["failures"] = failures
    out["latencies_ms"] = latencies
    out["answers_sha256"] = hashlib.sha256(
        "\n".join(map(str, answers)).encode()
    ).hexdigest()


def main(argv=None) -> int:
    args = _parse(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    cli = _import_hookchar(args.root)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    out: dict = {}
    if args.sweep:
        _run_sweep(cli, args, out)
    else:
        _run_queries(args, out)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer is not None:
        out["layers"] = tracer.summary()
        out["enumerate"] = {"created": tracer.created, "yielded": tracer.yielded}
        out["caches"] = tracing.cache_counters()
        if args.spans:
            tracer.write(args.spans)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
