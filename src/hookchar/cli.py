"""Command-line entry point.

Exit status 0 on success, 1 when a hard bound is violated or an
internal consistency check trips, 2 on usage errors (including
malformed partitions and sweep sizes above budget), on I/O errors and
on inputs too deep to compute, and 130 on Ctrl-C.  A reader that closes
stdout early (as `| head` does) is not an error: the command stops and
exits 0 quietly.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import harness
from .characters import character_branching, character_mn, removable_ribbons
from .config import Config, load_config
from .decompositions import build_thick_hook_decomposition, stairs_decomposition
from .dimensions import SkewShape, dim_hlf, skew_dim_det, skew_dim_oracle
from .excited import enumerate_excited, excited_count, excited_sum, skew_dim_naruse
from .output import summary_lines, write_result, write_result_csv, write_result_json
from .partitions import parse_cycle_type, parse_partition
from .render import group_label, render_boxes, render_groups

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, help="write output to this path")
    common.add_argument("--config", type=Path, help="key=value configuration file")

    parser = argparse.ArgumentParser(
        prog="hookchar",
        description="Symmetric group characters, skew dimensions, and bound sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", parents=[common], help="dimension of a shape")
    p.add_argument("shape")
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser("skew-dim", parents=[common], help="skew dimension")
    p.add_argument("outer")
    p.add_argument("inner")
    p.add_argument(
        "--method", choices=("hlf", "oracle", "det", "naruse"), default="det"
    )
    p.set_defaults(handler=_cmd_skew_dim)

    p = sub.add_parser("excited", parents=[common], help="excited diagrams of mu in lambda")
    p.add_argument("outer")
    p.add_argument("inner")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true", help="print the family size")
    mode.add_argument("--list", action="store_true", help="render every diagram")
    mode.add_argument("--sum", action="store_true", help="print the hook-product sum")
    p.set_defaults(handler=_cmd_excited)

    p = sub.add_parser("decompose", parents=[common], help="thick hooks or stairs")
    p.add_argument("shape")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--thick-hooks", type=int, metavar="A", dest="thick_hooks")
    mode.add_argument("--stairs", action="store_true")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("char", parents=[common], help="irreducible character value")
    p.add_argument("shape")
    p.add_argument("cycle_type")
    p.add_argument("--method", choices=("mn", "branching"), default="mn")
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(handler=_cmd_char)

    p = sub.add_parser("ribbons", parents=[common], help="removable ribbons of one size")
    p.add_argument("shape")
    p.add_argument("size", type=int)
    p.add_argument("--list", action="store_true")
    p.set_defaults(handler=_cmd_ribbons)

    p = sub.add_parser("verify", parents=[common], help="run a verification sweep")
    p.add_argument("sweep", choices=harness.SWEEPS)
    p.add_argument(
        "--format", dest="fmt", choices=("csv", "json"), default="csv", help="output format"
    )
    p.add_argument("--n", type=int, help="sweep size (defaults to the budget cap)")
    p.add_argument(
        "--balanced",
        metavar="C",
        help="thm-main only: restrict to s(lambda) <= C*sqrt(n), drop the max factor",
    )
    p.set_defaults(handler=_cmd_verify)
    return parser


class _StdoutClosed(Exception):
    """The reader of stdout went away; raised in place of its BrokenPipeError."""


def _print(text: str) -> None:
    """Print and flush, so that a closed stdout shows here and not at exit."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        raise _StdoutClosed from None


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        _print(text)
    else:
        Path(out).write_text(text + "\n")


def _emit_listing(shape, items, cfg: Config, out: Path | None) -> None:
    """Each (boxes, note) as a numbered diagram of shape with boxes filled, blank lines between."""
    chunks = [
        f"{index}:{note}\n{render_boxes(shape, boxes, cfg.render)}"
        for index, (boxes, note) in enumerate(items, start=1)
    ]
    _emit("\n\n".join(chunks), out)


def _cmd_dim(args, cfg: Config) -> int:
    _emit(str(dim_hlf(parse_partition(args.shape))), args.out)
    return 0


def _cmd_skew_dim(args, cfg: Config) -> int:
    outer = parse_partition(args.outer)
    inner = parse_partition(args.inner)
    if args.method == "hlf":
        if len(inner) > 0:
            raise ValueError("--method hlf computes plain dimensions; inner must be []")
        value = dim_hlf(outer)
    elif args.method == "oracle":
        value = skew_dim_oracle(SkewShape(outer, inner), cap=cfg.oracle_cap)
    elif args.method == "naruse":
        value = skew_dim_naruse(outer, inner)
    else:
        value = skew_dim_det(SkewShape(outer, inner))
    _emit(str(value), args.out)
    return 0


def _cmd_excited(args, cfg: Config) -> int:
    outer = parse_partition(args.outer)
    inner = parse_partition(args.inner)
    if args.sum:
        _emit(str(excited_sum(outer, inner)), args.out)
    elif args.list:
        _emit_listing(outer, ((d.boxes, "") for d in enumerate_excited(outer, inner)), cfg, args.out)
    else:
        _emit(str(excited_count(outer, inner)), args.out)
    return 0


def _cmd_decompose(args, cfg: Config) -> int:
    shape = parse_partition(args.shape)
    if args.stairs:
        deco = stairs_decomposition(shape)
        header, noun = f"q={deco.q}", "line"
        items = [
            (x.boxes, f"{x.orientation}, length {x.length}, anchor ({x.anchor.row},{x.anchor.col})")
            for x in deco.lines
        ]
    else:
        deco = build_thick_hook_decomposition(shape, args.thick_hooks)
        header, noun = f"p={deco.p} a={deco.a} b={deco.b}", "hook"
        items = [(x.boxes, f"diagonals {x.j_lo}..{x.j_hi}, size {x.size}") for x in deco.hooks]
    groups = {box: index for index, (boxes, _) in enumerate(items, start=1) for box in boxes}
    lines = [render_groups(shape, groups, cfg.render), header]
    for index, (_, text) in enumerate(items, start=1):
        lines.append(f"{noun} {index} ({group_label(index)}): {text}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_char(args, cfg: Config) -> int:
    shape = parse_partition(args.shape)
    alpha = parse_cycle_type(args.cycle_type)
    compute = character_branching if args.method == "branching" else character_mn
    result = compute(shape, alpha)
    _emit(str(result.normalized if args.normalized else result.value), args.out)
    return 0


def _cmd_ribbons(args, cfg: Config) -> int:
    shape = parse_partition(args.shape)
    ribbons = removable_ribbons(shape, args.size)
    if not args.list:
        _emit(str(len(ribbons)), args.out)
        return 0
    _emit_listing(shape, ((ribbon.boxes, f" height {ribbon.height}") for ribbon in ribbons), cfg, args.out)
    return 0


def _run_sweep(args, cfg: Config) -> harness.SweepStream:
    """The sweep's stream; its arguments and budget are checked here, before any record."""
    name = args.sweep
    budget = cfg.budgets[name]
    n = budget if args.n is None else args.n
    if args.balanced is not None and name != "thm-main":
        raise ValueError("--balanced applies to thm-main only")
    try:
        extra = {} if args.balanced is None else {"balanced": Fraction(args.balanced)}
    except ZeroDivisionError:
        raise ValueError(f"--balanced {args.balanced} has a zero denominator") from None
    # SWEEPS names each stream, since the table comes before the functions it names
    stream = getattr(harness, harness.SWEEPS[name].stream)
    return stream(n, budget, **extra)


def _cmd_verify(args, cfg: Config) -> int:
    stream = _run_sweep(args, cfg)
    if args.out is not None:
        out = args.out
        if cfg.out_dir is not None and not out.is_absolute():
            out = cfg.out_dir / out
        writer = write_result_json if args.fmt == "json" else write_result_csv
        for path in writer(stream, out):
            _print(f"wrote {path}")
        for line in summary_lines(stream):
            _print(line)
    else:
        try:
            write_result(stream, args.fmt, sys.stdout)
            print(flush=True)
        except BrokenPipeError:
            raise _StdoutClosed from None
    return 1 if stream.summary["hard"] and stream.violations else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        cfg = load_config(args.config) if args.config else Config()
        return args.handler(args, cfg)
    except _StdoutClosed:
        # the output left unwritten goes to devnull, so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too deep to compute (recursion limit reached)", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # a writer interrupted mid-sweep has already removed the files it opened
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
