"""Command-line entry point.

Exit status 0 on success, 1 when a hard bound is violated or an
internal consistency check trips, 2 on usage errors (including
malformed partitions and sweep sizes above budget), on I/O errors and
on inputs too deep to compute.  The worker pool for sweeps is created
here; library code never spawns processes.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
from fractions import Fraction
from pathlib import Path

from . import harness
from .characters import character_branching, character_mn, removable_ribbons
from .config import Config, load_config
from .decompositions import build_thick_hook_decomposition, stairs_decomposition
from .dimensions import SkewShape, dim_hlf, skew_dim_det, skew_dim_oracle
from .excited import enumerate_excited, excited_count, excited_sum, skew_dim_naruse
from .output import (
    render_result,
    summary_lines,
    write_result_csv,
    write_result_json,
)
from .partitions import parse_cycle_type, parse_partition
from .render import group_label, render_boxes, render_groups

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=int, help="worker processes for sweeps")
    common.add_argument("--out", type=Path, help="write output to this path")
    common.add_argument(
        "--format", dest="fmt", choices=("csv", "json"), help="verify output format"
    )
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
    p.add_argument("--n", type=int, help="sweep size (defaults to the budget cap)")
    p.add_argument(
        "--balanced",
        metavar="C",
        help="thm-main only: restrict to s(lambda) <= C*sqrt(n), drop the max factor",
    )
    p.set_defaults(handler=_cmd_verify)
    return parser


def _load_cfg(args) -> Config:
    cfg = load_config(args.config) if args.config else Config()
    if args.jobs is not None:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        cfg.jobs = args.jobs
    return cfg


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n")


def _reject_format(args) -> None:
    if args.fmt is not None:
        raise ValueError("--format applies to the verify subcommand only")


def _cmd_dim(args, cfg: Config) -> int:
    _reject_format(args)
    _emit(str(dim_hlf(parse_partition(args.shape))), args.out)
    return 0


def _cmd_skew_dim(args, cfg: Config) -> int:
    _reject_format(args)
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
    _reject_format(args)
    outer = parse_partition(args.outer)
    inner = parse_partition(args.inner)
    if args.sum:
        _emit(str(excited_sum(outer, inner)), args.out)
    elif args.list:
        chunks = []
        for index, diagram in enumerate(enumerate_excited(outer, inner), start=1):
            art = render_boxes(outer, diagram.boxes, cfg.render)
            chunks.append(f"{index}:\n{art}")
        _emit("\n\n".join(chunks), args.out)
    else:
        _emit(str(excited_count(outer, inner)), args.out)
    return 0


def _cmd_decompose(args, cfg: Config) -> int:
    _reject_format(args)
    shape = parse_partition(args.shape)
    lines = []
    if args.stairs:
        deco = stairs_decomposition(shape)
        groups = {}
        for index, line in enumerate(deco.lines, start=1):
            for box in line.boxes:
                groups[box] = index
        lines.append(render_groups(shape, groups, cfg.render))
        lines.append(f"q={deco.q}")
        for index, line in enumerate(deco.lines, start=1):
            lines.append(
                f"line {index} ({group_label(index)}): {line.orientation},"
                f" length {line.length}, anchor ({line.anchor.row},{line.anchor.col})"
            )
    else:
        deco = build_thick_hook_decomposition(shape, args.thick_hooks)
        groups = {}
        for index, hook in enumerate(deco.hooks, start=1):
            for box in hook.boxes:
                groups[box] = index
        lines.append(render_groups(shape, groups, cfg.render))
        lines.append(f"p={deco.p} a={deco.a} b={deco.b}")
        for index, hook in enumerate(deco.hooks, start=1):
            lines.append(
                f"hook {index} ({group_label(index)}): diagonals"
                f" {hook.j_lo}..{hook.j_hi}, size {hook.size}"
            )
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_char(args, cfg: Config) -> int:
    _reject_format(args)
    shape = parse_partition(args.shape)
    alpha = parse_cycle_type(args.cycle_type)
    compute = character_branching if args.method == "branching" else character_mn
    result = compute(shape, alpha)
    _emit(str(result.normalized if args.normalized else result.value), args.out)
    return 0


def _cmd_ribbons(args, cfg: Config) -> int:
    _reject_format(args)
    shape = parse_partition(args.shape)
    ribbons = removable_ribbons(shape, args.size)
    if not args.list:
        _emit(str(len(ribbons)), args.out)
        return 0
    chunks = []
    for index, ribbon in enumerate(ribbons, start=1):
        art = render_boxes(shape, ribbon.boxes, cfg.render)
        chunks.append(f"{index}: height {ribbon.height}\n{art}")
    _emit("\n\n".join(chunks), args.out)
    return 0


def _run_sweep(args, cfg: Config, mapper):
    name = args.sweep
    budget = cfg.budgets[name]
    n = budget if args.n is None else args.n
    if args.balanced is not None and name != "thm-main":
        raise ValueError("--balanced applies to thm-main only")
    extra = {} if args.balanced is None else {"balanced": Fraction(args.balanced)}
    # by name at call time, so that a rebound harness attribute (a tracer) is what runs
    sweep = getattr(harness, harness.SWEEPS[name].function)
    return sweep(n, budget, mapper, **extra)


def _cmd_verify(args, cfg: Config) -> int:
    fmt = args.fmt or "csv"
    if cfg.jobs > 1:
        with multiprocessing.Pool(cfg.jobs) as pool:
            result = _run_sweep(args, cfg, pool.map)
    else:
        result = _run_sweep(args, cfg, map)
    if args.out is not None:
        out = args.out
        if cfg.out_dir is not None and not out.is_absolute():
            out = cfg.out_dir / out
        writer = write_result_json if fmt == "json" else write_result_csv
        for path in writer(result, out):
            print(f"wrote {path}")
        for line in summary_lines(result):
            print(line)
    else:
        print(render_result(result, fmt))
    hard = result.summary.get("hard", False)
    return 1 if hard and result.violations else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        cfg = _load_cfg(args)
        return args.handler(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too deep to compute (recursion limit reached)", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
