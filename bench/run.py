"""hookchar benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S
    python3 bench/run.py --smoke

Run from anywhere inside a checkout: the program is imported from the
checkout's src directory, and nothing is installed.  Each repetition is a
fresh child process (see child.py), pinned to the CPU on which a fixed
reference loop runs fastest; repetitions run one at a time until
--seconds have passed.  Each timing is a median over the repetitions,
scaled by the reference loop's speed around each repetition to seconds
on the host at its usual speed (see Run.end_to_end for why); peak RSS is
a median as measured.  Every repetition's output is
checked: the CSVs of a sweep against the sha256 digests in golden.json,
and each point query by a second, independent route (plus, for seeds
0-15, the digest of the whole answer list).

With --trace 0 the last line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of traced repetitions, which
alternate with untraced ones so that the tracing overhead is measured.
The last line is one JSON object: correct, attempted, failed, metrics.
--workload all runs every workload both ways.  --smoke checks the
benchmark itself at tiny sizes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
TRACES = BENCH / "traces"
GOLDEN = json.loads((BENCH / "golden.json").read_text())

# Why each workload exists is recorded in BENCHMARK.json.  Sweep sizes are
# above the shipped budgets; the child raises the budget with --config.
WORKLOADS = {
    "thm-main": {"sweep": "thm-main", "n": 13, "smoke_n": 6},
    "excited-bounds": {"sweep": "excited-bounds", "n": 15, "smoke_n": 6},
    "compression": {"sweep": "compression", "n": 11, "smoke_n": 6},
    "point-queries": {"queries": True},
}

END_TO_END = {
    "wall_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}

# Hard cap on one invocation, below the 180 s the caller allows.
RUN_LIMIT_S = 170.0


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in tracing.layers():
        units[f"{layer}.calls"] = "count"
        if layer == "partitions.enumerate":
            units[f"{layer}.yielded"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["output.write.rows"] = "count"
    units["output.write.bytes"] = "B"
    for _, _, cache in tracing.CACHES:
        for field in ("hits", "misses", "size"):
            units[f"{cache}.{field}"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


class NoPackage(Exception):
    """hookchar cannot be imported from this checkout."""


class NothingMeasured(Exception):
    """Every repetition failed, so there is nothing to report."""


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


# The reference loop's time on a host at its usual speed; every timing is
# reported in seconds at that speed (see Run.end_to_end).
REF_NOMINAL_S = 0.020
# How the program's time follows the loop's when the host slows: over 50
# runs of 30-35 s on the four workloads, fitting log(median wall) against
# log(median reference time) gave exponents 0.41-0.80, so times are scaled
# by (REF_NOMINAL_S / reference time) ** REF_EXPONENT.
REF_EXPONENT = 0.65


def reference() -> float:
    """Median seconds of three passes of a fixed pure-Python loop, here and now.

    The loop uses what the program spends its time on (tuple-keyed dicts,
    Fractions, wide integers, strings, a sort) over a working set of a few
    MB, so a slow phase of the host slows it as it slows the program,
    though by more (see REF_EXPONENT).
    """
    times = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            table: dict[tuple, int] = {}
            rows: list = []
            x = 1
            for i in range(1, 20_000):
                key = (i % 97, i % 89, i % 13)
                table[key] = table.get(key, 0) + i
                if i % 4 == 0:
                    rows.append(Fraction(i, i % 11 + 1))
                x = (x * 3 + i) % (1 << 200)
                rows.append(str(i * 7919))
            rows.sort(key=str)
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def fastest_cpu() -> tuple[int, float]:
    """The CPU of this process's set on which reference() runs fastest, and its time.

    On the shared 2-CPU host each virtual CPU goes through phases of
    seconds to minutes in which it runs 1.3-2x slower than usual, often
    one CPU at a time; a repetition pinned to the CPU that is fast right
    now measures more of the program and less of its neighbours.
    """
    times = {cpu: _reference_on(cpu) for cpu in sorted(os.sched_getaffinity(0))}
    best = min(times, key=times.get)
    return best, times[best]


def _spawn(spec: dict, seed: int, traced: bool, spans: Path | None,
           fault: str | None, smoke: bool, timeout: float) -> dict | None:
    """Run one child; its JSON report, or None if it failed to produce one.

    The child is pinned to the fastest CPU, and the reference loop runs on
    that CPU just before and just after it; the report gains `ref_s`, the
    loop's mean time, and `scale`, the factor that turns the child's times
    into seconds at the reference speed.
    """
    cpu, ref_before = fastest_cpu()
    cmd = [sys.executable, str(BENCH / "child.py"), "--root", str(ROOT),
           "--work", str(WORK), "--seed", str(seed), "--cpu", str(cpu)]
    if "sweep" in spec:
        cmd += ["--sweep", spec["sweep"], "--n", str(spec["smoke_n" if smoke else "n"])]
    else:
        cmd += ["--queries", "smoke" if smoke else "full"]
    if traced:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if fault:
        cmd += ["--fault", fault]
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"# child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode == 3:  # child.NO_PACKAGE
        raise NoPackage(proc.stderr.strip())
    if proc.returncode != 0:
        print(f"# child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    rep = json.loads(proc.stdout.splitlines()[-1])
    ref_after = _reference_on(cpu)
    rep["ref_s"] = (ref_before + ref_after) / 2
    rep["scale"] = (REF_NOMINAL_S / rep["ref_s"]) ** REF_EXPONENT
    return rep


def _reference_on(cpu: int) -> float:
    """reference() on the given CPU; this process's CPU set is restored after."""
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {cpu})
        return reference()
    finally:
        os.sched_setaffinity(0, cpus)


def _golden_files(spec: dict, smoke: bool) -> dict | None:
    n = spec["smoke_n" if smoke else "n"]
    return GOLDEN["sweeps"].get(spec["sweep"], {}).get(str(n))


def _golden_answers(seed: int, smoke: bool) -> str | None:
    return GOLDEN["point-queries"]["smoke" if smoke else "full"].get(str(seed))


def _layer_counts(rep: dict) -> dict[str, int]:
    """Every count of a traced repetition; these must repeat exactly."""
    counts = {}
    for layer in tracing.layers():
        spans = rep["layers"].get(layer, {}).get("spans", 0)
        if layer == "partitions.enumerate":
            counts[f"{layer}.calls"] = rep["enumerate"]["created"].get(layer, 0)
            counts[f"{layer}.yielded"] = rep["enumerate"]["yielded"].get(layer, 0)
        else:
            counts[f"{layer}.calls"] = spans
    wrote = counts["output.write.calls"] > 0
    counts["output.write.rows"] = rep.get("rows", 0) if wrote else 0
    counts["output.write.bytes"] = rep.get("bytes", 0) if wrote else 0
    for cache, info in rep["caches"].items():
        for field, value in info.items():
            counts[f"{cache}.{field}"] = value
    return counts


class Run:
    """Repetitions of one workload and the checks applied to each."""

    def __init__(self, name: str, seed: int, smoke: bool = False) -> None:
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.smoke = smoke
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._answers: str | None = None
        self._counts: dict | None = None
        self._batch = 1

    def _fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(why)

    def check(self, rep: dict | None, traced: bool) -> None:
        """Count the repetition's operations and failures; keep good ones."""
        if "sweep" in self.spec:
            self.attempted += 1
            if rep is None:
                return self._fail(1, "child failed")
            if rep["rc"] != 0:
                return self._fail(1, f"hookchar verify exited {rep['rc']}")
            golden = _golden_files(self.spec, self.smoke)
            if rep["digests"] != golden:
                return self._fail(1, f"CSV digests differ from the pinned ones: {rep['digests']}")
        else:
            if rep is None:
                self.attempted += self._batch
                return self._fail(self._batch, "child failed")
            self._batch = rep["queries"]
            self.attempted += rep["queries"]
            pinned = _golden_answers(self.seed, self.smoke)
            expected = pinned or self._answers or rep["answers_sha256"]
            self._answers = expected
            if rep["answers_sha256"] != expected:
                return self._fail(rep["queries"], "answer list differs from the pinned digest")
            if rep["failures"]:
                self._fail(len(rep["failures"]), "; ".join(rep["failures"][:3]))
        if traced:
            counts = _layer_counts(rep)
            if self._counts is None:
                self._counts = counts
            elif counts != self._counts:
                diff = sorted(k for k in counts if counts[k] != self._counts[k])
                return self._fail(1 if "sweep" in self.spec else rep["queries"],
                                  f"traced counts differ between repetitions: {diff}")
            self.traced.append(rep)
        else:
            self.untraced.append(rep)

    def measure(self, seconds: float, trace: bool, fault: str | None = None) -> None:
        """Repeat until `seconds` have passed; with trace, alternate modes."""
        start = time.monotonic()
        modes = (False, True) if trace else (False,)
        spans = None
        if trace:
            TRACES.mkdir(exist_ok=True)
            spans = TRACES / f"{self.name}.spans.csv"
        while True:
            for traced in modes:
                left = RUN_LIMIT_S - (time.monotonic() - start)
                rep = _spawn(self.spec, self.seed, traced, spans if traced else None,
                             fault, self.smoke, max(left, 5.0))
                spans = None if traced else spans
                self.check(rep, traced)
            elapsed = time.monotonic() - start
            if elapsed >= seconds or elapsed >= RUN_LIMIT_S / 2:
                break

    def end_to_end(self) -> dict[str, float]:
        """Medians over the run's repetitions, in seconds at the reference speed.

        On the shared host each virtual CPU runs up to 1.8x slower for
        phases of seconds to minutes, and a whole run can fall inside one
        phase.  Each repetition's times are therefore multiplied by its
        `scale`, from the reference loop's time on the same CPU around it
        (see REF_EXPONENT): they read as seconds on the host at its usual
        speed.  Over a 4-minute series of excited-bounds repetitions the
        medians of 25-repetition windows spread (IQR/median) by 0.19 as
        measured and by 0.02 scaled.  The scaling is not exact, as each
        workload follows the loop with its own exponent; compare a change
        with its parent measured at the same time.  Each
        query's latency is its median over the repetitions, which all run
        the same batch.  Peak RSS is the median as measured.
        """
        reps = self.untraced
        wall = statistics.median(r["wall_s"] * r["scale"] for r in reps)
        if "sweep" in self.spec:
            # the operation a sweep user waits for is one hookchar verify call
            latencies = [wall * 1e3]
            rate = reps[0]["rows"] / wall
        else:
            scaled = ([ms * r["scale"] for ms in r["latencies_ms"]] for r in reps)
            latencies = [statistics.median(call) for call in zip(*scaled)]
            rate = reps[0]["queries"] / wall
        return {
            "wall_s": wall,
            "records_per_s": rate,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
            "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in reps),
            "query_p50_ms": statistics.median(latencies),
            "query_p99_ms": _p99(latencies),
        }

    def per_layer(self) -> dict[str, float]:
        """Counts, and scaled self times as medians over the traced repetitions."""
        out: dict[str, float] = dict(self._counts)
        for layer in tracing.layers():
            out[f"{layer}.self_s"] = statistics.median(
                r["layers"].get(layer, {}).get("self_s", 0.0) * r["scale"] for r in self.traced)
        traced = statistics.median(r["wall_s"] * r["scale"] for r in self.traced)
        untraced = statistics.median(r["wall_s"] * r["scale"] for r in self.untraced)
        out["trace.overhead_frac"] = traced / untraced - 1
        return out

    def as_measured(self) -> str:
        """Medians of the untraced repetitions before scaling, for the table."""
        reps = self.untraced
        wall = statistics.median(r["wall_s"] for r in reps)
        ref = statistics.median(r["ref_s"] for r in reps)
        return f"wall_s as measured {wall!r} s; reference loop {ref * 1e3:.3f} ms (nominal {REF_NOMINAL_S * 1e3:g} ms)"

    def samples(self) -> str:
        text = f"{len(self.untraced)} untraced"
        if self.traced:
            text += f", {len(self.traced)} traced"
        if "sweep" not in self.spec and self.untraced:
            text += f" of {len(self.untraced[0]['latencies_ms'])} timed query calls each"
        return text


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _table(metrics: dict[str, float], units: dict[str, str]) -> list[str]:
    return [f"{name:<42} {metrics[name]!r:>24} {unit}" for name, unit in units.items()]


def run_one(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, fault: str | None = None) -> tuple[Run, dict]:
    """Measure one workload; print its table; return the run and its metrics."""
    run = Run(name, seed, smoke)
    run.measure(seconds, trace, fault)
    if not run.untraced or (trace and not run.traced):
        raise NothingMeasured(f"{name}: no repetition passed its checks; {run.notes}")
    units = per_layer_units() if trace else END_TO_END
    metrics = run.per_layer() if trace else run.end_to_end()
    print(f"# workload {name}, seed {seed}, trace {int(trace)}: {run.samples()}")
    print(f"# {run.as_measured()}")
    for line in _table(metrics, units):
        print(line)
    frac = run.failed / run.attempted
    print(f"{'failed_frac':<42} {frac!r:>24} ratio  ({run.failed} of {run.attempted})")
    for note in run.notes:
        print(f"# failure: {note}")
    return run, {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}


def _result_line(runs: list[Run], metrics: dict) -> str:
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })


def smoke() -> int:
    """Tiny sizes: every metric prints with its unit, and injected faults count."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            run, metrics = run_one(name, 0, 0, trace, smoke=True)
            got = {key: value["unit"] for key, value in metrics.items()}
            if got != want[trace]:
                problems.append(f"{name} trace {int(trace)}: metrics {got} != {want[trace]}")
            if run.failed:
                problems.append(f"{name} trace {int(trace)}: {run.failed} failures at seed")
    for name, fault in (("thm-main", "flip"), ("point-queries", "route")):
        run = Run(name, 0, smoke=True)
        run.measure(0, False, fault)
        frac = run.failed / run.attempted
        print(f"# injected {fault} on {name}: failed_frac {frac!r} ({run.failed} of {run.attempted})")
        if run.failed != 1:
            problems.append(f"{name}: injected {fault} counted {run.failed} failures, expected 1")
    for problem in problems:
        print(f"# smoke: {problem}")
    print("# smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-check at tiny sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "hookchar").is_dir():
        print(f"error: no hookchar package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    facts = machine()
    print(f"# python {facts['python']}, nproc {facts['nproc']}, loadavg {facts['loadavg']}")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.smoke:
            return smoke()
        if args.workload != "all":
            run, metrics = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            print(_result_line([run], metrics))
            return 0
        runs, flat = [], {}
        for name in WORKLOADS:
            for trace in (False, True):
                run, metrics = run_one(name, args.seed, args.seconds, trace)
                runs.append(run)
                flat.update({f"{name}/{k}": v for k, v in metrics.items()})
        print(_result_line(runs, flat))
        return 0
    except NoPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NothingMeasured as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
