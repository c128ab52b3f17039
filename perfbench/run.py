#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``burnside`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of exact, sample, or ``all``.

With ``--trace 0`` every command runs in a fresh interpreter with no
tracing.  The run first repeats the workload's set-up (a fresh process that
imports burnside and builds the bundle; for ``sample`` the commands with
``--steps 0``), then repeats the workload's operation for S seconds.  It
prints a table of every metric with its unit, sample count, median and
quartiles, one ``raw`` line with every sample, and as its last line the JSON
result.  With ``--trace 1`` it runs the operation once untraced and twice
through ``probe.py trace``, checks that the structural counts of the two
traced runs agree, and reports the per-layer metrics.

Every output is checked (see workloads.py); a failed check, a nonzero exit
code or a timeout counts as one failed operation.  Each run also appends its
record, raw samples included, to ``.perfbench_out/results.jsonl``.

Timing is done from outside the library: process wall time around each
child, peak RSS of that child from ``os.wait4``, and in traced runs spans
around calls into the modules' public functions.  The bounded time metric,
``wall_rel``, is an operation's wall time in units of a fixed stdlib-only
computation (calibration.py) timed just before and after each command,
with the whole run pinned to one CPU, so that the host's drifting speed
cancels.  The exact backend is forced to ``fractions``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibration import reference_seconds
from workloads import WORKLOADS, Workload, load_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = OUT / f"work-{os.getpid()}"  # concurrent runs never share files

SETUP_REPS = 5  # at least this many set-ups per run
TRACE_REPS = 2
RUN_DEADLINE_S = 170.0  # every run ends, children included, within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "ratio",
    "peak_rss_mb": "MB",
}
# wall_rel is the sum over an operation's commands of each command's wall
# time over the mean of the calibration computation (calibration.py) timed
# just before and just after it.  The table also shows the raw wall_s and
# ref_s it comes from, fail_ratio, which is 0 on a correct run and so cannot
# carry a relative bound, and for the sample workload steps_per_s, which is
# its steps over wall_s.

# span name -> per-layer metric; inclusive seconds unless marked self
SPAN_METRICS = {
    "kernels.build_bundle": "kernels.build_bundle_s",
    "kernels.check_detailed_balance": "kernels.check_detailed_balance_s",
    "kernels.doeblin_floor": "kernels.doeblin_floor_s",
    "kernels.build_q_direct": "kernels.build_q_direct_s",
    "ratmat.matmul": "ratmat.matmul_s",
    "ratmat.eq": "ratmat.eq_s",
    "ratmat.vec_mul": "ratmat.vec_mul_s",
    "ratmat.is_row_stochastic": "ratmat.is_row_stochastic_s",
    "ratmat.to_json": "ratmat.to_json_s",
    "ratmat.to_csv": "ratmat.to_csv_s",
    "spectra.char_poly": "spectra.char_poly_s",
    "spectra.spectrum_equal_report": "spectra.spectrum_equal_report_s",
    "spectra.intertwine_check": "spectra.intertwine_check_s",
    "spectra.bundle_gap_report": "spectra.bundle_gap_report_s",
    "dynamics.minorization_transfer": "dynamics.minorization_transfer_s",
    "dynamics.d_profile": "dynamics.d_profile_s",
    "dynamics.bundle_profiles": "dynamics.bundle_profiles_s",
    "dynamics.lump": "dynamics.lump_s",
    "closedforms": "closedforms.s",
    "sampler.run_chain": "sampler.run_chain_s",
    "sampler.summary_json": "sampler.summary_json_s",
}
SELF_METRICS = {"dynamics.bound_suite": "dynamics.bound_suite_s"}
CALL_METRICS = {"ratmat.matmul": "ratmat.matmul_calls", "closedforms": "closedforms.calls"}
# counts the probe records; all but the actions counts are structural and
# must agree exactly between two traced runs
STRUCTURAL = {
    "kernels.nnz": "count",
    "kernels.max_entry_bits": "bits",
    "ratmat.matmul_dense_ops": "ops",
    "spectra.char_poly_dims": "count",
    "spectra.direct_calls": "count",
    "spectra.certificate_calls": "count",
    "dynamics.profile_starts": "count",
    "sampler.steps": "count",
}
COUNT_METRICS = {
    **STRUCTURAL,
    "actions.sample_stabilizer_uniform_calls": "count",
    "actions.sample_fixed_word_uniform_calls": "count",
}
PER_LAYER = {
    "import_s": "s",
    **{m: "s" for m in SPAN_METRICS.values()},
    **{m: "s" for m in SELF_METRICS.values()},
    **{m: "count" for m in CALL_METRICS.values()},
    **COUNT_METRICS,
    "ratmat.bytes_serialized": "bytes",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.layer_coverage": "ratio",
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["BURNSIDE_EXACT_BACKEND"] = "fractions"
    return env


class Clock:
    """The run's deadline, shared by every child it starts."""

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def left(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)


def run_child(args: list[str], log: Path, clock: Clock) -> tuple[int, float, float]:
    """Run one child to completion; return (exit code, wall s, peak RSS MB).

    The child is killed when the run's deadline passes.  Its peak RSS comes
    from ``os.wait4`` on that child alone: ``RUSAGE_CHILDREN`` would keep
    the maximum over every child the benchmark has waited for.
    """
    timeout = clock.left()
    if timeout <= 0:
        return -1, 0.0, 0.0
    with open(log, "w") as out, open(log.with_suffix(".err"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, error: str) -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{what}: {error}")


def check_output(cmd, code: int, out_dir: Path, reference: dict) -> str:
    if code < 0:
        return f"killed by signal {-code} (deadline or crash)"
    try:
        return cmd.check(code, (out_dir / "stdout.txt").read_text(), out_dir, reference)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"


def run_setup(w: Workload, rng: random.Random, reference: dict, ledger: Ledger, clock: Clock) -> float:
    """One set-up: build_bundle of each config in a fresh process, or every
    sample command with --steps 0; return the summed wall time."""
    total = 0.0
    for config in w.setup:
        d = fresh_dir(WORK / "setup")
        code, wall, _ = run_child([str(BENCH_DIR / "probe.py"), "setup", *map(str, config)], d / "stdout.txt", clock)
        error = f"exit code {code}" if code != 0 else ""
        if not error:
            try:
                json.loads((d / "stdout.txt").read_text().splitlines()[-1])
            except (ValueError, IndexError) as exc:
                error = f"unreadable set-up report: {exc!r}"
        ledger.record(f"setup {config}", error)
        total += wall
    for cmd in w.commands if w.sampling else ():
        cmd = dataclasses.replace(cmd, steps=0)
        d = fresh_dir(WORK / "setup")
        code, wall, _ = run_child(["-m", "burnside", *cmd.argv(d, rng.randrange(2**32))], d / "stdout.txt", clock)
        ledger.record(f"setup {cmd.key}", check_output(cmd, code, d, reference))
        total += wall
    return total


def op_args(w: Workload, rng: random.Random) -> list[tuple]:
    """(command, seed, out dir) for each command of one operation."""
    return [(cmd, rng.randrange(2**32), WORK / f"cmd{i}") for i, cmd in enumerate(w.commands)]


def run_op(
    w: Workload, plan: list[tuple], reference: dict, ledger: Ledger, clock: Clock, calibrate: bool = False
) -> tuple[list[float], float, list[float]]:
    """Run each command of one operation untraced.

    Return the wall s of each command, the peak RSS MB, and the calibration
    times: with ``calibrate``, calibration.py's computation is timed before
    the first command and after each one, so every command has one on
    either side.
    """
    walls, rss = [], 0.0
    refs = [reference_seconds()] if calibrate else []
    for cmd, seed, d in plan:
        fresh_dir(d)
        code, wall, peak = run_child(["-m", "burnside", *cmd.argv(d, seed)], d / "stdout.txt", clock)
        ledger.record(cmd.key, check_output(cmd, code, d, reference))
        walls.append(wall)
        rss = max(rss, peak)
        if calibrate:
            refs.append(reference_seconds())
    return walls, rss, refs


# ---------------------------------------------------------------------------
# statistics and output
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    vals = sorted(values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"n": len(vals), "median": statistics.median(vals), "q1": q1, "q3": q3}


def read_cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "burnside").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU.

    The calibration runs in this process and the operations in its
    children; on one CPU both see the same host core, so their ratio
    cancels that core's drift.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment(backend: str) -> dict:
    return {
        "backend": backend,
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": read_cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def query_backend(clock: Clock) -> str:
    d = fresh_dir(WORK / "backend")
    code, _, _ = run_child(
        ["-c", "import burnside; print(burnside.EXACT_BACKEND)"], d / "stdout.txt", clock
    )
    if code != 0:
        raise SystemExit(f"cannot import burnside from {SRC}: see {d / 'stdout.err'}")
    return (d / "stdout.txt").read_text().strip()


def print_table(title: str, rows: dict[str, tuple[str, dict]]) -> None:
    print(f"{title}")
    print(f"  {'metric':<44}{'unit':>7}{'n':>5}{'median':>14}{'q1':>14}{'q3':>14}")
    for name, (unit, s) in rows.items():
        print(
            f"  {name:<44}{unit:>7}{s['n']:>5}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
        )


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def measure(w: Workload, seed: int, seconds: float, reference: dict, ledger: Ledger, clock: Clock) -> tuple[dict, dict, dict]:
    rng = random.Random(seed)
    setups, walls, refs, rel, rss = [], [], [], [], []
    t0 = time.perf_counter()
    # A set-up precedes each operation, so that both sample the same stretch
    # of a machine whose speed drifts, and the calibration runs on either
    # side of every command.  Another round starts while at least half a
    # round of the mean length so far fits in the measured time, so a run
    # overshoots `seconds` by half a round at most, on average not at all.
    while True:
        setups.append(run_setup(w, rng, reference, ledger, clock))
        cmd_walls, peak, cal = run_op(w, op_args(w, rng), reference, ledger, clock, calibrate=True)
        walls.append(sum(cmd_walls))
        refs.append(statistics.fmean(cal))
        # each command in units of the mean calibration around it
        rel.append(sum(x / (0.5 * (a + b)) for x, a, b in zip(cmd_walls, cal, cal[1:])))
        rss.append(peak)
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(walls) > seconds:
            break
    while len(setups) < SETUP_REPS:
        setups.append(run_setup(w, rng, reference, ledger, clock))
    stats = {
        "setup_s": summary(setups),
        "wall_rel": summary(rel),
        "peak_rss_mb": summary(rss),
    }
    table = {name: (END_TO_END[name], s) for name, s in stats.items()}
    table["wall_s"] = ("s", summary(walls))
    table["ref_s"] = ("s", summary(refs))
    if w.sampling:
        steps = sum(cmd.steps for cmd in w.commands)
        table["steps_per_s"] = ("1/s", summary([steps / x for x in walls]))
    metrics = {name: {"value": s["median"], "unit": END_TO_END[name]} for name, s in stats.items()}
    raw = {"setup_s": setups, "wall_s": walls, "ref_s": refs, "wall_rel": rel, "peak_rss_mb": rss}
    return metrics, table, raw


def traced_op(w: Workload, plan: list[tuple], reference: dict, ledger: Ledger, clock: Clock) -> dict:
    """Run one operation through probe.py trace and reduce it to per-layer values."""
    wall_sum = 0.0
    totals: dict[str, dict] = {}
    counts: dict[str, int] = {}
    imports = []
    written = 0
    for cmd, seed, d in plan:
        fresh_dir(d)
        report_path = d / "trace.json"
        code, wall, _ = run_child(
            [str(BENCH_DIR / "probe.py"), "trace", str(report_path), *cmd.argv(d, seed)],
            d / "stdout.txt", clock,
        )
        wall_sum += wall
        try:
            with open(report_path) as fh:
                rep = json.load(fh)
        except (OSError, ValueError) as exc:
            ledger.record(f"traced {cmd.key}", f"no trace report ({exc!r}), exit code {code}")
            continue
        error = f"probe exit code {code}" if code != 0 else check_output(cmd, rep["exit"], d, reference)
        ledger.record(f"traced {cmd.key}", error)
        imports.append(rep["import_s"])
        for name, row in rep["totals"].items():
            acc = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for name, value in rep["counts"].items():
            if name.endswith(".max"):
                counts[name[:-4]] = max(counts.get(name[:-4], 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
        if (d / "matrices").is_dir():
            written += sum(p.stat().st_size for p in (d / "matrices").iterdir())
    root_s = totals.get("root", {}).get("s", 0.0)
    root_self = totals.get("root", {}).get("self_s", 0.0)
    values = {"import_s": statistics.median(imports) if imports else 0.0}
    for span, metric in SPAN_METRICS.items():
        values[metric] = totals.get(span, {}).get("s", 0.0)
    for span, metric in SELF_METRICS.items():
        values[metric] = totals.get(span, {}).get("self_s", 0.0)
    for span, metric in CALL_METRICS.items():
        values[metric] = totals.get(span, {}).get("calls", 0)
    for metric in COUNT_METRICS:
        values[metric] = counts.get(metric, 0)
    values["ratmat.bytes_serialized"] = written
    values["trace.wall_s"] = wall_sum
    values["trace.layer_coverage"] = (root_s - root_self) / root_s if root_s > 0 else 0.0
    return values


def trace(w: Workload, seed: int, reference: dict, ledger: Ledger, clock: Clock) -> tuple[dict, dict, dict]:
    plan = op_args(w, random.Random(seed))
    untraced = sum(run_op(w, plan, reference, ledger, clock)[0])
    reps = [traced_op(w, plan, reference, ledger, clock) for _ in range(TRACE_REPS)]
    differ = [m for m in STRUCTURAL if len({r[m] for r in reps}) != 1]
    ledger.record("structural counts agree", f"differ between traced runs: {differ}" if differ else "")
    values = {}
    for metric, unit in PER_LAYER.items():
        if metric == "trace.overhead":
            continue
        # times are the median of the runs; counts agree, so take one as is
        pick = statistics.median if unit == "s" or unit == "ratio" else statistics.median_low
        values[metric] = pick(r[metric] for r in reps)
    values["trace.overhead"] = values["trace.wall_s"] / untraced if untraced > 0 else 0.0
    table = {m: (PER_LAYER[m], summary([r[m] for r in reps])) for m in PER_LAYER if m != "trace.overhead"}
    table["trace.overhead"] = ("ratio", summary([values["trace.overhead"]]))
    metrics = {m: {"value": values[m], "unit": PER_LAYER[m]} for m in PER_LAYER}
    raw = {"untraced_wall_s": untraced, "traced": reps}
    return metrics, table, raw


def run_workload(w: Workload, seed: int, seconds: float, traced: bool, reference: dict) -> tuple[dict, dict]:
    """Run one workload, print its table; return the result and the full record."""
    clock = Clock()
    ledger = Ledger()
    try:
        env = environment(query_backend(clock))
        if traced:
            metrics, table, raw = trace(w, seed, reference, ledger, clock)
        else:
            metrics, table, raw = measure(w, seed, seconds, reference, ledger, clock)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    failed = len(ledger.failures)
    table["fail_ratio"] = ("ratio", summary([failed / ledger.attempted]))
    print("env " + json.dumps(env, sort_keys=True))
    print_table(f"workload {w.name}  seed {seed}  seconds {seconds}  trace {int(traced)}", table)
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    print("raw " + json.dumps(raw))
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "env": env, "raw": raw, "failures": ledger.failures, **result,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "burnside" / "__init__.py").is_file():
        print(f"error: no burnside sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    pin_to_one_cpu()
    reference = load_reference()
    for name in names:
        result, record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), reference)
        OUT.mkdir(exist_ok=True)
        with open(OUT / "results.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
