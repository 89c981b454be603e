"""revspeech benchmark: three seeded batch workloads, checked outputs, a traced replay.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze_session --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

One process runs operations back to back (a closed loop with one client)
for --seconds after a checked warm-up operation. With --trace 0 the last
stdout line is a JSON object with the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced replay. See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import LAYER_METRICS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / "_work"
WORKLOAD_NAMES = ("analyze_session", "train_vocab", "report_dense")
# set-up repeats at least 3 times and for at least 2 s (at most 50 times);
# setup_s is the median
SETUP_REPEATS = (3, 50)
SETUP_MIN_SECONDS = 2.0
CHILD_TIMEOUT_S = 150
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The matrix products here are small (EM on about 1,500 x 39 frames): a
# second BLAS thread made train_vocab about 20% slower on 2 cores and exposed
# it to every other process on the machine.
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "audio_x_realtime": "x",
    "segments_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "label_accuracy": "frac",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one operation on inputs already in DIR and report peak RSS
    parser.add_argument("--rss-child", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_blas_threads() -> int:
    """Pin every BLAS pool to BLAS_THREADS; returns the cores this process may use."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _environment(args, cores: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "revspeech").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = None
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": cores,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs and checks operations, counting every attempt and every failure."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.problems: list[dict] = []

    def attempt(self, k: int, tracer=None) -> float | None:
        """Seconds the operation took, or None when it raised or failed a check."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            if tracer is None:
                out = self.workload.run_op(self.state, k)
            else:
                with tracer.operation(k):
                    out = self.workload.replay_op(self.state, k, tracer)
            elapsed = time.perf_counter() - start
            problems = self.workload.check(self.state, k, out)
            if tracer is not None and not problems:
                problems = self.workload.guard(self.state, k, out)
        except Exception as exc:  # a failed operation is counted and the loop goes on
            problems = [traceback.format_exception_only(exc)[-1].strip()]
        if problems:
            self.fail(k, tracer is not None, problems)
            return None
        return elapsed

    def fail(self, k: int, traced: bool, problems: list[str]) -> None:
        self.failed += 1
        self.problems.append({"op": k, "traced": traced, "problems": problems})


def _timed_loop(seconds: float, step) -> None:
    """Call step(k) for k = 1, 2, ... until seconds have passed; at least once."""
    deadline = time.perf_counter() + seconds
    k = 1
    while True:
        step(k)
        k += 1
        if time.perf_counter() >= deadline:
            return


def _peak_rss_mb(args, work: Path, runner: Runner) -> float:
    """Peak RSS of a fresh process that runs one operation on set-up's files."""
    runner.attempted += 1
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--rss-child", str(work)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
        runner.fail(-1, False, [f"peak-RSS subprocess: {exc!r}"])
        return 0.0
    if proc.returncode != 0 or report["problems"]:
        runner.fail(-1, False, report["problems"] or [proc.stderr.strip()[-500:]])
    return report["peak_rss_mb"]


def _rss_child(workload, work: Path) -> int:
    state = workload.load(work)
    problems = []
    try:
        out = workload.run_op(state, 1)
        if out["rc"] != 0:
            problems.append(f"operation exited with code {out['rc']}")
    except Exception as exc:  # reported to the parent, which counts the failure
        problems.append(traceback.format_exception_only(exc)[-1].strip())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": peak, "problems": problems}))
    return 0


def _end_to_end(args, workload, state, work, runner, setup_times) -> tuple[dict, list]:
    times: list[float] = []

    def step(k):
        elapsed = runner.attempt(k)
        if elapsed is not None:
            times.append(elapsed)

    _timed_loop(args.seconds, step)
    peak_rss = _peak_rss_mb(args, work, runner)
    audio_s, segments = workload.work_done(state)
    # throughput per median operation: a run's total busy time follows the
    # host's slow phases more than its median operation does
    p50 = statistics.median(times) if times else 0.0
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": p50,
        "audio_x_realtime": audio_s / p50 if p50 else 0.0,
        "segments_per_s": segments / p50 if p50 else 0.0,
        "peak_rss_mb": peak_rss,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
        "label_accuracy": state.get("label_accuracy", 0.0),
    }, times


def _per_layer(args, runner, spans_path: Path) -> tuple[dict, list]:
    # one allocation pass, apart from the timed traced operations
    alloc = Tracer(alloc=True)
    runner.attempt(0, alloc)

    # each step runs operation k untraced and traced on the same inputs, so
    # their ratio is the tracing overhead; the order alternates between steps
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []

    def step(k):
        if k % 2:
            plain = runner.attempt(k)
            replayed = runner.attempt(k, tracer)
        else:
            replayed = runner.attempt(k, tracer)
            plain = runner.attempt(k)
        if plain is not None and replayed is not None:
            untraced.append(plain)
            traced.append(replayed)

    _timed_loop(args.seconds, step)
    tracer.write(spans_path)
    if not traced:
        return {name: 0.0 for name in LAYER_METRICS}, traced
    return layer_metrics(tracer, alloc, traced, untraced), traced


def _run_workload(args, cores: int) -> int:
    # imported only now: numpy must not load before the BLAS caps are set
    from workloads import WORKLOADS, load_generators

    workload = WORKLOADS[args.workload]
    if args.rss_child:
        return _rss_child(workload, Path(args.rss_child))

    env = _environment(args, cores)
    gen = load_generators(ROOT)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK_ROOT))
    stem = WORK_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        setup_times = []
        least, most = SETUP_REPEATS
        while len(setup_times) < most and (
            len(setup_times) < least or sum(setup_times) < SETUP_MIN_SECONDS
        ):
            start = time.perf_counter()
            workload.setup(work, args.seed, gen)
            setup_times.append(time.perf_counter() - start)
        state = workload.load(work)
        workload.reference(state)
        runner = Runner(workload, state)
        # warm-up: fills lazy caches and gives the reference outputs; untimed
        runner.attempt(0)
        if args.trace:
            metrics, times = _per_layer(args, runner, stem.with_suffix(".spans.json"))
            units = LAYER_METRICS
        else:
            metrics, times = _end_to_end(args, workload, state, work, runner, setup_times)
            units = END_TO_END_UNITS
        size = workload.size(state)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": runner.failed == 0 and bool(times),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"environment": env, "input_size": size, "setup_s_samples": setup_times,
              "op_s_samples": times, "problems": runner.problems, **result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    print("environment " + json.dumps(env, sort_keys=True))
    print("input_size " + json.dumps(size, sort_keys=True))
    print(f"{workload.name}: {len(times)} timed operations; {runner.attempted} attempted, "
          f"{runner.failed} failed, failed_frac {runner.failed / runner.attempted:.4g}")
    for problem in runner.problems:
        print(f"  FAILED op {problem['op']}: {'; '.join(problem['problems'])}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process, then one table of their metrics."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        rows.append((name, result))
    print("\nworkload         metric                             value  unit")
    for name, result in rows:
        fail_frac = result["failed"] / result["attempted"]
        print(f"{name:16s} {'failed_frac':30s} {fail_frac:12.6g}  "
              f"({result['failed']}/{result['attempted']} operations)")
        for metric, entry in result["metrics"].items():
            print(f"{name:16s} {metric:30s} {entry['value']:12.6g}  {entry['unit']}")
    return status


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through the finally blocks, which delete the scratch
    # inputs, and through subprocess.run, which kills and reaps its child
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = _parse_args(argv)
    cores = _pin_blas_threads()  # before numpy is first imported
    needed = [ROOT / "src" / "revspeech" / "__init__.py", ROOT / "tests" / "conftest.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: run from a revspeech checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return _run_workload(args, cores)


if __name__ == "__main__":
    sys.exit(main())
