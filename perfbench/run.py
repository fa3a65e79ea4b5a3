"""Run one benchmark workload against the graphcurvature sources in ./src.

    python3 perfbench/run.py --workload chi_geometric --seed 1 --seconds 15 --trace 0

Run it from the repository root. It repeats the workload's op for
--seconds (at least once), checks every result, and prints two JSON lines:
details (environment, input fingerprint, every op time), then the result
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are per-module timings from
wrapped functions, plus the cost of the wrapping.
"""
import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import inputs
import tracer
import workloads
from calibration import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
FINGERPRINTS = HERE / "fingerprints.json"
# Set-ups timed per run, each in a new process; setup_s is their median.
SETUP_REPS = 7


def fresh_import():
    """Import graphcurvature and its CLI from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "graphcurvature" or m.startswith("graphcurvature.")]:
        del sys.modules[name]
    pkg = importlib.import_module("graphcurvature")
    cli = importlib.import_module("graphcurvature.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"graphcurvature imported from {pkg.__file__}, not from {SRC}")
    return pkg, cli


def prepare(wl, ctx):
    """The workload's program-side set-up, in this process."""
    exec(wl.prepare, {"graphcurvature": ctx.gc})


def timed_set_ups(wl, cal: Calibration) -> tuple[list[float], list[float]]:
    """SETUP_REPS set-ups, each a new Python process that imports the package
    and the CLI and runs the workload's preparation; raw and calibrated seconds
    from process start to exit."""
    code = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
            f"import graphcurvature, graphcurvature.cli\n{wl.prepare}")
    times, scaled = [], []
    before = cal.burst()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode:
            raise RuntimeError(f"set-up process exited with {proc.returncode}: {proc.stderr}")
        after = cal.burst()
        scaled.append(cal.scale(times[-1], before, after))
        before = after
    return times, scaled


def run_ops(wl, ctx, seconds: float, cal: Calibration):
    """Repeat the op for ``seconds`` (at least once).

    Returns raw op times, calibrated op times, ok flags and problems.
    """
    times, scaled, oks, problems = [], [], [], []
    threads = ctx.workers if wl.threaded else 1
    start = time.perf_counter()
    before = cal.burst(threads)
    while not times or time.perf_counter() - start < seconds:
        gc.collect()  # the previous op's objects go before the clock starts
        t0 = time.perf_counter()
        try:
            result = wl.op(ctx)
        except Exception as exc:  # a failed op is counted, not fatal
            times.append(time.perf_counter() - t0)
            found = [f"op raised {type(exc).__name__}: {exc}"]
        else:
            times.append(time.perf_counter() - t0)
            try:
                found = wl.check(ctx, result)
            except Exception as exc:
                found = [f"check raised {type(exc).__name__}: {exc}"]
            del result
        oks.append(not found)
        problems.extend(found)
        after = cal.burst(threads)
        scaled.append(cal.scale(times[-1], before, after))
        before = after
    return times, scaled, oks, problems


def median_ok(times, oks) -> float:
    good = [t for t, ok in zip(times, oks) if ok]
    return statistics.median(good or times)


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def check_fingerprint(name: str, seed: int, fp) -> str:
    recorded = json.loads(FINGERPRINTS.read_text()).get(name, {})
    want = recorded.get(str(inputs.input_seed(seed)), recorded.get("*"))
    if want is None:
        return f"no fingerprint recorded for input seed {inputs.input_seed(seed)}"
    return "match" if want == fp.to_json() else f"mismatch: recorded {want}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "graphcurvature" / "__init__.py").is_file():
        print(f"error: no graphcurvature sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        details, result = measure(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


def measure(wl, args, workdir: Path) -> tuple[dict, dict]:
    workers = max(1, min(os.cpu_count() or 1, len(os.sched_getaffinity(0))))
    ctx = workloads.Context(gc=None, cli=None, seed=args.seed, workers=workers, workdir=workdir)
    ctx.gc, ctx.cli = fresh_import()
    prepare(wl, ctx)
    cal = Calibration()
    setup_times, setup_scaled = timed_set_ups(wl, cal)

    t0 = time.perf_counter()
    fp = inputs.fingerprint(wl.make_inputs(ctx))
    ctx.expected["fingerprint"] = fp
    input_s = time.perf_counter() - t0
    fp_status = check_fingerprint(wl.name, args.seed, fp)

    details = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workers": workers, "environment": environment(),
        "fingerprint": fp.to_json(), "fingerprint_status": fp_status,
        "input_s": input_s, "setup_samples": setup_times, "setup_scaled_samples": setup_scaled,
    }
    inputs_ok = fp_status == "match"
    problems = [] if inputs_ok else [fp_status]
    if args.trace:
        # Untraced ops for the first third of the time, then traced ones.
        times, scaled, oks, op_problems = run_ops(wl, ctx, args.seconds / 3, cal)
        tr = tracer.Tracer()
        tr.install()
        try:
            if wl.prepare_span:
                tr.wrap(wl.prepare_span, prepare)(wl, ctx)
            t_times, t_scaled, t_oks, t_problems = run_ops(wl, ctx, args.seconds * 2 / 3, cal)
        finally:
            tr.uninstall()
        metrics = tr.metrics(len(t_times))
        traced_s, untraced_s = statistics.median(t_scaled), statistics.median(scaled)
        metrics.update({"trace.op_s": traced_s, "trace.untraced_op_s": untraced_s,
                        "trace.overhead_s": traced_s - untraced_s})
        missing = [name for name in wl.expected_layers if not metrics[f"{name}.calls"]]
        problems += [f"no calls recorded for {name}" for name in missing]
        details["computed_metrics"] = list(tracer.COMPUTED)
        times, scaled, oks = times + t_times, scaled + t_scaled, oks + t_oks
        problems += op_problems + t_problems
        units = {name: unit for name, unit, _ in tracer.per_layer_metrics()}
    else:
        times, scaled, oks, op_problems = run_ops(wl, ctx, args.seconds, cal)
        problems += op_problems
        if not inputs_ok:  # the ops measured inputs other than the recorded ones
            oks = [False] * len(oks)
        metrics = {
            "op_s": median_ok(scaled, oks),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ops_ratio": sum(oks) / len(oks),
        }
        units = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ops_ratio": "ratio"}
    failed = len(oks) - sum(oks) if inputs_ok else len(oks)
    details.update({
        "op_samples": times,
        "op_scaled_samples": scaled,
        "calibration_samples": cal.samples,
        "phases": {k: {"median": statistics.median(v), "samples": v} for k, v in ctx.phases.items()},
        "problems": problems[:20],
    })
    result = {
        "correct": not problems,
        "attempted": len(oks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return details, result


if __name__ == "__main__":
    sys.exit(main())
