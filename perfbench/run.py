"""lungsound benchmark: one workload per process, driven as a closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload fbs-synth --seed 0 --seconds 20 --trace 0

Workloads: fbs-synth, train-icbhi, explain-sprsound (see workloads.py
and README.md). The seed generates every input; nothing is downloaded.

With ``--trace 0`` the run sets up several times, runs one untimed
warm-up pass, then a fixed number of timed passes: ``--seconds`` over
the workload's nominal pass time, rounded, at least one. A pass runs
each of the workload's two stages once; one caller runs a stage,
checks its output, then goes on.
With ``--trace 1`` it runs one untraced and one traced pass instead
(each stage once, plus the workload's trace-only stages), reports the
per-layer metrics and the tracing overhead, and writes a Trace Event
Format file under perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it is the run
record (machine, versions, seed, every timing with its sample count).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# setup is repeated at least this often, and until this long is spent
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPEATS = 100
# the run's own percentile rule: the highest of these with >= 10 samples beyond it
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- run record ---------------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict:
    """OpenBLAS build string and thread count as numpy loaded them."""
    import numpy as np

    info = {"version": None, "config": None, "threads": None}
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info["version"] = f"{blas.get('name')} {blas.get('version')}"
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            info["threads"], info["config"] = threads(), config().decode()
            return info
    return info


def machine_record(workers: str | None) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(),
        "lungsound_workers_set": workers is not None,
        "lungsound_workers": workers,
    }


def timing_stats(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs), "pct": None, "pct_value": None}
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            rank = min(n - 1, int(p / 100 * n))
            out["pct"], out["pct_value"] = p, xs[rank]
            break
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the closed loop ---------------------------------------------------------------------


class OutputMismatch(Exception):
    """A stage's output differs from its first run in this process."""


class Runner:
    """One caller: runs a stage, checks it, counts attempts and failures."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.reference: dict[int, str] = {}  # first fingerprint of each stage

    def attempt(self, i: int):
        """Run stage i once; returns its timings, or None if it failed."""
        self.attempted += 1
        try:
            timings, output = self.w.stage(i)
            fingerprint = self.w.check(i, output)
            expected = self.reference.setdefault(i, fingerprint)
            if fingerprint != expected:
                raise OutputMismatch(f"{self.w.stage_names[i]}: output differs from the first run")
        except Exception:  # the loop keeps running and reports the failure
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        return timings

    def setup(self) -> list[float]:
        times: list[float] = []
        while len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS
        ):
            t0 = perf_counter()
            self.w.setup()
            times.append(perf_counter() - t0)
        return times

    def warmup(self) -> float:
        t0 = perf_counter()
        for i in range(len(self.w.stage_names)):
            self.attempt(i)
        return perf_counter() - t0

    def one_pass(self) -> dict[str, float]:
        """Each stage once, extra stages too; returns every part's time."""
        parts: dict[str, float] = {}
        for i in range(len(self.w.stage_names) + len(self.w.extra_stages)):
            parts |= self.attempt(i) or {}
        return parts


def measure(runner: Runner, seconds: float) -> dict:
    setup = runner.setup()
    warmup = runner.warmup()
    stages: dict[str, list[float]] = {name: [] for name in runner.w.stage_names}
    parts: dict[str, list[float]] = {}
    # a count fixed by --seconds, not by the clock, so that host noise
    # cannot change how many samples the medians take
    passes = max(1, round(seconds / runner.w.pass_s))
    for _ in range(passes):  # stages interleave, so each one's samples spread over the run
        for i, name in enumerate(runner.w.stage_names):
            timings = runner.attempt(i)
            if timings is not None:
                stages[name].append(sum(timings.values()))
                for part, t in timings.items():
                    parts.setdefault(part, []).append(t)
    return {"setup": setup, "warmup": warmup, "passes": passes, "stages": stages,
            "parts": parts}


def end_to_end(runner: Runner, m: dict) -> tuple[dict, dict]:
    """(metrics for the result line, the record's timings and user metrics)."""
    for name, xs in m["stages"].items():
        if not xs:
            raise RuntimeError(f"stage {name} never completed; no metric to report")
    rss = peak_rss_mb()
    stage_medians = [statistics.median(xs) for xs in m["stages"].values()]
    metrics = {
        "setup_s": {"value": statistics.median(m["setup"]), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "stage1_s": {"value": stage_medians[0], "unit": "s"},
        "stage2_s": {"value": stage_medians[1], "unit": "s"},
    }
    part_medians = {k: statistics.median(v) for k, v in m["parts"].items()}
    user = {
        "setup_s": (metrics["setup_s"]["value"], "s"),
        "peak_rss_mb": (rss, "MB"),
        "fail_ratio": (runner.failed / max(runner.attempted, 1), "failed/attempted"),
        **runner.w.user_metrics(part_medians),
    }
    record = {
        "setup_s": timing_stats(m["setup"]),
        "warmup_s": m["warmup"],
        "passes": m["passes"],
        "stages": {k: timing_stats(v) for k, v in m["stages"].items()},
        "parts": {k: timing_stats(v) for k, v in m["parts"].items()},
        "user_metrics": {k: {"value": v, "unit": u} for k, (v, u) in user.items()},
    }
    return metrics, record


def traced(runner: Runner, workload: str, seed: int) -> tuple[dict, dict]:
    """Untraced then traced pass; per-layer metrics from the traced one."""
    from tracer import LAYER_METRICS, Tracer

    tracer = Tracer()
    with tracer.active():
        runner.w.setup()
    runner.warmup()
    untraced = runner.one_pass()
    with tracer.active():  # a traced output that differs counts as a failure
        traced_parts = runner.one_pass()
    untraced_s, traced_s = sum(untraced.values()), sum(traced_parts.values())
    values = tracer.layer_metrics(overhead_s=traced_s - untraced_s)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.write_trace_events(trace_path)
    metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}
    record = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "untraced_parts_s": untraced,
        "user_metrics": {k: {"value": v, "unit": u}
                         for k, (v, u) in runner.w.user_metrics(untraced).items()},
        "trace_file": str(trace_path.relative_to(ROOT)),
        "spans": len(tracer.names),
    }
    return metrics, record


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import lungsound  # noqa: F401
    except ImportError as exc:
        print(f"cannot import lungsound from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # one caller, no attribution thread pool: record the variable, then drop it
    workers = os.environ.pop("LUNGSOUND_WORKERS", None)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    runner = Runner(workload)
    try:
        if args.trace:
            metrics, timings = traced(runner, args.workload, args.seed)
        else:
            metrics, timings = end_to_end(runner, measure(runner, args.seconds))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        workload.close()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(workers),
        "attempted": runner.attempted,
        "failed": runner.failed,
        **timings,
        "notes": workload.notes,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in record.get("user_metrics", {}).items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print("record " + json.dumps(record))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
