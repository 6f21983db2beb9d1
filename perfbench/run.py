"""collidersim benchmark: one workload, one seed, one timed window.

    python3 perfbench/run.py --workload grid-exact --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --smoke

Run from the root of a source checkout; the package is imported from
`src/`. With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it runs the same ops traced and then untraced and reports the
per-layer metrics. Every op's output is checked, and the last line of
stdout is one JSON object: correct, attempted, failed, metrics.
A copy of the result, with the environment block, goes to
.perfbench/results/, and the spans of a traced run to .perfbench/traces/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
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
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

DEFAULT_SEED = 0
SETUP_REPEATS = 9
REFERENCE_OPS = 4        # ops whose semantic results the reference digest covers
MIN_OPS = 100            # so that at least ten timed ops lie beyond p90
GAUGE_NOMINAL_S = 0.0008  # gauge time on the machine the figures are scaled to
GAUGE_SPAN = 3           # gauges taken on each side of a timing that scale it


def _import_package():
    """Import collidersim from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "collidersim", "__init__.py")):
        sys.exit(f"perfbench: no collidersim package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import collidersim
    if os.path.dirname(os.path.dirname(os.path.abspath(collidersim.__file__))) != SRC:
        sys.exit(f"perfbench: imported collidersim from {collidersim.__file__}")
    return collidersim


def fresh_import_seconds() -> float:
    """Time `import collidersim` inside a new interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import collidersim; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-I", "-c", code, SRC], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def environment() -> dict:
    from collidersim import kernels
    try:
        import collidersim._trials  # noqa: F401
        compiled = True
    except ImportError:
        compiled = False
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "engine": kernels.engine_name(),
            "compiled_trials": compiled,
            "commit": _commit(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def _commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def gauge() -> float:
    """Seconds taken by a fixed piece of interpreter work.

    The machine this runs on shares its cores, and its speed for Python
    code drifts by a quarter within seconds. Every time the benchmark
    reports is scaled by GAUGE_NOMINAL_S over the median of the gauges
    taken around it (see scaled_times), so the drift cancels. The gauge
    uses only the standard library, so no change to collidersim can
    move it.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    x = 1
    for i in range(1600):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        if i % 8 == 0:
            total += Fraction(x & 0xFFFF, i | 1)
    return time.perf_counter() - t0


def scaled_times(times: list, gauges: list) -> list:
    """times[i] ran between gauges[i] and gauges[i + 1]; scale each by
    the median of the GAUGE_SPAN gauges on either side of it. A median,
    because one gauge can catch an interrupt that the timing missed."""
    return [t * GAUGE_NOMINAL_S /
            statistics.median(gauges[max(0, i + 1 - GAUGE_SPAN):i + 1 + GAUGE_SPAN])
            for i, t in enumerate(times)]


def digest(values) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


class Runner:
    """Runs and checks ops of one workload and keeps the tallies."""

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.replay = None       # transcript bytes of op 0 from the warm-up
        self.replay_ok = True
        self.semantics = {}

    def op(self, i: int) -> tuple:
        """Run and check op i; return its wall time and verified digits."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = self.w.run(i)
        except Exception:
            result = None
            error = traceback.format_exc()
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        self.attempted += 1
        if result is not None:
            error = "; ".join(self.w.check(i, result))
        if error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {i}: {error}")
            return wall, 0
        if tracer is not None:
            tracer.count("cli.bytes_written", self.w.bytes_written(result))
        if i < REFERENCE_OPS:
            self.semantics[i] = self.w.semantic(i, result)
        if i == 0:
            data = self.w.transcript_bytes(result)
            if self.replay is None:
                self.replay = data
            elif data != self.replay:
                self.replay_ok = False
        return wall, self.w.digits(i, result)

    def window(self, seconds: float, ops=None, min_ops=1):
        """Ops 0, 1, ... until the window closes and at least min_ops ran
        (or exactly `ops` ops).

        Returns each op's wall time, the same scaled by the gauges taken
        around the op, the gauge times, and the verified digits.
        """
        walls, gauges, digits = [], [gauge()], 0
        deadline = time.perf_counter() + seconds
        i = 0
        while (i < ops) if ops is not None else (i < min_ops or time.perf_counter() < deadline):
            wall, d = self.op(i)
            gauges.append(gauge())
            walls.append(wall)
            digits += d
            i += 1
        return walls, scaled_times(walls, gauges), gauges, digits


def build(name: str, seed: int, workdir: str, smoke: bool):
    from workloads import WORKLOADS
    return WORKLOADS[name](seed, workdir, smoke)


def measure(name: str, seed: int, seconds: float, workdir: str, smoke=False) -> dict:
    """Untraced run: set-up, warm-up, timed window, end-to-end metrics."""
    setups, gauges = [], [gauge()]
    for _ in range(SETUP_REPEATS):
        imported = fresh_import_seconds()
        t0 = time.perf_counter()
        workload = build(name, seed, workdir, smoke)
        setups.append(imported + time.perf_counter() - t0)
        gauges.append(gauge())
    setups = scaled_times(setups, gauges)
    runner = Runner(workload)
    runner.op(0)                       # warm-up; its transcript is replayed
    walls, scaled, gauges, digits = runner.window(seconds, min_ops=MIN_OPS)
    for i in range(len(walls), REFERENCE_OPS):
        runner.op(i)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_p90_ms": _p90(scaled) * 1e3,
        "digits_per_s": digits / sum(scaled),
        "failed_ratio": runner.failed / runner.attempted,
        "peak_rss_mb": rss_kb / 1024,
        # unscaled, for reference
        "op_p50_wall_ms": statistics.median(walls) * 1e3,
        "op_p90_wall_ms": _p90(walls) * 1e3,
        "gauge_ms": statistics.median(gauges) * 1e3,
    }
    return {"runner": runner, "metrics": metrics, "samples": len(walls)}


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def measure_traced(name: str, seed: int, seconds: float, workdir: str, smoke=False) -> dict:
    """Traced run over half the window, then the same ops untraced."""
    from spans import Tracer
    workload = build(name, seed, workdir, smoke)
    tracer = Tracer()
    runner = Runner(workload)
    runner.op(0)
    tracer.install()
    try:
        runner.tracer = tracer
        traced, traced_scaled, _, _ = runner.window(seconds / 2)
    finally:
        runner.tracer = None
        tracer.restore()
    _, untraced_scaled, _, _ = runner.window(0, ops=len(traced))
    overhead = sum(traced_scaled) - sum(untraced_scaled)
    return {"runner": runner, "metrics": tracer.metrics(sum(traced), overhead),
            "samples": len(traced), "tracer": tracer}


def reference_ok(name: str, runner) -> tuple:
    """Digest of the first ops' semantic results, and whether it matches."""
    got = digest([runner.semantics.get(i) for i in range(REFERENCE_OPS)])
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        want = json.load(fh).get(name)
    return got, want is None or got == want


def run_one(args) -> int:
    _import_package()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = environment()
    os.makedirs(STATE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=STATE)
    try:
        if args.trace:
            out = measure_traced(args.workload, args.seed, args.seconds, workdir, args.smoke)
        else:
            out = measure(args.workload, args.seed, args.seconds, workdir, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runner = out["runner"]
    checked = args.seed == DEFAULT_SEED and not args.smoke
    ref, ref_ok = reference_ok(args.workload, runner) if checked else (None, True)
    correct = runner.failed == 0 and runner.replay_ok and ref_ok

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {out['samples']}  attempted {runner.attempted}  failed {runner.failed}")
    print("env " + json.dumps(env, sort_keys=True))
    units.update(failed_ratio="ratio", op_p50_wall_ms="ms", op_p90_wall_ms="ms", gauge_ms="ms")
    for name, value in out["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"replay {'identical' if runner.replay_ok else 'DIFFERS'}"
          + (f"; reference digest {ref} {'matches' if ref_ok else 'DIFFERS'}"
             if checked else ""))
    for error in runner.errors:
        print("check failed: " + error)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    _write_json(os.path.join(STATE, "results", tag + ".json"),
                {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "smoke": args.smoke, "env": env, "samples": out["samples"],
                 "reference_digest": ref,
                 "metrics": out["metrics"]})
    if args.trace:
        _write_json(os.path.join(STATE, "traces", tag + ".json"),
                    dict(out["tracer"].dump(), env=env))
    print(json.dumps(result))
    return 0


def _write_json(path: str, data) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


WORKLOAD_NAMES = ["estimate-exact", "grid-exact", "bisect-stream", "advice-digits"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="collidersim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small op sizes: every check in a few seconds")
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args)
    # one interpreter per workload, so peak RSS and set-up are each their own
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        code = max(code, subprocess.run(cmd).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
