"""Benchmark of the mechscm package.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: table1, voting-gt, abstraction-grid, agent-fuzz (see
workloads.py for what each measures and why).  The benchmark imports the
package from ``src/`` next to this directory and fails when it is missing.

One run builds the workload's inputs from the seed, then repeats passes over
them (each pass runs every op once) while another pass fits in ``--seconds``;
it always makes at least one pass.  A workload may run more inputs in its
first pass than in the others (abstraction-grid covers its whole grid once,
then repeats a timed part of it); only the inputs of every pass are timed.
Every output is checked after its pass.

Between ops, outside their timing, it runs a fixed reference kernel (see
hostspeed.py), also between set-up repetitions, and scales the end-to-end
times by the reference time over the kernel's fastest time in the run (for
set-up time: during set-up), so that they read as on a host of fixed speed;
the unscaled times go to the result file.

With ``--trace 0`` it prints the end-to-end metrics:
  setup_s      median time to import the package (again, in the running
               interpreter) plus median time to build the inputs, over
               several repetitions
  op_p50_ms    median over the timed inputs of each one's fastest latency
               in the run: the latency level
  run_s        seconds for one pass over the timed inputs: the level times
               the sum of the inputs' relative costs (each input's latency
               over its pass's median latency, median over the passes)
  op_tail_ms   the level times the highest percentile, with ten inputs
               beyond it, of the relative costs (the percentile and input
               count go to the result file)
  With one pass these are the pass's op times, their median and their tail.
  peak_rss_mb  peak resident memory of the process

With ``--trace 1`` every op of a pass over the timed inputs runs twice in a
row, untraced and traced, in alternating order (the rest of a longer first
pass runs untraced only), and it prints per-layer metrics per traced pass:
calls, total and self milliseconds of each traced function (see spans.py),
counters read from their results, and ``trace.overhead_frac`` (traced over
untraced time of the same ops, minus one).  Spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed op is one
that raised or whose output failed its check.  A result file with the run
environment, input sizes and workload details goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from hostspeed import REFERENCE_S, HostSpeed

# One BLAS thread, set before numpy loads: on a two-core host a second BLAS
# thread contends with the interpreter and spreads table1's times by a
# quarter, and the package's training runs as fast on one thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 21
PASS_HOST_SAMPLES = 20
SETUP_HOST_SAMPLES = 5
MEASURED_MODULES = ("core", "abstraction", "rationality", "quotient", "voting", "surrogate", "examples")
WORKLOAD_NAMES = ("table1", "voting-gt", "abstraction-grid", "agent-fuzz")
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class PackageMissing(RuntimeError):
    pass


def import_package():
    """Import the package from ``src/`` beside this directory, and only
    from there."""
    if not (SRC / "mechscm" / "__init__.py").is_file():
        raise PackageMissing(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import mechscm

    if Path(mechscm.__file__).resolve().parent != SRC / "mechscm":
        raise PackageMissing(f"mechscm imported from {mechscm.__file__}, not {SRC}")
    for name in MEASURED_MODULES:
        __import__(f"mechscm.{name}")


# ---------------------------------------------------------------------------
# Environment


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import ctypes
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, workload) -> dict:
    import numpy as np

    sources = sorted((SRC / "mechscm").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sizes": workload.input_sizes(),
    }


# ---------------------------------------------------------------------------
# Set-up


def import_seconds() -> float:
    """Time to import the measured modules again in this process, which
    keeps numpy loaded; the modules imported before are put back."""
    def package_modules() -> list:
        return [n for n in sys.modules if n == "mechscm" or n.startswith("mechscm.")]

    loaded = {n: sys.modules.pop(n) for n in package_modules()}
    try:
        start = time.perf_counter()
        for name in MEASURED_MODULES:
            importlib.import_module(f"mechscm.{name}")
        return time.perf_counter() - start
    finally:
        for n in package_modules():
            del sys.modules[n]
        sys.modules.update(loaded)


def setup_seconds(workload) -> tuple:
    """Median import time plus median input-building time, the reference
    kernel's fastest time among them, and the samples."""
    host = HostSpeed()
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        host.sample(SETUP_HOST_SAMPLES)
        imports.append(import_seconds())
    for _ in range(SETUP_REPEATS):
        host.sample(SETUP_HOST_SAMPLES)
        start = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(builds)
    return setup_s, min(host.samples), {"import_s": imports, "build_s": builds}


# ---------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    seconds: float
    latencies: list  # per op, untraced
    outputs: list
    failures: dict = field(default_factory=dict)  # op index -> reason
    traced_latencies: Optional[list] = None
    traced_outputs: Optional[list] = None
    host_s: Optional[float] = None  # fastest reference-kernel time in the pass


def _timed_op(workload, i: int, failures: dict, tracer=None) -> tuple:
    """(latency, output) of one op; an exception counts against the op.  A
    tracer is installed around the op, outside its timing."""
    traced = tracer is not None
    with tracer.installed() if traced else nullcontext():
        start = time.perf_counter()
        try:
            with tracer.span("bench.op") if traced else nullcontext():
                out = workload.op(i)
        except Exception as exc:  # one op's failure must not end the run
            failures.setdefault(i, f"{type(exc).__name__}: {exc}")
            out = None
        return time.perf_counter() - start, out


def run_pass(workload, n: int, tracer=None, host=None) -> Pass:
    """One pass over the first ``n`` ops.  With a tracer each op runs twice
    in a row, untraced and traced in alternating order, so that the tracing
    overhead is measured on the same input under the same host conditions.
    With a ``HostSpeed`` the reference kernel runs between ops, outside
    their timing."""
    result = Pass(0.0, [0.0] * n, [None] * n)
    modes = (False,)
    if tracer is not None:
        result.traced_latencies, result.traced_outputs = [0.0] * n, [None] * n
        modes = (False, True)
    gc.collect()
    if host is not None:
        host.sample(PASS_HOST_SAMPLES)  # passes of a few long ops have few gaps
    start = time.perf_counter()
    for i in range(n):
        if host is not None:
            host.maybe_sample()
        for traced in modes if i % 2 == 0 else modes[::-1]:
            latency, out = _timed_op(workload, i, result.failures, tracer if traced else None)
            if traced:
                result.traced_latencies[i], result.traced_outputs[i] = latency, out
            else:
                result.latencies[i], result.outputs[i] = latency, out
    result.seconds = time.perf_counter() - start
    if host is not None:
        result.host_s = min(host.samples)
    return result


def check_pass(workload, result: Pass) -> None:
    for outputs in (result.outputs, result.traced_outputs or ()):
        for i, out in enumerate(outputs):
            if i in result.failures:
                continue
            try:
                problems = workload.check(i, out)
            except Exception as exc:  # a check that cannot run fails its op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                result.failures[i] = "; ".join(problems)


def measure(workload, seconds: float, tracer=None) -> tuple:
    """Passes while another one fits in ``seconds``, at least one, and with
    a tracer at least one traced pass; returns them with the workload's
    summary of the last pass.  A first pass longer than the others is not
    traced."""
    passes = []
    start = time.perf_counter()
    while True:
        workload.build()  # every pass starts from freshly built, never-used inputs
        n = workload.n_ops if passes else workload.n_first_ops
        result = run_pass(workload, n, tracer if n == workload.n_ops else None, HostSpeed())
        check_pass(workload, result)
        summary = workload.summary(result.outputs)
        result.outputs = result.traced_outputs = None  # keep one pass of outputs alive
        passes.append(result)
        if len(passes) > 1:
            typical = statistics.median(p.seconds for p in passes[1:])
        else:
            typical = result.seconds * workload.n_ops / n
        done = tracer is None or passes[-1].traced_latencies is not None
        if done and time.perf_counter() - start + typical > seconds:
            return passes, summary


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list) -> tuple:
    """(value, percentile, count): the highest percentile with at least ten
    samples beyond it, or the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def relative_costs(passes: list, n_timed: int) -> list:
    """Each timed input's latency over the median latency of its pass,
    median over the passes."""
    ratios = [[] for _ in range(n_timed)]
    for p in passes:
        typical = statistics.median(p.latencies[:n_timed])
        for i in range(n_timed):
            ratios[i].append(p.latencies[i] / typical)
    return [statistics.median(r) for r in ratios]


def end_to_end(setup_s: float, setup_host_s: float, passes: list, n_timed: int) -> tuple:
    """The end-to-end metrics, with times scaled to the reference host
    speed (by the kernel's fastest time in the run; set-up time by its
    fastest during set-up), and details including the unscaled times.

    The host runs up to 2x slower for seconds at a time, in bursts too short
    for a pass time or a median over latencies to average out.  So the
    latency level is the median over the timed inputs of each one's fastest
    latency in the run, and the inputs' costs relative to each other, which
    the host's speed does not change, are medians over the passes: run_s is
    the level times the sum of the relative costs, op_tail_ms the level
    times their tail."""
    level = statistics.median(min(p.latencies[i] for p in passes) for i in range(n_timed))
    costs = relative_costs(passes, n_timed)
    tail_cost, pct, n = tail(costs)
    unscaled = {
        "setup_s": setup_s,
        "run_s": level * math.fsum(costs),
        "op_p50_ms": 1e3 * level,
        "op_tail_ms": 1e3 * level * tail_cost,
    }
    # The fastest over set-up too: between the ops of a pass the package's
    # own BLAS threads may still hold the other core.
    scale = REFERENCE_S / min([setup_host_s] + [p.host_s for p in passes])
    values = {k: v * scale for k, v in unscaled.items()}
    values["setup_s"] = setup_s * REFERENCE_S / setup_host_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {
        "op_tail_percentile": pct,
        "inputs": n,
        "passes": len(passes),
        "host_scale": scale,
        "setup_host_scale": REFERENCE_S / setup_host_s,
        "unscaled": unscaled,
    }
    return values, details


def per_layer(tracer, passes: list) -> dict:
    """Per pass: calls, total and self ms of every traced function, the
    counters, the dedupe ratio, and the tracing overhead over the same ops."""
    from spans import COUNTERS, TRACED

    passes = [p for p in passes if p.traced_latencies is not None]
    k = len(passes)
    values = {}
    for name in [f"{m}.{a}" for m, a in TRACED] + ["bench.op"]:
        values[f"{name}.calls"] = tracer.calls.get(name, 0) / k
        values[f"{name}.ms"] = 1e3 * tracer.total.get(name, 0.0) / k
        values[f"{name}.self_ms"] = 1e3 * tracer.self_time.get(name, 0.0) / k
    for counter, _ in COUNTERS.values():
        values[counter] = tracer.counts.get(counter, 0) / k
    # distributions check_abstraction kept after dedupe, per one it computed
    computed = tracer.namespace_calls.get(("abstraction", "core.distribution"), 0) / k
    kept = values.pop("abstraction.kept_distributions")
    values["abstraction.kept_per_solution"] = kept / computed if computed else 0.0
    traced = sum(x for p in passes for x in p.traced_latencies)
    untraced = sum(x for p in passes for x in p.latencies)
    values["trace.overhead_frac"] = traced / untraced - 1.0
    return values


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith((".ms", "_ms")):
        return "ms"
    if name.endswith("_frac") or name.endswith("_per_solution"):
        return "frac"
    return "count"


# ---------------------------------------------------------------------------
# Entry point


def run_one(args) -> dict:
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s, setup_host_s, setup_samples = setup_seconds(workload)
    tracer = Tracer() if args.trace else None
    passes, summary = measure(workload, args.seconds, tracer)
    details = {"setup": setup_samples, "pass_s": [p.seconds for p in passes], "workload": summary}
    if tracer is None:
        values, extra = end_to_end(setup_s, setup_host_s, passes, workload.n_ops)
        details.update(extra)
    else:
        values = per_layer(tracer, passes)
        traced = [p for p in passes if p.traced_latencies is not None]
        details["untraced_ops_s"] = [sum(p.latencies) for p in traced]
        details["traced_ops_s"] = [sum(p.traced_latencies) for p in traced]
    # one attempt per input and pass, also where a traced pass runs it twice
    attempted = sum(len(p.latencies) for p in passes)
    failures = {f"pass{j}/op{i}": r for j, p in enumerate(passes) for i, r in p.failures.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }

    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    OUT.mkdir(exist_ok=True)
    env = environment(args, workload)
    record = {
        "environment": env,
        "result": result,
        "details": details,
        "failures": dict(list(failures.items())[:50]),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.npz")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"  python {env['python']}, numpy {env['numpy']}, {env['blas']['name']} "
        f"{env['blas']['threads']} threads, nproc {env['nproc']}, "
        f"PYTHONHASHSEED={env['PYTHONHASHSEED']}, src {env['src_sha256'][:12]}, git {env['git_sha']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    if tracer is None:
        print(
            f"  (op_tail_ms is p{details['op_tail_percentile']:.3f} of {details['inputs']} inputs; "
            f"{details['passes']} passes; times scaled by host speed {details['host_scale']:.4f})"
        )
    for name, entry in summary.items():
        print(f"  {name}: " + ", ".join(f"{k}={v:.6g}" for k, v in entry.items()))
    for key, reason in list(failures.items())[:5]:
        print(f"  FAILED {key}: {reason}")
    print(f"  ops attempted {attempted}, failed {len(failures)}; details in {OUT / stem}.json")
    return result


def run_all(args) -> dict:
    """Each workload in its own interpreter, so that set-up and memory are
    measured the same way as a single-workload run."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    try:
        import_package()
    except (PackageMissing, ImportError) as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 1
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
