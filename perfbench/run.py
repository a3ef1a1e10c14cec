"""Benchmark of the dqsa command-line interface.

Drives ``dqsa.cli.main(argv)`` in this one process, with no threads: a
closed loop with one client, where each operation is one CLI invocation
(``sweep-n9``, ``deep-n12``) or one reproduction pass of 15 invocations
(``reproduce``).  Every output is checked against an independent reference
(``reference.py``) outside the timed region.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-n9 --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run (see
``tracing.py``), in which every other operation runs untraced so the tracing
overhead can be stated.  Lines before it give every metric by name and
unit, and the provenance of the result.  Results, and in traced runs the
spans, are also written under ``.perfbench/`` in the checkout.

Each operation starts with the package's caches emptied, as a fresh ``dqsa``
process would; the import itself is timed separately as ``setup_s``.
Outputs go to a fresh path per call under ``.perfbench/``, deleted after its
check: rewriting one existing file made the filesystem, not dqsa, dominate
small operations.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Fresh interpreter starts per run, each paired with a reference start (see
# below).  The first runs before the loop, the rest are spread over it,
# between operations, so the median does not hang on the machine's speed
# during one short window.
SETUP_STARTS = 11
P90_MIN_OPS = 100       # op_s.p90 needs at least ten samples above it
ENV_VARS = ("DQSA_THREADS", "DQSA_KERNELS")

# Times are reported scaled to a machine of fixed speed.  On a shared VM
# whose speed drifted by up to 1.8x, for seconds to minutes at a time, the
# medians of ten runs of the same code spread by up to 45% (quartile
# distance over median); scaled, by 1-5%.
# The yardsticks are benchmark code, so a change to dqsa moves a scaled time
# by the same factor as the raw one.
# - Operations: a fixed calibration pass (see calibration_pass) runs
#   between operations, taking CAL_SHARE of an untraced run.  Each
#   operation is scaled by CAL_NOMINAL_S over the median of the CAL_WINDOW
#   passes before it and the CAL_WINDOW after it.
# - Cold starts: each one is paired with a fresh interpreter that only
#   imports numpy, and setup_s is the median ratio times REF_START_NOMINAL_S.
#   Process start-up and file loading drift apart from compute speed, so
#   the calibration pass does not track them.
CAL_ROUNDS = 80
CAL_NOMINAL_S = 0.013
CAL_SHARE = 0.08
CAL_WINDOW = 3
REF_START = ("-c", "import numpy")
REF_START_NOMINAL_S = 0.06

END_TO_END_UNITS = {"op_s.p50": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s/op", "cli.out_bytes": "B/op",
    "experiments.self_s": "s/op", "experiments.format_s": "s/op",
    "search.report.calls": "count/op", "search.report.self_s": "s/op",
    "search.run.self_s": "s/op",
    "gates.build.calls": "count/op", "gates.build_s": "s/op", "gates.cache_hit_ratio": "ratio",
    "kernels.single_qubit.calls": "count/op", "kernels.diagonal.calls": "count/op",
    "kernels.busy_s": "s/op", "kernels.bytes_computed": "B/op",
    "basis.pattern_of.calls": "count/op",
    "synthesis.verify.calls": "count/op", "synthesis.busy_s": "s/op",
    "trace.overhead_s": "s/op",
}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed loop, in seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cold_start(args: list, env: dict) -> float:
    """Seconds for one fresh interpreter to run ``args``."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        fail(f"cold start {args} failed:\n{done.stderr.strip()}")
    return seconds


def calibration_pass() -> float:
    """Seconds for a fixed mix of the three kinds of work dqsa does: 2x2
    contractions over a 9-qubit state, as its kernels do; a dict of all
    12-qubit pattern labels, as its reports build; and floats formatted into
    CSV lines, as its output is."""
    import numpy as np
    amps = np.full(512, 512 ** -0.5 + 0j)
    t0 = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        for q in range(1, 10):
            view = amps.reshape(2 ** (q - 1), 2, 2 ** (9 - q))
            x0, x1 = view[:, 0, :].copy(), view[:, 1, :].copy()
            view[:, 0, :] = 0.6 * x0 + 0.8 * x1
            view[:, 1, :] = 0.8 * x0 - 0.6 * x1
    {"".join("e" if (i >> (11 - v)) & 1 else "g" for v in range(12)): i * 1e-3
     for i in range(4096)}
    "\n".join(",".join(f"{(i * 7 + k) * 1.37e-3!r}" for k in range(5))
              for i in range(2000))
    return time.perf_counter() - t0


def import_program():
    """Import dqsa from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import dqsa
    import dqsa.cli
    if Path(dqsa.__file__).resolve().parent != SRC / "dqsa":
        fail(f"imported dqsa from {dqsa.__file__}, not from {SRC}")
    return dqsa, dqsa.cli


def provenance(dqsa, args, env_found: dict) -> dict:
    import numpy
    try:
        from dqsa.kernels import backend_name
        backend = backend_name()
    except ImportError:
        backend = "none"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "dqsa_file": str(Path(dqsa.__file__).resolve().relative_to(ROOT)),
        "dqsa_version": getattr(dqsa, "__version__", "unknown"),
        "kernel_backend": backend,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "env_found": env_found, "env_during_run": {v: None for v in ENV_VARS},
        "loop": "closed, 1 client, no threads",
        "outputs": "fresh path per call under .perfbench/, deleted after its check",
        "caches": "package caches emptied before every operation",
    }


def reset_program_caches():
    """Empty every functools cache in the dqsa package, as a new process has."""
    for name, module in list(sys.modules.items()):
        if name == "dqsa" or name.startswith("dqsa."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def execute(cli, calls, tmp: Path, op_id: int, tracer=None):
    """Run one operation; returns (seconds, [(exit code, output, stderr)], bytes)."""
    main = cli.main if tracer is None else (lambda argv: tracer.root(cli.main, argv))
    results, seconds, out_bytes = [], 0.0, 0
    for j, call in enumerate(calls):
        path = tmp / f"op{op_id}-{j}{call.out}" if call.out else None
        argv = list(call.argv) + (["--out", str(path)] if path else [])
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:         # argparse rejected the argv
                code = e.code
            except Exception:               # the program failed; keep measuring
                code = "exception"
                err.write(traceback.format_exc())
        seconds += time.perf_counter() - t0
        if path is not None:
            text = path.read_text() if path.exists() else ""
            path.unlink(missing_ok=True)
        else:
            text = out.getvalue()
        out_bytes += len(text.encode())
        results.append((code, text, err.getvalue()))
    return seconds, results, out_bytes


def verify(calls, results, first):
    """Raise CheckFailed unless every call exited 0 with a correct output.

    ``first`` is None to check against the reference, or the outputs of an
    earlier operation with the same inputs, which must match byte for byte.
    """
    for k, (call, (code, text, err)) in enumerate(zip(calls, results)):
        name = " ".join(call.argv[:3])
        if code != 0:
            raise reference.CheckFailed(f"{name}: exit {code}: {err.strip()[-500:]}")
        if first is None:
            try:
                reference.check(call, text)
            except (ValueError, KeyError, TypeError) as e:
                raise reference.CheckFailed(f"{name}: malformed output: {e!r}") from e
        elif text != first[k][1]:
            raise reference.CheckFailed(f"{name}: output differs from operation 0's")


def run_all(args) -> int:
    """Run every workload in its own process; relay each one's output."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1):
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "dqsa" / "cli.py").is_file():
        fail(f"no dqsa sources at {SRC.relative_to(ROOT)}/dqsa; run from a dqsa checkout")
    if args.workload == "all":
        return run_all(args)
    env_found = {v: os.environ.pop(v, None) for v in ENV_VARS}
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, env_found, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


class Harness:
    """The program under test, one workload, and the tally of its operations."""

    def __init__(self, cli, workload, tmp, tracer):
        self.cli, self.workload, self.tmp, self.tracer = cli, workload, tmp, tracer
        self.attempted = self.failed = 0
        self.failures = []
        self.first = None           # outputs of operation 0, on repeating workloads
        self.counts_seen = {}       # inputs -> call counts of a traced operation
        self.op0_counts = None

    def operation(self, op_id: int, traced: bool, inputs_of: int | None = None):
        """Run, check and tally one operation, on the inputs of operation
        ``inputs_of`` (default: its own); returns (seconds, output bytes)."""
        calls = self.workload.ops(op_id if inputs_of is None else inputs_of)
        reset_program_caches()
        gc.collect()
        tracer = self.tracer if traced else None
        if tracer:
            tracer.begin_op(op_id)
        try:
            seconds, results, nbytes = execute(self.cli, calls, self.tmp, op_id, tracer)
        finally:
            if tracer:
                tracer.end_op()
        self.attempted += 1
        repeats = self.workload.repeats
        try:
            verify(calls, results, self.first if repeats else None)
        except reference.CheckFailed as e:
            self.failed += 1
            self.failures.append(f"op {op_id}: {e}")
        else:
            if repeats and self.first is None:
                self.first = results
        if tracer:
            counts = tracer.op_counts()
            if self.counts_seen.setdefault(tuple(c.argv for c in calls), counts) != counts:
                tracer.count_errors.append(f"op {op_id}: call counts differ from an "
                                           "earlier operation with the same inputs")
            if op_id == 0:
                self.op0_counts = dict(counts)
        return seconds, nbytes


def run(args, env_found, tmp) -> int:
    setup = []                            # (dqsa cold start, reference start) seconds

    def measure_setup():
        # a fresh directory each time: rewriting existing files costs more
        workdir = tmp / f"start{len(setup)}"
        probe = [str(HERE / "setup_probe.py"), args.workload, str(args.seed), str(workdir)]
        env = dict(os.environ)
        setup.append((cold_start(probe, env), cold_start(list(REF_START), env)))

    measure_setup()
    dqsa, cli = import_program()
    prov = provenance(dqsa, args, env_found)
    tracer = tracing.Tracer() if args.trace else None
    harness = Harness(cli, workloads.make(args.workload, args.seed, tmp), tmp, tracer)
    timed = {False: [], True: []}         # traced? -> seconds of each timed operation
    layers = []
    calibration = []                      # seconds of each calibration pass
    cal_at_op = []                        # passes run before each untraced operation

    # operation 0 warms up lazy initialisation and is not timed; in a traced
    # run every other operation is untraced, for the tracing overhead
    harness.operation(0, bool(tracer))
    op_id = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (tracer and op_id < 2):
        if time.perf_counter() - start >= len(setup) * args.seconds / SETUP_STARTS:
            measure_setup()
        while not tracer and sum(calibration) <= CAL_SHARE * (time.perf_counter() - start):
            calibration.append(calibration_pass())
        op_id += 1
        traced = bool(tracer) and op_id % 2 == 1
        if not tracer:
            cal_at_op.append(len(calibration))
        seconds, nbytes = harness.operation(op_id, traced)
        timed[traced].append(seconds)
        if traced:
            layers.append(dict(tracer.op_layers(), **{"cli.out_bytes": nbytes}))
    while len(setup) < SETUP_STARTS:
        measure_setup()
    if tracer:
        # replay operation 0: its call counts must repeat exactly
        harness.operation(op_id + 1, True, inputs_of=0)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    counted = (f"{len(timed[False])} untraced and {len(timed[True])} traced" if tracer
               else f"{len(timed[False])}")
    lines = [f"workload {args.workload} seed {args.seed}: {counted} timed operations after "
             f"1 warm-up; {harness.attempted} attempted, {harness.failed} failed"]
    if tracer:
        metrics, more, correct = per_layer(tracer, timed, layers, harness.op0_counts)
        units = PER_LAYER_UNITS
    else:
        metrics, more = end_to_end(timed[False], cal_at_op, calibration, setup,
                                   peak_rss_mib, harness)
        correct = True
        units = END_TO_END_UNITS
    lines += more
    correct = correct and harness.failed == 0
    lines += [f"FAILED {msg}" for msg in harness.failures[:5]]

    result = {"correct": correct, "attempted": harness.attempted, "failed": harness.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{stem}.json").write_text(json.dumps(
        {"provenance": prov, "result": result,
         "op_seconds": {"untraced": timed[False], "traced": timed[True]},
         "setup_seconds": setup, "calibration_seconds": calibration,
         "calibration_passes_before_op": cal_at_op, "op0_counts": harness.op0_counts,
         "failures": harness.failures}, indent=1) + "\n")
    if tracer:
        tracer.write(WORK / f"spans-{stem}.csv.gz")
    print("provenance " + json.dumps(prov))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if correct else 1


def end_to_end(ops, cal_at_op, calibration, setup, peak_rss_mib, harness):
    """Metrics of an untraced run, with times scaled to the nominal speed."""
    scaled = [t * CAL_NOMINAL_S / statistics.median(calibration[max(0, c - CAL_WINDOW):
                                                                c + CAL_WINDOW])
              for t, c in zip(ops, cal_at_op)]
    start_ratio = statistics.median(t / ref for t, ref in setup)
    metrics = {"op_s.p50": statistics.median(scaled),
               "ops_per_s": len(scaled) / sum(scaled),
               "setup_s": start_ratio * REF_START_NOMINAL_S,
               "peak_rss_mib": peak_rss_mib}
    p90 = (f"{statistics.quantiles(scaled, n=10, method='inclusive')[-1]:.6f} s "
           f"(n={len(ops)})" if len(ops) >= P90_MIN_OPS
           else f"not reported: {len(ops)} operations < {P90_MIN_OPS}")
    lines = [f"scaled to a calibration pass of {CAL_NOMINAL_S} s (median here "
             f"{statistics.median(calibration):.6f} s, {len(calibration)} passes) and a "
             f"reference start of {REF_START_NOMINAL_S} s (median here "
             f"{statistics.median(ref for _, ref in setup):.6f} s)",
             f"op_s.p50 {metrics['op_s.p50']:.6f} s (n={len(ops)}; "
             f"unscaled {statistics.median(ops):.6f} s)",
             f"op_s.p90 {p90}",
             f"ops_per_s {metrics['ops_per_s']:.4f} 1/s (unscaled {len(ops) / sum(ops):.4f} 1/s)",
             f"setup_s {metrics['setup_s']:.6f} s (median ratio {start_ratio:.4f} over "
             f"{len(setup)} cold starts; unscaled "
             f"{statistics.median(t for t, _ in setup):.6f} s)",
             f"peak_rss_mib {peak_rss_mib:.1f} MiB",
             f"error_rate {harness.failed / harness.attempted:.6g} ratio "
             f"({harness.failed}/{harness.attempted})"]
    return metrics, lines


def per_layer(tracer, timed, layers, op0_counts):
    traced, untraced = statistics.median(timed[True]), statistics.median(timed[False])
    metrics = {k: statistics.fmean(d[k] for d in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = traced - untraced
    lines = [f"tracing overhead: traced op_s.p50 {traced:.6f} s - untraced {untraced:.6f} s "
             f"= {traced - untraced:+.6f} s ({(traced - untraced) / untraced:+.1%})"]
    lines += [f"{k} {metrics[k]:.6g} {unit}" for k, unit in PER_LAYER_UNITS.items()]
    counts_ok = not tracer.count_errors
    lines.append("call counts: " + ("n(2k+1) single-qubit and 2k diagonal calls per "
                                    "evaluation; identical on repeated inputs"
                                    if counts_ok else "; ".join(tracer.count_errors[:5])))
    lines.append(f"operation 0 call counts: {json.dumps(op0_counts, sort_keys=True)}")
    restored = tracer.restored()
    lines.append(f"hooks removed after the run: {restored}")
    return metrics, lines, counts_ok and restored


if __name__ == "__main__":
    sys.exit(main())
