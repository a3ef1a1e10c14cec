"""Span tracing of dqsa's layers, installed from outside the package.

The tracer replaces module attributes with timing wrappers for the duration
of one operation and restores the originals afterwards.  Each wrapper sits
on the name the *caller* looks up (for example ``dqsa.search.oracle_gate``,
the name ``search`` imported), so only calls along the CLI's path count.

Spans (name, start, end, parent, operation id) are kept in memory and
written out when the run ends.  Two layers are called too often for one
span per call: the kernel sweeps (169k calls per n=9 sweep) and
``pattern_of`` (511k).  Their calls are counted, and the kernels timed, into
the enclosing span instead; the kernel time still counts as child time of
that span, so ``search.run``'s self time excludes it.

Per evaluation (one ``search.run`` call on a config with n qubits and k
iterations) the tracer asserts n(2k+1) single-qubit sweeps and 2k diagonal
multiplies.
"""

import gzip
import importlib
import time
from collections import defaultdict

# (module, attribute, span name): calls that get one span each.
SPAN_HOOKS = (
    ("dqsa.experiments", "phase_sweep", "experiments.compute"),
    ("dqsa.experiments", "dissipation_sweep", "experiments.compute"),
    ("dqsa.experiments", "peak_search", "experiments.compute"),
    ("dqsa.experiments", "table1_comparison", "experiments.compute"),
    ("dqsa.experiments", "appendix_reproduce", "experiments.compute"),
    ("dqsa.experiments", "sweep_to_csv", "experiments.format"),
    ("dqsa.experiments", "sweep_to_json", "experiments.format"),
    ("dqsa.experiments", "comparison_to_csv", "experiments.format"),
    ("dqsa.experiments", "comparison_to_json", "experiments.format"),
    ("dqsa.cli", "report", "search.report"),
    ("dqsa.experiments", "report", "search.report"),
    ("dqsa.search", "run", "search.run"),
    ("dqsa.search", "walsh_layer", "gates.build"),
    ("dqsa.search", "oracle_gate", "gates.build"),
    ("dqsa.cli", "verification_sweep", "synthesis.sweep"),
    ("dqsa.synthesis", "verify_gate_realization", "synthesis.verify"),
)

# (module, attribute, counter, bytes touched per amplitude or None): calls
# that are counted into the enclosing span.  Bytes are computed from array
# sizes (read + write of complex128 amplitudes, plus the diagonal's entries),
# not measured.
LEAF_HOOKS = (
    ("dqsa.search", "apply_single_qubit_inplace", "kernels.single_qubit", 32),
    ("dqsa.search", "apply_diagonal_inplace", "kernels.diagonal", 48),
    ("dqsa.search", "pattern_of", "basis.pattern_of", None),
)

ROOT = "cli.main"


class _Frame:
    __slots__ = ("sid", "t0", "child_s", "single", "diagonal", "expect")

    def __init__(self, sid):
        self.sid = sid
        self.t0 = self.child_s = 0.0
        self.single = self.diagonal = 0
        self.expect = None


class Tracer:
    def __init__(self):
        self.spans = []           # (op, span id, parent id, name, start, end)
        self.count_errors = []
        self._stack = []
        self._op = None
        self._next_sid = 0
        self._saved = []
        self.originals = {}
        for module, attr, *_ in SPAN_HOOKS + LEAF_HOOKS:
            mod = importlib.import_module(module)
            if hasattr(mod, attr):
                self.originals[(module, attr)] = getattr(mod, attr)
        self.kernel_hooks = all(("dqsa.search", a) in self.originals for a in
                                ("apply_single_qubit_inplace", "apply_diagonal_inplace"))
        self.reset_op()

    # ------------------------------------------------------------ per op

    def reset_op(self):
        # per name: [calls, total seconds, self seconds]
        self.by_name = defaultdict(lambda: [0, 0.0, 0.0])
        # per counter: [calls, seconds, bytes computed]
        self.leaves = defaultdict(lambda: [0, 0.0, 0])

    def begin_op(self, op_id):
        """Start operation ``op_id``: clear its numbers, install the hooks."""
        self.reset_op()
        self._op = op_id
        self._install()

    def root(self, fn, *args):
        """Call fn(*args), the CLI entry point, as a root span."""
        return self._span(ROOT, fn, args)

    def end_op(self):
        self._uninstall()

    # ------------------------------------------------------------ wrappers

    def _install(self):
        for module, attr, name in SPAN_HOOKS:
            self._patch(module, attr, self._span_wrapper(name))
        for module, attr, counter, bpa in LEAF_HOOKS:
            self._patch(module, attr, self._leaf_wrapper(counter, bpa))

    def _patch(self, module, attr, make):
        original = self.originals.get((module, attr))
        if original is not None:
            mod = importlib.import_module(module)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, make(original))

    def _uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def restored(self) -> bool:
        """True when every hooked name is the original object again."""
        return all(getattr(importlib.import_module(m), a) is fn
                   for (m, a), fn in self.originals.items())

    def _span_wrapper(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self._span(name, fn, args, kwargs)
            return wrapper
        return make

    def _span(self, name, fn, args, kwargs=None):
        self._next_sid += 1
        frame = _Frame(self._next_sid)
        if name == "search.run" and self.kernel_hooks:
            cfg = args[0]
            frame.expect = (cfg.n * (2 * cfg.iterations + 1), 2 * cfg.iterations)
        parent = self._stack[-1].sid if self._stack else 0
        self._stack.append(frame)
        frame.t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - frame.t0
            agg = self.by_name[name]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame.child_s
            if self._stack:
                self._stack[-1].child_s += dur
            self.spans.append((self._op, frame.sid, parent, name, frame.t0, t1))
            if frame.expect and frame.expect != (frame.single, frame.diagonal):
                self.count_errors.append(
                    f"op {self._op}: {name} made {frame.single} single-qubit and "
                    f"{frame.diagonal} diagonal calls, expected {frame.expect}")

    def _leaf_wrapper(self, counter, bytes_per_amp):
        leaves, stack = self.leaves, self._stack
        if bytes_per_amp is None:
            def make(fn):
                agg = leaves[counter]

                def wrapper(*args):
                    agg[0] += 1
                    return fn(*args)
                return wrapper
            return make
        single = counter == "kernels.single_qubit"

        def make(fn):
            agg = leaves[counter]

            def wrapper(amps, *rest):
                t0 = time.perf_counter()
                fn(amps, *rest)
                dt = time.perf_counter() - t0
                agg[0] += 1
                agg[1] += dt
                agg[2] += bytes_per_amp * amps.size
                frame = stack[-1]
                frame.child_s += dt
                if single:
                    frame.single += 1
                else:
                    frame.diagonal += 1
            return wrapper
        return make

    # ------------------------------------------------------------ results

    def op_counts(self) -> tuple:
        """Every call count of the last operation, for exact comparison."""
        return (tuple(sorted((k, v[0]) for k, v in self.by_name.items()))
                + tuple(sorted((k, v[0]) for k, v in self.leaves.items())))

    def op_layers(self) -> dict:
        """Per-layer numbers of the last operation."""
        span = self.by_name
        leaf = self.leaves
        reports = span["search.report"][0]
        builds = span["gates.build"][0]
        return {
            "cli.self_s": span[ROOT][2],
            "experiments.self_s": span["experiments.compute"][2],
            "experiments.format_s": span["experiments.format"][1],
            "search.report.calls": reports,
            "search.report.self_s": span["search.report"][2],
            "search.run.self_s": span["search.run"][2],
            "gates.build.calls": builds,
            "gates.build_s": span["gates.build"][1],
            "gates.cache_hit_ratio": 1.0 - builds / (3 * reports) if reports else 0.0,
            "kernels.single_qubit.calls": leaf["kernels.single_qubit"][0],
            "kernels.diagonal.calls": leaf["kernels.diagonal"][0],
            "kernels.busy_s": leaf["kernels.single_qubit"][1] + leaf["kernels.diagonal"][1],
            "kernels.bytes_computed": leaf["kernels.single_qubit"][2] + leaf["kernels.diagonal"][2],
            "basis.pattern_of.calls": leaf["basis.pattern_of"][0],
            "synthesis.verify.calls": span["synthesis.verify"][0],
            "synthesis.busy_s": span["synthesis.sweep"][1],
        }

    def write(self, path):
        """Write every span as CSV (gzip): op,id,parent,name,start,end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,id,parent,name,start,end\n")
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{op},{sid},{parent},{name},{t0:.9f},{t1:.9f}\n")
