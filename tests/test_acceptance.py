"""End-to-end acceptance gate.

One test per criterion; each prints a single summary line
``[criterion N] <what>: PASS|FAIL (<measured numbers>)`` before asserting,
so the verdict and the measured values survive into the captured output
either way.  Run with ``pytest tests/test_acceptance.py -v -s`` to see all
eight lines directly.
"""

import time
from pathlib import Path

import numpy as np

from dqsa.basis import all_patterns
from dqsa.experiments import (
    SUMMARY_GROVER,
    SUMMARY_PHI_P,
    SUMMARY_PRESENT,
    SweepSpec,
    appendix_reproduce,
    sweep,
    sweep_to_csv,
)
from dqsa.gates import w_gate
from dqsa.search import RunConfig, points_per_block
from dqsa.synthesis import compose_w, verification_sweep

from helpers import (
    dense_diffusion,
    grover_closed_form,
    record_blocks,
    recurrence_width,
    report,
    worst_row_vs_report,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def _verdict(k: int, what: str, ok: bool, detail: str):
    print(f"[criterion {k}] {what}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {k} failed: {detail}"


def test_criterion_1_grover_column():
    t0 = time.perf_counter()
    computed = {n: report(RunConfig(n, "e" * n, 1.0)).marked_prob for n in range(2, 10)}
    elapsed = time.perf_counter() - t0
    worst_ref = max(abs(computed[n] - SUMMARY_GROVER[n]) for n in range(2, 10))
    worst_closed = max(abs(computed[n] - grover_closed_form(n)) for n in range(2, 10))
    ok = worst_ref <= 5e-4 and worst_closed <= 1e-9 and elapsed < 1.0
    _verdict(1, "phi=1 column, n=2..9", ok,
             f"worst vs column {worst_ref:.2e}, vs closed form {worst_closed:.2e}, "
             f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_present_column():
    details = []
    ok = True
    for n in range(2, 6):
        rho = report(RunConfig(n, "e" * n, SUMMARY_PHI_P[n])).marked_prob
        ok = ok and rho >= 0.999
        details.append(f"n={n} {rho:.5f}")
    worst = 0.0
    for n in range(6, 10):
        rho = report(RunConfig(n, "e" * n, SUMMARY_PHI_P[n])).marked_prob
        worst = max(worst, abs(rho - SUMMARY_PRESENT[n]))
    ok = ok and worst <= 1e-3
    _verdict(2, "peak-phase column, n=2..9", ok,
             f"{'; '.join(details)}; worst n>=6 deviation {worst:.2e}")


def test_criterion_3_reference_tables():
    clean = (2, 4, 5, 6, 7, 8, 9, 10)
    worst_clean = 0.0
    ok = True
    for tid in clean:
        rep = appendix_reproduce(tid)
        ok = ok and rep.all_pass
        worst_clean = max(worst_clean, rep.worst)
    # tables 3 and 11: systematic offset under the default convention --
    # bounded, documented in README, and absent under the tabulated one
    worst_offset = 0.0
    for tid in (3, 11):
        composite = appendix_reproduce(tid)
        tabulated = appendix_reproduce(tid, convention="tabulated")
        ok = ok and not composite.all_pass and 2e-3 < composite.worst <= 9e-3
        ok = ok and tabulated.all_pass
        worst_offset = max(worst_offset, composite.worst)
    documented = "Known systematic offset" in README.read_text()
    ok = ok and documented
    _verdict(3, "bundled tables 2-11 at 2e-3", ok,
             f"tables {clean} worst {worst_clean:.2e}; offset tables (3, 11) "
             f"worst {worst_offset:.2e}, bounded and documented={documented}, "
             f"tabulated convention passes")


def test_criterion_4_gate_realization():
    t0 = time.perf_counter()
    rows = verification_sweep(ns=(2, 3, 4), draws=20)
    elapsed = time.perf_counter() - t0
    worst = max(w for _, w in rows)
    ok = len(rows) == 28 and worst <= 1e-10 and elapsed < 5.0
    _verdict(4, "coupling synthesis, 28 patterns x 20 draws", ok,
             f"worst deviation {worst:.2e}, {elapsed:.2f} s")


def test_criterion_5_pulse_composition():
    worst = max(np.max(np.abs(compose_w(g) - w_gate(g, "composite")))
                for g in (0.0, 0.00885, 0.5, 0.8, 2.0, 3.9))
    ok = worst <= 1e-10
    _verdict(5, "three-pulse W composition vs closed form", ok,
             f"worst entrywise difference {worst:.2e}")


def test_criterion_6_invariant_suite():
    rng = np.random.default_rng(6)
    checks = {}

    # norm conserved without damping
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 7))
        pat = all_patterns(n)[int(rng.integers(0, 2**n))]
        rep = report(RunConfig(n, pat, float(rng.uniform(0, 2))))
        worst = max(worst, abs(rep.survival - 1.0))
    checks["lossless survival=1"] = worst <= 1e-12

    # contraction with damping, including strong rates
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 6))
        pat = all_patterns(n)[int(rng.integers(0, 2**n))]
        rates = tuple(rng.uniform(0, 3.5, size=n))
        rep = report(RunConfig(n, pat, float(rng.uniform(0, 2)), rates))
        worst = max(worst, rep.survival)
    checks["survival<=1"] = worst <= 1.0 + 1e-9

    # diffusion symmetry at arbitrary rates; uniform diagonal without damping
    worst_sym, worst_diag = 0.0, 0.0
    for _ in range(15):
        n = int(rng.integers(2, 5))
        phi = float(rng.uniform(0, 2))
        d = dense_diffusion(n, phi, tuple(rng.uniform(0, 3.5, size=n)))
        worst_sym = max(worst_sym, float(np.max(np.abs(d - d.T))))
        d0 = np.diag(dense_diffusion(n, phi, (0.0,) * n))
        worst_diag = max(worst_diag, float(np.max(np.abs(d0 - d0[0]))))
    checks["diffusion symmetric"] = worst_sym <= 1e-12
    checks["uniform diagonal at rates 0"] = worst_diag <= 1e-12

    # phi=0 leaves the uniform distribution
    worst = 0.0
    for n in (1, 3, 5):
        rep = report(RunConfig(n, "e" * n, 0.0))
        worst = max(worst, abs(rep.marked_prob - 2.0**-n),
                    max(abs(v - 2.0**-n) for v in rep.unmarked.values()))
    checks["phi=0 uniform"] = worst <= 1e-12

    # without damping the success probability ignores the marked pattern
    worst = 0.0
    for n in (2, 4, 6):
        phi = float(rng.uniform(0, 2))
        rhos = [report(RunConfig(n, p, phi)).marked_prob for p in all_patterns(n)]
        worst = max(worst, max(rhos) - min(rhos))
    checks["pattern symmetry at rates 0"] = worst <= 1e-10

    # uniform damping favors the all-ground marked state over all-excited
    ordered = True
    for phi in (0.2, 0.5, 0.8661, 1.0, 1.5, 2.0):
        for g in (0.05, 0.2, 0.5, 0.8, 0.99):
            rates = (g,) * 5
            rho_g = report(RunConfig(5, "ggggg", phi, rates)).marked_prob
            rho_e = report(RunConfig(5, "eeeee", phi, rates)).marked_prob
            ordered = ordered and rho_g >= rho_e - 1e-12
    checks["all-g >= all-e under uniform damping"] = ordered

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _verdict(6, "invariant suite (7 properties)", ok,
             "all hold" if ok else f"failed: {failed}")


def test_criterion_7_peak_phase_anchors():
    rho4 = report(RunConfig(4, "egee", 0.45008)).marked_prob
    rho5 = report(RunConfig(5, "geege", 0.86608)).marked_prob
    ok = abs(rho4 - 0.8332) <= 1e-3 and rho5 >= 0.999
    _verdict(7, "off-peak anchors n=4/n=5", ok,
             f"rho(egee)={rho4:.5f} vs 0.8332, rho(geege)={rho5:.5f}")


def test_criterion_8_sweep_performance_and_determinism(monkeypatch):
    spec = SweepSpec(n=9, marked="e" * 9, axis="phase",
                     start=0.001, stop=2.0, steps=1000)
    t0 = time.perf_counter()
    first = sweep_to_csv(sweep(spec))
    elapsed = time.perf_counter() - t0
    second = sweep_to_csv(sweep(spec))
    # grids one point past a state block and one past a recurrence block,
    # each planned in both stages and row by row against standalone reports
    size, width = points_per_block(9, 8), recurrence_width(9, 8)
    planned, worst = True, 0.0
    for steps, recurrence, state in ((size + 1, [size + 1], [size, 1]),
                                     (width + 1, [width, 1], [size] * (width // size) + [1])):
        split_spec = SweepSpec(n=9, marked="e" * 9, axis="phase", start=0.001, stop=2.0,
                               steps=steps)
        with monkeypatch.context() as patch:
            blocks = record_blocks(patch)
            rows = sweep(split_spec)
        planned &= blocks.recurrence == recurrence and blocks.state == state
        worst = max(worst, worst_row_vs_report(rows, split_spec))
    ok = elapsed < 5.0 and first == second and planned and width > size and worst <= 1e-15
    _verdict(8, "1000-point n=9 sweep", ok,
             f"{elapsed:.2f} s; rerun identical={first == second}, "
             f"{size + 1}- and {width + 1}-point grids in blocks of {width} and {size} "
             f"as planned={planned} vs report worst {worst:.1e}")
