"""Workload inputs for the dqsa CLI benchmark, generated from a seed.

A workload is a sequence of operations; an operation is a list of CLI calls
that run back to back in one process (one call for ``sweep-n9`` and
``deep-n12``, one reproduction pass of 15 calls for ``reproduce``).  The
program under test only ever sees the generated argv.

Generation uses ``random.Random`` seeded with strings, which hashes the
string deterministically, so the same seed gives the same inputs on every
interpreter start.
"""

import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("sweep-n9", "deep-n12", "reproduce")

# The 1000-point n=9 phase grid of acceptance criterion 8.
SWEEP_N9_GRID = (0.001, 2.0, 1000)

# Tables 3 and 11 are reproduced under the tabulated W-gate convention, the
# other eight under the default composite one (README "Known systematic
# offset").
APPENDIX_TABLES = tuple((t, "tabulated" if t in (3, 11) else "composite")
                        for t in range(2, 12))

# The two 101-point peak-phase dissipation presets, kept here rather than
# read from the package so the benchmark does not depend on that constant.
DISSIPATION_PRESETS = (
    {"n": 4, "marked": "egee", "phi": 0.45008,
     "gbar": {"start": 0.0, "stop": 1.0, "steps": 101}},
    {"n": 5, "marked": "geege", "phi": 0.86608,
     "gbar": {"start": 0.0, "stop": 1.0, "steps": 101}},
)


@dataclass(frozen=True)
class Call:
    """One CLI invocation.

    ``out`` is the file suffix when the call writes through ``--out`` (the
    runner appends a fresh path), or None when the output goes to stdout.
    ``kind`` and ``params`` tell the checker what the output must contain.
    """

    argv: tuple
    out: str | None
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    ops: Callable[[int], list]   # operation index -> its calls
    repeats: bool                # every operation has the inputs of operation 0


def _pattern(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("ge") for _ in range(n))


def _gammas(rates) -> str:
    return ",".join(repr(g) for g in rates)


def sweep_n9(seed: int) -> Workload:
    rng = random.Random(f"sweep-n9:{seed}")
    marked = _pattern(rng, 9)
    rates = tuple(0.2 * rng.random() for _ in range(9))
    start, stop, steps = SWEEP_N9_GRID
    call = Call(("sweep", "--n", "9", "--marked", marked,
                 "--phi", f"{start}:{stop}:{steps}", "--gammas", _gammas(rates)),
                ".csv", "sweep-phase",
                {"n": 9, "marked": marked, "rates": rates, "grid": SWEEP_N9_GRID})
    return Workload(lambda i: [call], repeats=True)


def deep_n12_call(seed: int, i: int) -> Call:
    rng = random.Random(f"deep-n12:{seed}:{i}")
    marked = _pattern(rng, 12)
    phi = 2.0 - 2.0 * rng.random()                  # (0, 2]
    rates = tuple(0.5 * rng.random() for _ in range(12))
    # Iterations set the cost of an operation.  Each block of 40 operations
    # takes every count in [11, 50] once, in a seeded order, so runs of
    # different seeds time the same mix.
    counts = list(range(11, 51))
    random.Random(f"deep-n12:{seed}:block{i // 40}").shuffle(counts)
    iterations = counts[i % 40]
    return Call(("run", "--n", "12", "--marked", marked, "--phi", repr(phi),
                 "--gammas", _gammas(rates), "--iterations", str(iterations)),
                ".json", "run-json",
                {"n": 12, "marked": marked, "phi": phi, "rates": rates,
                 "iterations": iterations})


def deep_n12(seed: int) -> Workload:
    return Workload(lambda i: [deep_n12_call(seed, i)], repeats=False)


def reproduce(seed: int, workdir: Path) -> Workload:
    calls = [Call(("table1",), ".csv", "table1")]
    for table, convention in APPENDIX_TABLES:
        argv = ("appendix", "--table", str(table))
        if convention != "composite":
            argv += ("--convention", convention)
        calls.append(Call(argv, ".csv", "appendix",
                          {"table": table, "convention": convention}))
    calls.append(Call(("verify-gates", "--seed", str(seed)), None, "verify-gates"))
    calls.append(Call(("peak", "--n", "4", "--marked", "egee"), None, "peak",
                      {"n": 4, "marked": "egee"}))
    for k, preset in enumerate(DISSIPATION_PRESETS):
        path = workdir / f"preset{k}.json"
        path.write_text(json.dumps(preset))
        calls.append(Call(("sweep", "--config", str(path)), ".csv",
                          "sweep-dissipation", dict(preset)))
    return Workload(lambda i: calls, repeats=True)


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Build a workload; ``workdir`` receives any input files it needs."""
    if name == "sweep-n9":
        return sweep_n9(seed)
    if name == "deep-n12":
        return deep_n12(seed)
    if name == "reproduce":
        return reproduce(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
