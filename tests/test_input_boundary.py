"""Every bad config value is rejected where it enters, by each route in: a
JSON config, the CLI flag where one exists, and the Python constructor.

On the CLI a rejected value exits 1, prints nothing on stdout and names its
field on stderr.  Each example takes a valid run, phase-sweep or gbar
(dissipation-sweep) config and spoils one field with one bad value: NaN,
inf, a bool, a negative number, a phase above 2, a wrong length, a wrong
type, an empty list or null.
"""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dqsa.cli import main
from dqsa.errors import DqsaError
from dqsa.experiments import SweepSpec
from dqsa.search import RunConfig

GRID = {"start": 0.1, "stop": 0.9, "steps": 4}
BASE = {  # a valid config of each kind, n = 3
    "run": {"n": 3, "marked": "ege", "phi": 0.7},
    "phase": {"n": 3, "marked": "ege", "phi": GRID},
    "gbar": {"n": 3, "marked": "ege", "phi": 0.7, "gbar": GRID},
}
COMMAND = {"run": "run", "phase": "sweep", "gbar": "sweep"}
CONSTRUCTOR = {  # the same configs built in Python
    "run": lambda **kw: RunConfig(**dict(n=3, marked="ege", phi=0.7) | kw),
    "phase": lambda **kw: SweepSpec(**dict(n=3, marked="ege", axis="phase", **GRID) | kw),
    "gbar": lambda **kw: SweepSpec(**dict(n=3, marked="ege", axis="dissipation", phi=0.7,
                                          **GRID) | kw),
}

negatives = st.floats(max_value=-1e-9, allow_infinity=False) | st.integers(max_value=-1)
not_numbers = st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "half", [],
                               [0.5], {"x": 1}, 10**400])
bad_reals = not_numbers | negatives
# a phase is an angle in [0, 2]
bad_phases = bad_reals | st.floats(min_value=2.0000000000000004, allow_infinity=False)
bad_counts = st.sampled_from([math.nan, math.inf, True, False, "two", 2.5, [], [2], {"x": 1}])
bad_entries = st.sampled_from([math.nan, math.inf, True, None, "x", [0.1]]) | negatives


@st.composite
def bad_gammas(draw, overdamped=True):
    """A gammas value that is not 3 rates (or 3 weights when not
    ``overdamped``, since a weight of 4 or more is no error on its own)."""
    kinds = ["type", "length", "entry"] + (["overdamped"] if overdamped else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "type":
        return draw(st.sampled_from([None, [], "abc", 0.5, True, {"x": 1}]))
    if kind == "length":
        return draw(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6)
                    .filter(lambda v: len(v) != 3))
    value = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3))
    value[draw(st.integers(min_value=0, max_value=2))] = draw(
        bad_entries if kind == "entry" else st.floats(min_value=4.0, allow_infinity=False))
    return value


BAD_MARKED = st.sampled_from([None, True, 5, math.nan, "", "ee", "eeee", ["e", "g", "e"]]) | (
    st.text("gex", min_size=1, max_size=14).filter(lambda s: len(s) != 3 or "x" in s))
BAD_CONVENTION = st.sampled_from([None, True, 1, "", "bogus", "Composite", ["composite"]])
BAD_GRID = st.sampled_from([None, True, 0.5, "grid", [], [0.1, 0.9, 4], {"start": 0.1, "stop": 0.9},
                            {"start": 0.1, "stop": 0.9, "steps": 4, "step": 1}])

# (kind, field, bad values, name on stderr for a config, name for a flag)
# n from -2**63 on: `tests/test_cli.py::TestRun::test_n_beyond_int64_exits_1` takes
# those further out
CASES = [
    (kind, "n", bad_counts | st.none() | st.integers(min_value=-2**63, max_value=0),
     r"\bn\b", r"\bn\b")
    for kind in BASE
] + [
    (kind, "marked", BAD_MARKED, "pattern", "pattern") for kind in BASE
] + [
    (kind, "convention", BAD_CONVENTION, "convention", None) for kind in BASE
] + [
    ("run", "phi", bad_phases, "phi", "phi"),
    ("gbar", "phi", bad_phases, "phi", "phi"),
    ("run", "gammas", bad_gammas(), "gammas|rates", "gammas|rates"),
    ("phase", "gammas", bad_gammas(), "gammas|rates", "gammas|rates"),
    ("gbar", "gammas", bad_gammas(overdamped=False), "gammas", "gammas"),
    # past 2046 rounds at n=3 one run outgrows an engine block; the counts
    # above it stay small, so that a lost bound fails fast, not out of memory
    ("run", "iterations", bad_counts | st.none() | st.integers(max_value=0)
     | st.integers(min_value=2047, max_value=2220), "iterations", "iterations"),
    ("phase", "start", bad_reals, "phi start", "phi"),
    ("phase", "stop", bad_reals, "phi stop", "phi"),
    ("phase", "steps", bad_counts | st.none() | st.integers(max_value=1), "steps", "steps|--phi"),
    ("gbar", "start", bad_reals, "gbar start", None),
    ("gbar", "stop", bad_reals, "gbar stop", None),
    ("gbar", "steps", bad_counts | st.none() | st.integers(max_value=1), "steps", None),
    ("phase", "phi", BAD_GRID.filter(lambda v: isinstance(v, dict)), "phi", None),
    ("gbar", "gbar", BAD_GRID, "gbar", None),
]
GRID_PARTS = ("start", "stop", "steps")


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def spoiled(kind, field, value) -> dict:
    """The kind's valid config with ``field`` set to ``value``."""
    raw = json.loads(json.dumps(BASE[kind]))
    if field in GRID_PARTS:
        raw["phi" if kind == "phase" else "gbar"][field] = value
    else:
        raw[field] = value
    return raw


def text(value) -> str:
    """``value`` as typed after a flag."""
    return value if isinstance(value, str) else str(value)


def flag(field, value):
    """The flag and its text that set ``field`` to ``value``; the text of a
    list of gammas is a comma list."""
    if field in GRID_PARTS:
        return "--phi", ":".join(text(value if p == field else GRID[p]) for p in GRID_PARTS)
    if field == "gammas" and isinstance(value, list):
        return "--gammas", ",".join(map(text, value))
    return f"--{field}", text(value)


def assert_rejected(argv, name):
    code, out, err = cli(argv)
    assert code == 1, err
    assert out == ""
    assert re.search(name, err), err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A folder holding each kind's valid config, as <kind>.json."""
    root = tmp_path_factory.mktemp("configs")
    for kind, raw in BASE.items():
        (root / f"{kind}.json").write_text(json.dumps(raw))
    return root


@pytest.mark.parametrize("kind", sorted(BASE))
def test_valid_bases_are_accepted(workdir, kind):
    # so that each rejection below comes from the one spoiled field
    assert cli([COMMAND[kind], "--config", str(workdir / f"{kind}.json")])[0] == 0
    assert CONSTRUCTOR[kind]()


@pytest.mark.parametrize("kind,field,values,config_name,flag_name", CASES,
                         ids=[f"{case[0]}-{case[1]}" for case in CASES])
@given(data=st.data())
def test_bad_value_rejected_by_every_route(workdir, kind, field, values, config_name, flag_name,
                                           data):
    value = data.draw(values, label=field)
    path = workdir / "spoiled.json"
    path.write_text(json.dumps(spoiled(kind, field, value)))
    assert_rejected([COMMAND[kind], "--config", str(path)], config_name)
    if flag_name:  # the flag overrides the field of the kind's valid config
        name, text = flag(field, value)
        assert_rejected([COMMAND[kind], "--config", str(workdir / f"{kind}.json"),
                         f"{name}={text}"], flag_name)
    if (kind, field) in (("phase", "phi"), ("gbar", "gbar")):
        return  # a grid object has no constructor argument
    key = {"run": "rates", "phase": "rates", "gbar": "weights"}[kind] if field == "gammas" else field
    defaults = ("rates", "weights", "iterations") + (("phi",) if kind == "gbar" else ())
    if value is None and key in defaults:
        return  # None is the constructors' "take the default": only the schema rejects it
    with pytest.raises((ValueError, DqsaError)):
        CONSTRUCTOR[kind](**{key: value})


@pytest.mark.parametrize("n,limit", [(9, 657), (12, 346)])
def test_iterations_past_one_run_per_block_rejected(tmp_path, n, limit):
    # the most rounds for which one run fits an engine block, named with its
    # n on every route; the limit itself is accepted
    message = rf"iterations must be <= {limit} at n={n}\b"
    raw = {"n": n, "marked": "e" * n, "phi": 0.7, "iterations": limit + 1}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(raw))
    assert_rejected(["run", "--config", str(path)], message)
    assert_rejected(["run", "--n", str(n), "--marked", "e" * n, "--phi", "0.7",
                     f"--iterations={limit + 1}"], message)
    with pytest.raises(ValueError, match=message):
        RunConfig(**raw)
    assert RunConfig(**raw | {"iterations": limit}).iterations == limit
