"""The search iteration, evolved by one batched engine over product terms.

A run's state is a complex array of shape (2^n,) in basis-index order, and
its W layer the (n, 2, 2) array of per-qubit factors `gates.w_gate(rates)`.

One run prepares |g...g>, applies the W layer once, then `iterations` rounds
of (oracle, diffusion).  The oracle's damping diagonal is the tensor product
of per-qubit diag(1, d_v), d_v = exp(-tau*g_v/2), so it folds into the W
layer that follows it.  A round is then: the phase e^{i*beta} on the marked
amplitude x, the layer of M_v = W_v*diag(1, d_v) over all qubits, the same
phase on amplitude 0 (where every d_v is 1), the M_v layer again, and the
global phase e^{i*beta}.

The W layer turns |g...g> into a product state, a layer acts on every
product term qubit by qubit, and a phase on one basis state adds one more
product term: that basis state times (e^{i*beta} - 1) times its amplitude.
So after k rounds the state is exactly sum_t c_t (x)_v u_{t,v}, a sum of
T = 2k + 1 product terms (Vidal, PRL 91, 147902 (2003)).  The engine
tabulates, for j = 0..2k+1, the two sequences of vectors the recurrence
reads: A_j = M_v^j e_{x_v} at even j and M_v^j e_0 at odd j, and B_j the
converse.  d_v leaves e_0 alone, so M_v e_0 = W_v e_0, and the first term,
W_v e_0 after j layers, is e_0 at age j + 1.  It takes the terms'
amplitudes at x from products of A over the qubits and those at 0 from
products of B, gets the coefficients c_t from a scalar recurrence over
those amplitudes, and reads every term's vectors from A.  W_v, a
damped Hadamard, and d_v are real, so every table of vectors is real
(float64), and only the phases make the recurrence and the c_t complex.
`_recurrence` runs the engine up to the recurrence's amplitudes (B, T),
which hold the marked amplitude after every round: the marked probability
(read by `table1_comparison` and `peak_search`) comes from them, with no
state.
`_terms` turns them into the engine's product, the coefficients (B, T) and
vectors u (n, 2, B, T), and only `_materialize` builds the 2^n amplitudes,
in one real batched matrix product of two half Kronecker tables.  A run
costs 2*T*2^n real multiply-adds for its amplitudes and O(T^2) for the
recurrence.

A batch is one `RunConfig` (n, iteration count, convention) plus per-run
arrays of phases, rates and marked patterns.  Its runs evolve together in
blocks, one row of every array per run, each with its own gates, so each
numpy operation covers every point of a block at once.  The blocks come in
two stages from one budget: `_recurrence` (and `w_gate`) runs once per
recurrence block, whose width counts only the term tables and the
recurrence, with no 2^n term; `_materialize` runs on each state block, a
slice of `_terms`' output whose width counts the 2^n amplitudes too; the
marked read stops after the first.  `reports` returns each run's
probabilities, `summaries` their sums.  Output is byte-identical from run
to run, and a sweep row agrees with a one-run `reports` call of its point
to 1e-15 (bitwise on the x86-64 machine this was measured on, but that is
not promised), as the marked read does with `summaries` (not bitwise).
"""

from dataclasses import dataclass

import numpy as np

from .basis import bits, index_of, validate_pattern
from .errors import DimensionMismatch
from .gates import check_convention, check_phi, check_rates, tau, w_gate, whole_number

# 16-byte units per block, in each of its two stages: a state block, as
# points_per_block counts it, is 52 runs at n=9 and 12 at n=12 with 11
# iterations; a recurrence block, at T*(3n + 16) units per run rounded down
# to whole state blocks, is 156 and 108.  Counted so, the tracemalloc peak
# of `summaries` on the TestMemory grids was 0.82-2.05 MiB.  Smaller blocks
# are slower: on a 2-core x86-64 VM the benchmark's sweep-n9 op_s.p50 was
# 0.0218 s at 2^16 complex entries against 0.0172 s at 2^17.  Larger ones
# cost memory: at 2^18 reproduce's peak RSS rose 4.8%, near the benchmark's
# 5% bound, and the n=6 grid peaked at 4.3 MiB.
BLOCK_AMPLITUDES = 2**17
RUN_ENTRIES = 64


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one search run, or the shared ones of a batch.

    ``iterations`` defaults to n - 1, the count that recovers the standard
    Grover success probabilities at phi=1 with no dissipation.
    """

    n: int
    marked: str
    phi: float
    rates: tuple | None = None
    iterations: int | None = None
    convention: str = "composite"

    def __post_init__(self):
        validate_pattern(self.marked, whole_number(self.n, "n"))
        rates = check_rates((0.0,) * self.n if self.rates is None else self.rates, (self.n,),
                            "rates (gammas)", check_convention(self.convention))
        object.__setattr__(self, "rates", tuple(rates.tolist()))
        if self.iterations is None:
            object.__setattr__(self, "iterations", max(1, self.n - 1))
        if whole_number(self.iterations, "iterations") < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.iterations > (limit := _max_iterations(self.n)):
            raise ValueError(f"iterations must be <= {limit} at n={self.n}, got {self.iterations}")
        object.__setattr__(self, "phi", check_phi(self.phi))


def _run_units(n: int) -> tuple:
    """16-byte units one run holds at register size n: in a state block, a
    fixed part and a part per term (see `points_per_block`), and in a
    recurrence block a part per term alone, with no 2^n and no half tables:
    3*n for the power table of the sequences A and B and the vectors taken
    from it (4*n + 2*n reals) and 16 for the recurrence."""
    low, high = 2 ** (n // 2), 2 ** (n - n // 2)
    return 1.5 * 2**n + RUN_ENTRIES, 1.5 * high + 0.5 * low + 3 * n + 16, 3 * n + 16


def points_per_block(n: int, iterations: int) -> int:
    """Runs per state block at register size n and ``iterations`` rounds;
    `_blocks` gives each recurrence block a whole number of them.

    The budget counts what a run holds in 16-byte units, a complex entry or
    two real ones: 1.5*2^n for its amplitudes and probabilities; per term
    (T = 2*iterations + 1, h = n//2) 2^(n-h) for the right half table times
    (Re c, Im c), half of 2^h + 2^(n-h) + 6*n for the real half tables and
    power table, and 16 for the recurrence; and RUN_ENTRIES for its share
    of the block's Python objects."""
    fixed, per_term, _ = _run_units(n)
    return max(1, int(BLOCK_AMPLITUDES // (fixed + (2 * iterations + 1) * per_term)))


def _max_iterations(n: int) -> int:
    """The most rounds for which one run at register size n fits a state
    block; it then fits a recurrence block too, whose count per term is the
    state block's less the half tables."""
    fixed, per_term, _ = _run_units(n)
    return (int((BLOCK_AMPLITUDES - fixed) // per_term) - 1) // 2


def _matvec(mats: np.ndarray, vecs: np.ndarray, out=None) -> np.ndarray:
    """2x2 gates on 2-vectors, component axes first: ``mats`` (2, 2, ...)
    and ``vecs`` (2, ...) broadcast to a (2, ...) array, new or ``out``."""
    out = np.multiply(mats[:, 0], vecs[0], out=out)
    out += mats[:, 1] * vecs[1]
    return out


def _powers(mats: np.ndarray, vecs: np.ndarray, count: int) -> np.ndarray:
    """M^j u for j = 0..count-1, real, shape (2, count, S, n, B).

    ``mats`` holds one real 2x2 gate M per qubit and run, (2, 2, n, B), and
    ``vecs`` S real start vectors u per qubit and run, (2, S, n, B); complex
    ones raise.  The table doubles in length per step: the powers
    M^m..M^(2m-1) come from M^m times the first m, in ceil(log2(count)) steps.
    """
    table = np.empty((2, count) + vecs.shape[1:])
    np.copyto(table[:, 0], vecs)
    power, done = mats, 1
    while done < count:
        new = min(done, count - done)
        _matvec(power[:, :, None, None], table[:, :new], out=table[:, done:done + new])
        done += new
        if done < count:
            power = _matvec(power[:, :, None], power)
    return table


def _kron(vecs: np.ndarray) -> np.ndarray:
    """Kronecker products over qubits of the real ``vecs`` (q, 2, B, T), first
    qubit most significant: shape (2^q, B, T).  Each half is built first, so
    no intermediate has more than 2^ceil(q/2) entries per term and run."""
    if len(vecs) < 2:
        return vecs[0] if len(vecs) else np.ones((1,) + vecs.shape[2:])
    half = len(vecs) // 2
    return (_kron(vecs[:half])[:, None] * _kron(vecs[half:])).reshape(-1, *vecs.shape[2:])


def _materialize(coeffs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Amplitudes of sum_t c_t (x)_v u_{t,v} per run, complex (B, 2^n).

    ``coeffs`` is complex (B, T) and ``vecs`` real (n, 2, B, T); complex
    vectors raise.  The real Kronecker table of the first h = n//2 qubits,
    (B, 2^h, T), meets that of the rest with (Re c_t, Im c_t) as a last
    factor, (B, T, 2^(n-h)*2), in one real batched matrix product, whose
    pairs are the amplitudes.  Neither table is copied: as views with T
    contiguous, BLAS reads both.
    """
    n, _, b, _ = vecs.shape
    left = _kron(vecs[:n // 2]).transpose(1, 0, 2)
    pairs = np.stack((coeffs.real, coeffs.imag))[None]
    right = _kron(np.concatenate((vecs[n // 2:], pairs))).transpose(1, 2, 0)
    return np.matmul(left, right, dtype=np.float64).view(np.complex128).reshape(b, -1)


def _batch(config, phi=None, rates=None, marked=None):
    """The runs of a batch (see `summaries`) as checked arrays: marked basis
    indices (B,), phi (B,) and rates (B, n).  B is the length of the first
    array given, else 1.  A scalar, or a string ``marked``, is no per-run
    array: it raises DimensionMismatch naming its argument."""
    n = config.n
    for name, runs in (("phi", phi), ("rates", rates), ("marked", marked)):
        if runs is not None and not np.iterable(runs) or name == "marked" and isinstance(runs, str):
            raise DimensionMismatch(f"{name}: expected one entry per run, got {runs!r}")
    b = len(next((a for a in (phi, rates, marked) if a is not None), [config]))
    phi = np.full(b, config.phi) if phi is None else check_phi(phi, (b,))
    rates = (np.full((b, n), config.rates) if rates is None
             else check_rates(rates, (b, n), convention=config.convention))
    marked = [config.marked] * b if marked is None else list(marked)
    if len(marked) != b:
        raise DimensionMismatch(f"marked: expected {b} patterns, got {len(marked)}")
    index = {p: index_of(p, n) for p in dict.fromkeys(marked)}
    return np.array([index[p] for p in marked], dtype=int), phi, rates


def _recurrence(config, marked, phi, rates) -> tuple:
    """A block of runs after k rounds, short of its terms: the power table
    (2, T + 1, 2, n, B) of the sequences A and B by age j (A_j = M^j e_{x_v}
    at even j and M^j e_0 at odd j, B_j the converse), e^{i beta} - 1
    (B, 1), and the recurrence's amplitudes (B, T) at the phase events,
    where column 2j is the marked amplitude after j rounds less its phase
    e^{i j beta}.  ``config`` gives n, k and the convention, the arrays (see
    `_batch`) each run's values."""
    n, k = config.n, config.iterations
    b, t = len(phi), 2 * k + 1
    m = w_gate(rates, config.convention).transpose(2, 3, 1, 0)
    beta = np.pi * phi
    m[:, 1] *= np.exp(-0.5 * tau(phi, n) * rates.T)

    # The table holds the two sequences the recurrence reads, by age j:
    # A_j (kind 0) is M^j e_x at even j and M^j e_0 at odd j, B_j (kind 1)
    # the converse.  Ages 0 and 1 seed them, (e_x, e_0) and M (e_0, e_x),
    # and M^2 carries each pair two ages on: its powers square as `_powers`
    # squares M, so every entry is bitwise the M^j u of one start vector.
    x = bits(n, marked).T.astype(bool)
    seeds = np.zeros((2, 2, 2, n, b))
    seeds[1, 0, 0] = x
    seeds[0, 0, 0] = ~x
    seeds[0, 0, 1] = 1.0
    _matvec(m[:, :, None], seeds[:, 0, ::-1], out=seeds[:, 1])
    square = _matvec(m[:, :, None], m)
    del m  # not read past here: one fewer (2, 2, n, B) array lives through `_powers`
    table = _powers(square, seeds.reshape(2, 4, n, b), k + 1).reshape(2, t + 1, 2, n, b)
    # Amplitude at x of each A_j and at 0 of each B_j, (t + 1, B).  The
    # product over qubits is a loop of elementwise multiplies, in qubit
    # order: a `prod` picks its loop, and so its rounding, by strides that
    # change with the block size.  Likewise numpy multiplies a one-element
    # complex array in place with scalar arithmetic, so the per-run columns
    # of the recurrence below are updated out of place.
    at_x, at_0 = np.where(x[0], table[1, :, 0, 0], table[0, :, 0, 0]), table[0, :, 1, 0]
    for v in range(1, n):
        at_x = at_x * np.where(x[v], table[1, :, 0, v], table[0, :, 0, v])
        at_0 = at_0 * table[0, :, 1, v]
    at_x, at_0 = at_x.T, at_0.T

    # Phase events e = 0..2k-1 alternate between x (even e) and 0 (odd e),
    # with one M layer between consecutive events.  Event e adds the term
    # t = e + 1 with coefficient (e^{i beta} - 1) times the amplitude at its
    # target, where a term made at event s has age e - s.  So at an x event
    # the x terms have even ages and the 0 terms odd ones, and the reverse
    # at a 0 event: the x event reads A at x and the 0 event B at 0, by
    # age.  `kernels` holds each of them reversed and times e^{i beta} - 1,
    # so one contiguous slice pairs with the amplitudes `amps` at the
    # earlier events.  The damping leaves e_0 alone, M_v e_0 = W_v e_0, so
    # the first term at event e, W e_0 after e layers, is e_0 at age e + 1:
    # A at x at the odd ages, B at 0 at the even ones.  The recurrence
    # drops the global phase e^{i beta} of each round, and `_terms` puts
    # e^{i k beta} on the coefficients.
    first = np.empty((b, t))
    first[:, 0::2], first[:, 1::2] = at_x[:, 1::2], at_0[:, 2::2]
    alpha = (np.exp(1j * beta) - 1.0)[:, None]
    kernels = alpha * at_x[:, t - 1::-1], alpha * at_0[:, t - 1::-1]
    amps = np.empty((b, t), dtype=np.complex128)
    amps[:, 0] = first[:, 0]
    for e in range(1, t):
        terms = amps[:, :e] * kernels[e % 2][:, t - 1 - e:t - 1]
        amps[:, e] = first[:, e] + np.add.reduce(terms, axis=1)
    return table, alpha, amps


def _terms(config, marked, phi, rates) -> tuple:
    """The block (see `_recurrence`) as its T = 2k + 1 product terms, as
    `_materialize` takes them: the coefficients (B, T), global phase
    e^{i k beta} included, and per-qubit vectors (n, 2, B, T)."""
    table, alpha, amps = _recurrence(config, marked, phi, rates)
    t = amps.shape[1]
    # Term t is at age T - t: term 0 is e_0 after all 2k + 1 layers, W's
    # among them, and term t >= 1 has seen the 2k - t + 1 layers after its
    # event, from e_x if t is odd (an even age) and from e_0 if it is even
    # (an odd age), so every term is A at its age.  The gather stays a fancy
    # index: its copy is laid out (T, component, qubit, run) in memory, and
    # a reversed view of the same values sends `_materialize`'s matmul down
    # another path that rounds the last bits differently.
    table = np.moveaxis(table, (3, 4), (0, 2))[..., t - np.arange(t), 0]
    coeffs = np.ones(amps.shape, dtype=np.complex128)
    coeffs[:, 1:] = alpha * amps[:, :-1]
    return coeffs * np.exp(1j * config.iterations * (np.pi * phi))[:, None], table


def _recurrence_blocks(config, phi, rates, marked):
    """Yield the batch (see `summaries`), checked, as (marked indices, phi,
    rates) per recurrence block, of T*(3n + 16) 16-byte units per run (see
    `_run_units`), rounded down to whole state blocks, at least one."""
    marked, phi, rates = _batch(config, phi, rates, marked)
    n, k = config.n, config.iterations
    size = points_per_block(n, k)
    width = max(size, BLOCK_AMPLITUDES // ((2 * k + 1) * _run_units(n)[2]) // size * size)
    for lo in range(0, len(phi), width):
        yield marked[lo:lo + width], phi[lo:lo + width], rates[lo:lo + width]


def _blocks(config, phi, rates, marked):
    """Yield (marked indices, probabilities) per state block of the batch;
    probabilities is (B, 2^n), each re^2 + im^2 of its amplitude.  Each
    recurrence block is evolved to its terms once, then materialized one
    state block at a time; its terms are dropped before the next block is
    evolved, so two blocks' terms never live at once."""
    size = points_per_block(config.n, config.iterations)
    for marked, phi, rates in _recurrence_blocks(config, phi, rates, marked):
        coeffs, vecs = _terms(config, marked, phi, rates)
        for at in range(0, len(coeffs), size):
            rows = slice(at, at + size)
            probs = _materialize(coeffs[rows], vecs[:, :, rows]).view(np.float64)
            probs *= probs
            probs = probs[:, ::2] + probs[:, 1::2]  # rebound: no amplitudes live across the yield
            yield marked[rows], probs
        del coeffs, vecs


def _marked_probabilities(config, phi=None, rates=None, marked=None) -> list:
    """Marked probability |amps[:, 2k]|^2 per run of the batch (see
    `summaries`), in order, from `_recurrence`'s amplitudes (B, T) per
    recurrence block alone; no state is built."""
    out = []
    for block in _recurrence_blocks(config, phi, rates, marked):
        last = _recurrence(config, *block)[2][:, -1]
        out += (last.real * last.real + last.imag * last.imag).tolist()
    return out


def summaries(config: RunConfig, phi=None, rates=None, marked=None) -> list:
    """(marked_prob, sum_unmarked, survival) per run of the batch, in order.

    ``config`` fixes n, the iteration count and the convention of every run;
    ``phi`` (B,), ``rates`` (B, n) and ``marked`` (B patterns) set each run's
    own values, the config's standing in for any omitted.  No per-pattern
    dict is built."""
    out = []
    for indices, probs in _blocks(config, phi, rates, marked):
        hits = probs[np.arange(len(probs)), indices]
        survival = probs.sum(axis=1)
        out += zip(hits.tolist(), (survival - hits).tolist(), survival.tolist())
    return out


def reports(config: RunConfig, phi=None, rates=None, marked=None) -> tuple:
    """The batch, given as to `summaries`, as marked basis indices (B,) and
    probability rows (B, 2^n); a row sums to its survival in `summaries`."""
    empty = np.zeros(0, dtype=int), np.zeros((0, 2**config.n))
    indices, probs = zip(empty, *_blocks(config, phi, rates, marked))
    return np.concatenate(indices), np.concatenate(probs)
