"""Synthetic request-arrival traces for the serving simulator.

Every generator produces a time-sorted tuple of :class:`Request` records —
the only randomness in the whole serving stack lives here, behind an
explicit seed, so a (trace, cluster, policy) triple replays bit-identically.

Four traffic shapes cover the classic serving regimes:

* :func:`poisson_trace` — memoryless arrivals at a constant mean rate, the
  standard open-loop load model;
* :func:`bursty_trace` — a two-state Markov-modulated Poisson process that
  alternates burst/calm phases around the same mean rate (tail-latency
  stressor);
* :func:`diurnal_trace` — a sinusoidally-modulated rate via Lewis-Shedler
  thinning (day/night traffic compressed into the simulated horizon);
* :func:`uniform_trace` / :func:`fixed_trace` — deterministic, replayable
  arrival lists for regression tests and apples-to-apples comparisons.

For LLM workloads, requests additionally carry a per-request sequence
length (``Request.seq_len``; 0 means "the model's native shape" — the
CNN / legacy path).  :func:`sample_seqlens` draws lengths from one of the
:data:`SEQLEN_DISTS` shapes (``fixed`` / ``uniform`` / ``lognormal`` /
``longtail``) behind the same explicit-seed discipline as the arrival
generators, and :func:`with_seqlens` attaches them to a trace.

Traces are built in a single pass: :func:`arrival_times` draws a lane's
arrival times without packaging them, and :func:`build_trace` turns any
number of :class:`Lane` columns into one ordered, numbered trace,
constructing each :class:`Request` exactly once with its final id,
``seq_len`` and tenant.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from operator import attrgetter, lt
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np


@dataclasses.dataclass(frozen=True)
class Request:
    """One inference request entering the cluster.

    ``seq_len`` is the request's own token count; 0 is the sentinel for
    "the model's native shape" (all CNN requests, and transformer traces
    generated without a sequence-length distribution).  ``tenant`` names
    the workload the request belongs to; the empty string is the
    sentinel for untagged single-workload traffic (the legacy path —
    every generator here produces untagged requests, and
    ``repro.serve.tenancy`` tags them per tenant).  ``decode_tokens`` is
    the request's sampled output length — the number of autoregressive
    decode iterations after prefill; 0 is the sentinel for "no decode
    loop" (the one-shot PR 2 semantics every generator here produces;
    ``repro.serve.decode`` attaches sampled lengths).
    """

    request_id: int
    model: str
    arrival_ns: float
    seq_len: int = 0
    tenant: str = ""
    decode_tokens: int = 0

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("request model must be non-empty")
        if self.arrival_ns < 0:
            raise ValueError("arrival time must be non-negative")
        if self.seq_len < 0:
            raise ValueError("seq_len must be non-negative")
        if self.decode_tokens < 0:
            raise ValueError("decode_tokens must be non-negative")


Trace = Tuple[Request, ...]


# -- single-pass trace assembly --------------------------------------------------------


class Lane(NamedTuple):
    """One arrival stream of a trace, with the attributes its requests carry.

    ``seq_lens`` pairs one value with each arrival by position (``None``:
    every request carries the 0 sentinel).
    """

    model: str
    arrivals_ns: Sequence[float]
    seq_lens: Optional[Sequence[int]] = None
    tenant: str = ""


#: Request fields in constructor order, read off a built trace as columns.
_FIELDS = attrgetter(
    "request_id", "model", "arrival_ns", "seq_len", "tenant", "decode_tokens"
)


def _columns(trace: Trace) -> List[Sequence]:
    """The six constructor columns of a trace (request id first)."""
    if not trace:
        return [()] * 6
    return list(zip(*map(_FIELDS, trace)))


def _stable_order(
    arrivals: Sequence[float], keys: Callable[[], list]
) -> Optional[List[int]]:
    """The stable-sort permutation by ``keys()``, or None when it is the identity.

    Strictly increasing arrival times decide every comparison on their
    own, so the full ``(arrival_ns, model, tenant)`` keys are only built
    when some neighbours tie (or are NaN).
    """
    if all(map(lt, arrivals, itertools.islice(arrivals, 1, None))):
        return None
    full = keys()
    if not any(map(lt, itertools.islice(full, 1, None), full)):
        return None
    return sorted(range(len(full)), key=full.__getitem__)


def _assemble(parts: Sequence[Sequence[Sequence]]) -> Trace:
    """The one ordering step: sort and number per-part columns, build once.

    Each part holds the five columns ``(model, arrival_ns, seq_len, tenant,
    decode_tokens)``.  The concatenated rows are sorted stably by
    ``(arrival_ns, model, tenant)`` — parts in argument order, rows in part
    order on ties — and numbered ``0..n-1``; each :class:`Request` is then
    constructed exactly once.
    """
    if len(parts) == 1:
        columns = parts[0]
    else:
        columns = [
            list(itertools.chain.from_iterable(part[k] for part in parts))
            for k in range(5)
        ]
    models, arrivals, _, tenants, _ = columns
    order = _stable_order(arrivals, lambda: list(zip(arrivals, models, tenants)))
    if order is not None:
        columns = [[column[i] for i in order] for column in columns]
    return tuple(map(Request, range(len(arrivals)), *columns))


def build_trace(lanes: Sequence[Lane]) -> Trace:
    """Build one ordered, numbered trace from ``lanes`` in a single pass.

    Requests are ordered stably by ``(arrival_ns, model, tenant)`` — the
    :func:`merge_traces` order — and every request is constructed once,
    already holding its final id, ``seq_len`` and tenant.
    """
    parts = []
    for lane in lanes:
        n = len(lane.arrivals_ns)
        zeros = [0] * n
        seq_lens = zeros if lane.seq_lens is None else lane.seq_lens
        if len(seq_lens) != n:
            raise ValueError(
                f"lane {lane.model!r}: {len(seq_lens)} seqlens for {n} arrivals"
            )
        parts.append(
            ([lane.model] * n, lane.arrivals_ns, seq_lens, [lane.tenant] * n, zeros)
        )
    return _assemble(parts)


# -- arrival generators ----------------------------------------------------------------

#: Poisson gaps drawn per NumPy call.  A block of ``rng.exponential`` draws
#: is the same stream as that many scalar calls, and the running sum is
#: carried into each next block's first gap, so the chunk size never
#: changes a trace.
_POISSON_CHUNK = 4096


def _poisson_arrivals(rps: float, duration_s: float, seed: int) -> List[float]:
    _check_rate(rps, duration_s)
    rng = np.random.default_rng(seed)
    horizon_ns = duration_s * 1e9
    mean_gap_ns = 1e9 / rps
    blocks = []
    t = 0.0
    while True:
        gaps = rng.exponential(mean_gap_ns, size=_POISSON_CHUNK)
        gaps[0] += t  # the scalar loop's t += gap, in the same order
        times = np.cumsum(gaps)
        inside = int(np.searchsorted(times, horizon_ns, side="left"))
        blocks.append(times[:inside])
        if inside < _POISSON_CHUNK:
            return np.concatenate(blocks).tolist()
        t = times[-1]


def poisson_trace(model: str, rps: float, duration_s: float, seed: int = 0) -> Trace:
    """Memoryless arrivals: exponential inter-arrival times at rate ``rps``."""
    return build_trace([Lane(model, _poisson_arrivals(rps, duration_s, seed))])


def _bursty_arrivals(
    rps: float,
    duration_s: float,
    seed: int,
    burstiness: float = 0.8,
    mean_dwell_s: float = 0.01,
) -> List[float]:
    _check_rate(rps, duration_s)
    if not 0.0 <= burstiness < 1.0:
        raise ValueError("burstiness must be in [0, 1)")
    rng = np.random.default_rng(seed)
    # Dwell and gap draws interleave on one stream, so the loop stays scalar.
    exponential = rng.exponential
    horizon_ns = duration_s * 1e9
    dwell_ns = mean_dwell_s * 1e9
    rates = (rps * (1.0 + burstiness), rps * (1.0 - burstiness))
    arrivals: List[float] = []
    keep = arrivals.append
    t = 0.0
    state = 0
    while t < horizon_ns:
        phase_end = min(horizon_ns, t + exponential(dwell_ns))
        rate = rates[state]
        if rate > 0.0:
            gap_ns = 1e9 / rate
            t += exponential(gap_ns)
            while t < phase_end:
                keep(t)
                t += exponential(gap_ns)
        t = phase_end
        state = 1 - state
    return arrivals


def bursty_trace(
    model: str,
    rps: float,
    duration_s: float,
    seed: int = 0,
    burstiness: float = 0.8,
    mean_dwell_s: float = 0.01,
) -> Trace:
    """Two-state Markov-modulated Poisson process around mean rate ``rps``.

    The rate alternates between ``rps * (1 + burstiness)`` (burst) and
    ``rps * (1 - burstiness)`` (calm) with exponentially distributed dwell
    times, so the long-run mean stays ``rps`` while short windows see up to
    ``1 + burstiness`` times the load.
    """
    arrivals = _bursty_arrivals(rps, duration_s, seed, burstiness, mean_dwell_s)
    return build_trace([Lane(model, arrivals)])


def _diurnal_arrivals(
    rps: float,
    duration_s: float,
    seed: int,
    amplitude: float = 0.5,
    period_s: float = 0.1,
    phase: float = 0.0,
) -> List[float]:
    _check_rate(rps, duration_s)
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must be in [0, 1]")
    rng = np.random.default_rng(seed)
    # Gap and acceptance draws interleave on one stream, and NumPy's
    # ziggurat exponential sometimes consumes extra words, so the loop
    # stays scalar to keep the stream layout.
    exponential, uniform, sin = rng.exponential, rng.random, math.sin
    horizon_ns = duration_s * 1e9
    peak = rps * (1.0 + amplitude)
    gap_ns = 1e9 / peak
    two_pi = 2.0 * math.pi
    period_ns = period_s * 1e9
    phase_rad = two_pi * phase
    arrivals: List[float] = []
    keep = arrivals.append
    t = exponential(gap_ns)
    while t < horizon_ns:
        rate = rps * (1.0 + amplitude * sin(two_pi * t / period_ns + phase_rad))
        if uniform() <= rate / peak:
            keep(t)
        t += exponential(gap_ns)
    return arrivals


def diurnal_trace(
    model: str,
    rps: float,
    duration_s: float,
    seed: int = 0,
    amplitude: float = 0.5,
    period_s: float = 0.1,
    phase: float = 0.0,
) -> Trace:
    """Sinusoidal rate ``rps * (1 + amplitude * sin)`` via thinning.

    Lewis-Shedler thinning: sample a homogeneous Poisson stream at the peak
    rate and accept each arrival with probability ``rate(t) / peak``.  A
    24-hour cycle is compressed into ``period_s`` of simulated time.

    ``phase`` shifts the sinusoid by that fraction of a period (0.25 = a
    quarter day ahead) — the knob multi-region scenarios use to stagger
    each region's local daytime.  ``phase=0.0`` adds an exact ``+ 0.0``
    inside the sine argument, so the default trace is bit-identical to
    the pre-phase generator (golden-guarded).
    """
    arrivals = _diurnal_arrivals(
        rps, duration_s, seed, amplitude, period_s, phase
    )
    return build_trace([Lane(model, arrivals)])


def _uniform_arrivals(rps: float, duration_s: float) -> List[float]:
    _check_rate(rps, duration_s)
    # round, not int: float truncation of the product dropped the final
    # arrival whenever rps * duration_s landed an ULP under an integer
    # (0.29 * 100.0 -> 28.999... -> 28 requests instead of 29).
    n = round(rps * duration_s)
    gap_ns = 1e9 / rps
    horizon_ns = duration_s * 1e9
    # gap * n can land one ULP past the horizon (e.g. rps=7000 over
    # 0.125 s); clamp so the final arrival never leaves the trace window.
    return [min(gap_ns * (i + 1), horizon_ns) for i in range(n)]


def uniform_trace(model: str, rps: float, duration_s: float) -> Trace:
    """Deterministic, evenly spaced arrivals — the replayable fixed load."""
    return build_trace([Lane(model, _uniform_arrivals(rps, duration_s))])


def fixed_trace(model: str, arrivals_ns: Sequence[float]) -> Trace:
    """Replay an explicit list of arrival times (nanoseconds)."""
    return build_trace([Lane(model, [float(t) for t in arrivals_ns])])


def _in_order(trace: Trace) -> bool:
    """True when ``trace`` is already merged: ordered and numbered 0..n-1."""
    if list(map(attrgetter("request_id"), trace)) != list(range(len(trace))):
        return False
    arrivals = list(map(attrgetter("arrival_ns"), trace))
    keys = attrgetter("arrival_ns", "model", "tenant")
    return _stable_order(arrivals, lambda: list(map(keys, trace))) is None


def merge_traces(*traces: Trace) -> Trace:
    """Interleave traces into one stream, re-numbering requests by time.

    Requests are ordered stably by ``(arrival_ns, model, tenant)``.  A
    single trace that is already in that order and numbered ``0..n-1`` is
    returned as is; otherwise each output request is built once.
    """
    if len(traces) == 1 and isinstance(traces[0], tuple) and _in_order(traces[0]):
        return traces[0]
    return _assemble([_columns(trace)[1:] for trace in traces])


#: Named generators the CLI exposes via ``--trace``.
TRACE_KINDS = ("poisson", "bursty", "diurnal", "uniform")


def arrival_times(
    kind: str, rps: float, duration_s: float, seed: int = 0
) -> List[float]:
    """Sorted arrival times (ns) of :func:`make_trace`, without the requests.

    The lane-building entry point: pair it with :func:`build_trace` to
    attach per-request attributes before any request is constructed.
    """
    if kind == "poisson":
        return _poisson_arrivals(rps, duration_s, seed)
    if kind == "bursty":
        return _bursty_arrivals(rps, duration_s, seed)
    if kind == "diurnal":
        return _diurnal_arrivals(rps, duration_s, seed)
    if kind == "uniform":
        return _uniform_arrivals(rps, duration_s)
    raise ValueError(f"unknown trace kind {kind!r}; available: {TRACE_KINDS}")


def make_trace(
    kind: str, model: str, rps: float, duration_s: float, seed: int = 0
) -> Trace:
    """Build a trace by name (the CLI/benchmark entry point)."""
    return build_trace([Lane(model, arrival_times(kind, rps, duration_s, seed))])


def _check_rate(rps: float, duration_s: float) -> None:
    # Written so NaN fails too; an infinite rate or horizon would never
    # leave the generator loops.
    if not 0.0 < rps < math.inf:
        raise ValueError(f"rps must be finite and positive, got {rps!r}")
    if not 0.0 < duration_s < math.inf:
        raise ValueError(
            f"duration must be finite and positive, got {duration_s!r}"
        )


# -- per-request sequence lengths ----------------------------------------------------
#: Named sequence-length distributions the CLI exposes via ``--seqlen-dist``.
SEQLEN_DISTS = ("fixed", "uniform", "lognormal", "longtail")

#: Long-context tail probability of the ``longtail`` sampler per
#: arrival-trace kind: bursty traffic pairs with the heaviest contexts
#: (retry storms replaying long prompts), diurnal with a moderate tail,
#: steady traffic with the lightest.
_LONGTAIL_TAIL_PROB = {"bursty": 0.15, "diurnal": 0.10, "poisson": 0.06, "uniform": 0.03}


def fixed_seqlens(n: int, mean: int) -> Tuple[int, ...]:
    """Degenerate distribution: every request carries exactly ``mean``."""
    _check_seqlen_mean(mean)
    return (mean,) * n


def uniform_seqlens(n: int, mean: int, seed: int = 0) -> Tuple[int, ...]:
    """Integer-uniform lengths on ``[mean/2, 3*mean/2]`` (mean-preserving)."""
    _check_seqlen_mean(mean)
    rng = np.random.default_rng(seed)
    low = max(1, mean // 2)
    high = max(low, mean + (mean - low))  # symmetric around the mean
    return tuple(int(v) for v in rng.integers(low, high + 1, size=n))


def lognormal_seqlens(
    n: int, mean: int, seed: int = 0, sigma: float = 0.6
) -> Tuple[int, ...]:
    """Lognormal lengths with ``E[X] = mean`` (the classic prompt-length fit).

    ``mu = ln(mean) - sigma^2 / 2`` keeps the arithmetic mean at ``mean``
    while the median sits below it — most requests are short, a few carry
    long contexts.
    """
    _check_seqlen_mean(mean)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.default_rng(seed)
    mu = math.log(mean) - sigma * sigma / 2.0
    draws = rng.lognormal(mean=mu, sigma=sigma, size=n)
    return tuple(max(1, int(round(v))) for v in draws)


def longtail_seqlens(
    n: int,
    mean: int,
    seed: int = 0,
    trace_kind: str = "poisson",
    max_factor: float = 8.0,
) -> Tuple[int, ...]:
    """Long-tailed lengths whose tail weight tracks the arrival process.

    A mixture: most requests draw from a short lognormal body, while a
    trace-kind-specific fraction (:data:`_LONGTAIL_TAIL_PROB` — bursty
    traffic carries the most long contexts) draws a long context uniform
    on ``[2 * mean, max_factor * mean]``.  The body mean is chosen so the
    overall expectation stays ``mean``, and nothing exceeds
    ``max_factor * mean`` from the tail — the bucket table stays bounded.
    """
    _check_seqlen_mean(mean)
    try:
        tail_prob = _LONGTAIL_TAIL_PROB[trace_kind]
    except KeyError:
        raise ValueError(
            f"unknown trace kind {trace_kind!r}; available: {TRACE_KINDS}"
        ) from None
    if max_factor <= 2.0:
        raise ValueError("max_factor must exceed the 2x-mean tail floor")
    rng = np.random.default_rng(seed)
    tail_mean = (2.0 + max_factor) / 2.0 * mean
    body_mean = (mean - tail_prob * tail_mean) / (1.0 - tail_prob)
    if body_mean < 1.0:
        raise ValueError(
            f"max_factor {max_factor} leaves no mass for the body at mean {mean}"
        )
    sigma = 0.6
    mu = math.log(body_mean) - sigma * sigma / 2.0
    body = rng.lognormal(mean=mu, sigma=sigma, size=n)
    tail = rng.uniform(2.0 * mean, max_factor * mean, size=n)
    is_tail = rng.random(n) < tail_prob
    draws = np.where(is_tail, tail, body)
    return tuple(max(1, int(round(v))) for v in draws)


def sample_seqlens(
    dist: str,
    n: int,
    mean: int,
    seed: int = 0,
    trace_kind: str = "poisson",
) -> Tuple[int, ...]:
    """Draw ``n`` per-request sequence lengths by distribution name."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if dist == "fixed":
        return fixed_seqlens(n, mean)
    if dist == "uniform":
        return uniform_seqlens(n, mean, seed=seed)
    if dist == "lognormal":
        return lognormal_seqlens(n, mean, seed=seed)
    if dist == "longtail":
        return longtail_seqlens(n, mean, seed=seed, trace_kind=trace_kind)
    raise ValueError(f"unknown seqlen dist {dist!r}; available: {SEQLEN_DISTS}")


def with_seqlens(trace: Trace, seqlens: Sequence[int]) -> Trace:
    """Attach one sampled sequence length to each request of a trace."""
    if len(seqlens) != len(trace):
        raise ValueError(
            f"{len(seqlens)} seqlens for {len(trace)} requests"
        )
    columns = _columns(trace)
    columns[3] = [int(s) for s in seqlens]
    return tuple(map(Request, *columns))


def with_decode_lens(trace: Trace, lens: Sequence[int]) -> Trace:
    """Attach one sampled output length to each request of a trace."""
    if len(lens) != len(trace):
        raise ValueError(f"{len(lens)} decode lengths for {len(trace)} requests")
    columns = _columns(trace)
    columns[5] = [int(v) for v in lens]
    return tuple(map(Request, *columns))


def _check_seqlen_mean(mean: int) -> None:
    if mean < 1:
        raise ValueError(f"mean sequence length must be >= 1, got {mean}")
