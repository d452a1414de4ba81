"""Seeded workload definitions for the wall-clock serving benchmark.

Every input the benchmark feeds the engine is drawn here, from one NumPy
generator per ``(workload, seed)``, so the same seed always yields the same
requests.  Nothing in this module touches the serving code's own trace
generator: a change to the program cannot change what is measured.

The amount of work scales with ``seconds`` through fixed per-workload rates
(requests per second of run time, calibrated on a 2-core x86 box), never
through a measured speed — a faster program finishes the same work sooner,
it is not handed more of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Tokens per KV page (the engine default); shared prefixes are multiples
#: of it so the prefix registry can map them page for page.
PAGE = 16

#: One model shared by every workload: big enough that attention, the
#: projections and the KV cache each cost measurable time per step, small
#: enough that a 2-core box decodes a few hundred tokens per second.
MODEL = dict(
    vocab_size=512,
    d_model=128,
    n_layers=4,
    n_heads=8,
    d_ff=512,
    max_seq_len=1024,
    positional="rope",
    compute_dtype="float64",
)
MODEL_SEED = 0


@dataclass(frozen=True)
class RequestSpec:
    """One request: its prompt, output budget and (open loop) due time."""

    prompt: np.ndarray
    max_new_tokens: int
    #: Seconds after the start of the run at which an open-loop request is
    #: due; offline requests are all due at 0 and closed-loop requests are
    #: due when their client's previous request retires (the field is 0).
    due_s: float = 0.0
    #: Which shared system prompt opens the request (-1: none).
    prefix_id: int = -1


@dataclass(frozen=True)
class Workload:
    """A named traffic mix plus the engine configuration it runs against."""

    name: str
    #: ``"open"`` (Poisson arrivals), ``"offline"`` (all due at t=0) or
    #: ``"closed"`` (``clients`` callers, each waiting for its reply).
    arrival: str
    policy: str
    requests: tuple[RequestSpec, ...]
    engine_kwargs: dict = field(default_factory=dict)
    kv_dtype: str | None = None
    clients: int = 0
    #: SLO limits: time to first token, and the p99 of one request's gaps
    #: between consecutive output tokens.
    ttft_limit_s: float = 1.0
    gap_limit_s: float = 0.25


def _zipf_picks(rng: np.random.Generator, n_ranks: int, size: int, s: float) -> np.ndarray:
    """``size`` picks from a Zipf(s) law over ``n_ranks`` ranks, stratified:
    each rank appears its expected number of times (largest-remainder
    rounding), in seeded random order."""
    weights = 1.0 / np.arange(1, n_ranks + 1) ** s
    expected = size * weights / weights.sum()
    counts = np.floor(expected).astype(int)
    short = size - counts.sum()
    counts[np.argsort(counts - expected)[:short]] += 1
    return rng.permutation(np.repeat(np.arange(n_ranks), counts))


def _balanced(rng: np.random.Generator, values: tuple[int, ...], n: int) -> np.ndarray:
    """``n`` draws covering ``values`` in equal shares, in random order —
    the total stays the same from seed to seed."""
    return rng.permutation(np.resize(np.asarray(values), n))


def _tokens(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, MODEL["vocab_size"], size=int(n)).astype(np.int64)


def _shared_prompt_requests(
    rng: np.random.Generator,
    n: int,
    n_prefixes: int,
    prefix_pages: tuple[int, ...],
    zipf_s: float,
    suffix: tuple[int, int],
    outputs: tuple[int, ...],
) -> list[tuple[np.ndarray, int, int]]:
    """``(prompt, max_new_tokens, prefix_id)`` triples opening with
    Zipf-shared, page-aligned system prompts and a short unique suffix.

    Lengths are fixed by rank (the i-th most popular prefix has
    ``prefix_pages[i % len(prefix_pages)]`` pages) and suffix and output
    lengths come in equal shares and prefixes in their expected Zipf counts,
    so the work a run holds depends on the seed only through token contents
    and the order of requests.
    """
    prefixes = [_tokens(rng, PAGE * prefix_pages[i % len(prefix_pages)]) for i in range(n_prefixes)]
    picks = _zipf_picks(rng, n_prefixes, n, zipf_s)
    suffix_lens = _balanced(rng, tuple(range(suffix[0], suffix[1] + 1)), n)
    out_lens = _balanced(rng, outputs, n)
    return [
        (np.concatenate([prefixes[p], _tokens(rng, s)]), int(o), int(p))
        for p, s, o in zip(picks, suffix_lens, out_lens)
    ]


def chat_window_shared(rng: np.random.Generator, seconds: float) -> Workload:
    """Open-loop chat traffic below the engine's knee (window policy)."""
    rate = 14.0  # requests per second, about half the engine's capacity
    n = max(int(round(rate * seconds)), 20)
    # Poisson arrivals, stratified: the inter-arrival gaps are the n
    # quantiles of the exponential law, in seeded random order.  Every seed
    # then offers the same load over the same window with the same number of
    # near-coincident arrivals; only which requests collide changes.
    gaps = rng.permutation(-np.log1p(-(np.arange(n) + 0.5) / n) / rate)
    due = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    triples = _shared_prompt_requests(
        rng,
        n,
        n_prefixes=12,
        prefix_pages=(2, 3, 4),
        zipf_s=1.1,
        suffix=(4, 20),
        outputs=(8, 16, 32),
    )
    requests = tuple(
        RequestSpec(prompt, out, float(due[i]), pid) for i, (prompt, out, pid) in enumerate(triples)
    )
    return Workload(
        name="chat_window_shared",
        arrival="open",
        policy="window",
        requests=requests,
        engine_kwargs=dict(max_batch_size=8),
        ttft_limit_s=0.1,
        gap_limit_s=0.05,
    )


def keyformer_long_offline(rng: np.random.Generator, seconds: float) -> Workload:
    """The paper's headline scenario: long prompts, long outputs, half the
    KV cache kept by Keyformer, all requests queued at t=0."""
    batch = 4
    # An odd number of waves (about 3.5 s each on the reference box), so the
    # median TTFT falls inside the middle wave rather than between two.
    waves = 2 * max(int(round((seconds / 3.5 - 1) / 2)), 1) + 1
    # Fixed shapes (prompt 384, output 128): only token content varies with
    # the seed, so step costs — which scale with the kept cache length —
    # are the same from seed to seed.
    requests = tuple(RequestSpec(_tokens(rng, 384), 128) for _ in range(batch * waves))
    return Workload(
        name="keyformer_long_offline",
        arrival="offline",
        policy="keyformer",
        requests=requests,
        engine_kwargs=dict(max_batch_size=batch),
        # The first wave (one step of four prefills) meets it; later waves
        # wait at least a whole wave and miss — the ratio is 1 / waves.
        ttft_limit_s=2.5,
        gap_limit_s=0.25,
    )


def offload_int8_churn(rng: np.random.Generator, seconds: float) -> Workload:
    """Closed-loop churn over many shared prefixes with int8 pages in a
    fixed byte budget, tiered so cold registry pages spill and restore."""
    rate = 8.0
    n = max(int(round(rate * seconds)), 24)
    triples = _shared_prompt_requests(
        rng,
        n,
        n_prefixes=32,
        prefix_pages=(4, 5, 6, 7, 8),
        zipf_s=0.9,
        suffix=(8, 24),
        outputs=(16, 24, 32),
    )
    requests = tuple(RequestSpec(prompt, out, 0.0, pid) for prompt, out, pid in triples)
    return Workload(
        name="offload_int8_churn",
        arrival="closed",
        policy="full",
        requests=requests,
        clients=8,
        kv_dtype="int8",
        engine_kwargs=dict(
            max_batch_size=4,
            max_pool_bytes=2_200_000,
            tier0_budget=1_850_000,
            prefill_chunk_tokens=64,
        ),
        ttft_limit_s=1.0,
        gap_limit_s=0.25,
    )


WORKLOADS = {
    "chat_window_shared": chat_window_shared,
    "keyformer_long_offline": keyformer_long_offline,
    "offload_int8_churn": offload_int8_churn,
}


def make_workload(name: str, seed: int, seconds: float) -> Workload:
    """Workload ``name`` for ``seed``, sized for ``seconds`` of run time."""
    try:
        build = WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    tag = sorted(WORKLOADS).index(name)
    return build(np.random.default_rng([seed, tag]), seconds)


def make_policy_factory(workload: Workload):
    """Zero-argument factory of the workload's eviction policy."""
    from repro.core.config import CachePolicyConfig, KeyformerConfig
    from repro.core.keyformer import KeyformerPolicy
    from repro.core.policies import FullAttentionPolicy, WindowAttentionPolicy

    if workload.policy == "window":
        return lambda: WindowAttentionPolicy(CachePolicyConfig(kv_budget=48))
    if workload.policy == "keyformer":
        return lambda: KeyformerPolicy(KeyformerConfig(kv_fraction=0.5))
    return FullAttentionPolicy
