"""Wall-clock replay of a workload through the public serving API.

One process, one thread of control: the replay loop submits due requests
with ``ContinuousBatchingEngine.submit``, advances the engine with ``step``
and stamps every newly visible output token with the wall clock right after
the step that produced it.  Open-loop latencies run from each request's
*due* time, so a stalled engine charges the wait to every request queued
behind it.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from wallbench.workloads import MODEL, MODEL_SEED, Workload, make_policy_factory

#: Finish reasons that count as failures (anything but EOS / LENGTH).
FAILED_REASONS = ("SHED", "TIMEOUT", "ERROR", "ABORTED")


def build_engine(workload: Workload):
    """Build the model and engine and serve one warm-up request, so lazy
    RoPE tables and workspaces fill here rather than in timed work."""
    from repro.models.config import GenerationConfig, ModelConfig
    from repro.models.transformer import DecoderLM
    from repro.serving import ContinuousBatchingEngine

    model = DecoderLM(ModelConfig(**MODEL), seed=MODEL_SEED)
    engine = ContinuousBatchingEngine(
        model,
        policy_factory=make_policy_factory(workload),
        kv_dtype=workload.kv_dtype,
        **workload.engine_kwargs,
    )
    longest = max(len(spec.prompt) for spec in workload.requests)
    warm = np.random.default_rng(12345).integers(0, MODEL["vocab_size"], size=longest)
    engine.submit(warm, GenerationConfig(max_new_tokens=4))
    engine.run()
    return model, engine


#: Set-ups per run: at least ``SETUP_REPEATS``, and more until
#: ``SETUP_SECONDS`` have passed.  The first one pays the imports and NumPy's
#: first calls (about 5x a warm set-up on the chat workload) and the second
#: is often still warming, so the median needs enough warm ones behind it;
#: and a set-up of tens of milliseconds samples the box's speed, which
#: drifts from second to second, over too short a time to be steady alone.
SETUP_REPEATS = 9
SETUP_SECONDS = 3.0


def timed_setup(workload: Workload):
    """Run :func:`build_engine` repeatedly (see ``SETUP_REPEATS``); returns
    the last ``(model, engine)`` and the median set-up time in seconds."""
    times = []
    began = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - began < SETUP_SECONDS:
        # Free the previous set-up's engine outside the timing, so neither
        # its teardown nor its garbage counts (``peak_rss_mib`` included).
        model = engine = None
        gc.collect()
        start = time.perf_counter()
        model, engine = build_engine(workload)
        times.append(time.perf_counter() - start)
    return model, engine, statistics.median(times)


@dataclass
class Replay:
    """What one replay observed, per request and per engine step."""

    workload: Workload
    states: list = field(default_factory=list)
    due: list = field(default_factory=list)
    token_times: list = field(default_factory=list)
    submit_lag: list = field(default_factory=list)
    #: Wall time inside ``engine.step`` / ``engine.submit`` calls.
    busy_s: float = 0.0
    t_first_due: float = 0.0
    t_last_retire: float = 0.0
    kv_bytes_total_peak: int = 0
    kv_bytes_used_peak: int = 0
    #: ``bytes_used / bytes_total`` after every step.
    kv_occupancy: list = field(default_factory=list)
    peak_rss_mib: float = 0.0
    counters: dict = field(default_factory=dict)


def _engine_counters(engine) -> dict:
    tier = engine.pool_usage().get("tier", {})
    return {
        "steps": engine.step_count,
        "preemptions": engine.n_preemptions,
        "prefill_chunks": engine.n_prefill_chunks,
        "prefill_prompt_tokens": engine.prefill_prompt_tokens,
        "prefill_computed_tokens": engine.prefill_computed_tokens,
        "spills": tier.get("spills", 0),
        "restores": tier.get("restores", 0),
        "spill_bytes": tier.get("spill_bytes", 0),
        "restore_bytes": tier.get("restore_bytes", 0),
    }


def replay(engine, workload: Workload) -> Replay:
    """Drive ``engine`` through ``workload`` in wall-clock time."""
    from repro.models.config import GenerationConfig

    clock = time.perf_counter
    specs = workload.requests
    out = Replay(workload)
    before = _engine_counters(engine)
    seen: list[int] = []
    active: list[int] = []

    def submit(spec, due: float) -> None:
        start = clock()
        state = engine.submit(spec.prompt, GenerationConfig(max_new_tokens=spec.max_new_tokens))
        end = clock()
        out.busy_s += end - start
        out.submit_lag.append(start - due)
        out.states.append(state)
        out.due.append(due)
        out.token_times.append([])
        seen.append(0)
        active.append(len(out.states) - 1)

    def stamp(now: float) -> None:
        still = []
        for i in active:
            state = out.states[i]
            n = len(state.tokens)
            if n > seen[i]:
                out.token_times[i].extend([now] * (n - seen[i]))
                seen[i] = n
            if state.finished:
                out.t_last_retire = now
            else:
                still.append(i)
        active[:] = still

    def step() -> list:
        start = clock()
        finished = engine.step()
        now = clock()
        out.busy_s += now - start
        stamp(now)
        usage = engine.pool_usage()
        if usage:
            out.kv_bytes_total_peak = max(out.kv_bytes_total_peak, usage["bytes_total"])
            out.kv_bytes_used_peak = max(out.kv_bytes_used_peak, usage["bytes_used"])
            out.kv_occupancy.append(usage["bytes_used"] / usage["bytes_total"])
        return finished

    t0 = clock()
    out.t_first_due = t0 + min(spec.due_s for spec in specs)
    if workload.arrival == "open":
        nxt = 0
        while nxt < len(specs) or engine.has_work:
            now = clock()
            while nxt < len(specs) and t0 + specs[nxt].due_s <= now:
                submit(specs[nxt], t0 + specs[nxt].due_s)
                nxt += 1
            if engine.has_work:
                step()
            elif nxt < len(specs):
                time.sleep(max(t0 + specs[nxt].due_s - clock(), 0.0))
    elif workload.arrival == "offline":
        for spec in specs:
            submit(spec, t0)
        while engine.has_work:
            step()
    else:  # closed loop: each client sends its next request on retirement
        nxt = 0
        for _ in range(min(workload.clients, len(specs))):
            submit(specs[nxt], t0)
            nxt += 1
        while engine.has_work:
            finished = step()
            now = clock()
            for _ in finished:
                if nxt < len(specs):
                    submit(specs[nxt], now)
                    nxt += 1
    out.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = _engine_counters(engine)
    out.counters = {key: after[key] - before[key] for key in after}
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def failed_count(rep: Replay) -> int:
    return sum(1 for st in rep.states if st.finish_reason.name in FAILED_REASONS)


def end_to_end(rep: Replay) -> tuple[dict, dict]:
    """``(metrics, sample counts)`` of one untraced replay; metrics map
    ``name -> (value, unit)``."""
    wl = rep.workload
    ok = [i for i, st in enumerate(rep.states) if st.finish_reason.name not in FAILED_REASONS]
    ttft = [rep.token_times[i][0] - rep.due[i] for i in ok if rep.token_times[i]]
    gaps_per_request = [np.diff(rep.token_times[i]) for i in ok]
    gaps = np.concatenate(gaps_per_request) if gaps_per_request else np.zeros(0)
    generated = sum(len(rep.states[i].tokens) for i in ok)
    slo_ok = 0
    for i, g in zip(ok, gaps_per_request):
        first = rep.token_times[i][0] - rep.due[i]
        tail = percentile(g, 99) if len(g) else 0.0
        if first <= wl.ttft_limit_s and tail <= wl.gap_limit_s:
            slo_ok += 1
    n = len(rep.states)
    metrics = {
        "tok_s": (generated / (rep.t_last_retire - rep.t_first_due), "tokens/s"),
        "ttft_p50_s": (percentile(ttft, 50), "s"),
    }
    # A percentile is reported only with at least ten samples beyond it.
    if len(ttft) * 0.1 >= 10:
        metrics["ttft_p90_s"] = (percentile(ttft, 90), "s")
    metrics["itl_p50_s"] = (percentile(gaps, 50), "s")
    if gaps.size * 0.01 >= 10:
        metrics["itl_p99_s"] = (percentile(gaps, 99), "s")
    metrics["slo_ok_frac"] = (slo_ok / n, "ratio")
    metrics["failed_frac"] = (failed_count(rep) / n, "ratio")
    metrics["kv_peak_bytes"] = (float(rep.kv_bytes_total_peak), "bytes")
    metrics["peak_rss_mib"] = (rep.peak_rss_mib, "MiB")
    return metrics, {"requests": n, "ttft": len(ttft), "itl": int(gaps.size)}
