"""Output checks run after the timed phase.

* Every request finished with EOS or LENGTH, or is counted as failed.
* A seeded sample of requests is decoded again by the solo ``Generator``
  with the same policy and ``kv_dtype``.  Float64 requests, and int8
  requests that cannot have read a shared prefix, must match bit for bit
  (tokens and total log-probability), except for the known float64
  shared-prefix defect described at ``F64_SHARED_RTOL``.  An int8 request
  that may have read a shared prefix through dequantized pages — its system
  prompt was submitted earlier in the run, or it was preempted and
  re-admitted over its own registered prompt — is held to the stated greedy
  token-match rate ``INT8_SHARED_MIN_MATCH``, pooled over the sampled ones
  (``docs/quantization.md``: shared-prefix prefill is tolerance-level at
  int8).
* Traced against untraced: the same tokens for every request, and for
  workloads whose schedule does not depend on the clock the same engine
  counters.
"""

from __future__ import annotations

import numpy as np

from wallbench.replay import FAILED_REASONS, Replay
from wallbench.workloads import Workload, make_policy_factory

#: Known program defect: the float64 prefix-sharing prefill
#: (``DecoderLM.forward_suffix``) is not bit-equal to the full prompt forward
#: at this model width.  OpenBLAS computes ``x @ W`` for the MLP output
#: projection (inner dimension d_ff = 512) in a different summation order
#: for the few suffix rows than for the whole prompt, so a request that
#: mapped a shared prefix can differ from solo decoding in the last bits of
#: its log-probability.  Such a request must still produce identical tokens
#: and a log-probability within this relative tolerance; each deviation is
#: printed as a known defect.
F64_SHARED_RTOL = 1e-12

#: Minimum greedy token agreement with solo decoding, pooled over the
#: sampled int8 requests that may have read a shared prefix through
#: dequantized pages (tolerance-level per the int8 accuracy contract).  With
#: random weights the logits are flat, so a request whose greedy path flips
#: once diverges from there on: about one such request in 60 flips at its
#: first token, the rest match exactly.
INT8_SHARED_MIN_MATCH = 0.75

#: Engine counters that must match between a traced and an untraced replay
#: when the schedule is a pure function of the workload.
PARITY_COUNTERS = ("steps", "preemptions", "spills", "restores")


def _may_share_prefix(workload: Workload, rep: Replay) -> list[bool]:
    """Per request: could its prefill have mapped shared prefix pages?"""
    seen: set[int] = set()
    out = []
    for spec, state in zip(workload.requests, rep.states):
        out.append((spec.prefix_id >= 0 and spec.prefix_id in seen) or state.preemptions > 0)
        seen.add(spec.prefix_id)
    return out


def _sample_sizes(workload: Workload) -> tuple[int, int]:
    """Requests re-decoded solo per run: ``(may have read a shared prefix,
    cannot have)``.  More shared ones at int8, whose agreement is a pooled
    rate; two unshared ones, since a solo decode on the long-output workload
    costs a second or more."""
    return (16, 2) if workload.kv_dtype == "int8" else (3, 2)


def check_outputs(model, rep: Replay, seed: int) -> tuple[list, list]:
    """``(problems, notes)`` for one replay's outputs; the run is correct
    when ``problems`` is empty.  ``notes`` report what was checked, the
    measured int8 agreement and any known-defect deviation."""
    from repro.generation.generator import Generator
    from repro.models.config import GenerationConfig

    workload = rep.workload
    problems, notes = [], []
    if len(rep.states) != len(workload.requests):
        problems.append(f"{len(rep.states)} of {len(workload.requests)} requests submitted")
    ok = []
    for i, state in enumerate(rep.states):
        reason = state.finish_reason.name if state.finish_reason else "UNFINISHED"
        if reason in ("EOS", "LENGTH"):
            ok.append(i)
        elif reason not in FAILED_REASONS:
            problems.append(f"request {i} finished {reason}")
    shared = _may_share_prefix(workload, rep)
    rng = np.random.default_rng([seed, 7])
    picks = []
    for pool, n in zip(
        ([i for i in ok if shared[i]], [i for i in ok if not shared[i]]),
        _sample_sizes(workload),
    ):
        picks += [int(i) for i in rng.choice(pool, size=min(n, len(pool)), replace=False)]

    factory = make_policy_factory(workload)
    matched = total = 0
    for i in sorted(picks):
        spec, state = workload.requests[i], rep.states[i]
        solo = Generator(model, factory(), kv_dtype=workload.kv_dtype).generate(
            spec.prompt, GenerationConfig(max_new_tokens=spec.max_new_tokens)
        )
        want, got = solo.sequences[0], list(state.tokens)
        want_lp, got_lp = solo.log_probs[0], state.total_logprob
        close = abs(got_lp - want_lp) <= F64_SHARED_RTOL * abs(want_lp)
        if shared[i] and workload.kv_dtype == "int8":
            matched += sum(a == b for a, b in zip(want, got))
            total += max(len(want), len(got))
        elif want == got and want_lp == got_lp:
            continue
        elif shared[i] and want == got and close:
            notes.append(
                f"KNOWN DEFECT request {i}: float64 shared-prefix log-prob {got_lp!r} "
                f"vs solo {want_lp!r} (tokens identical)"
            )
        else:
            problems.append(
                f"request {i}: engine output differs from solo decoding "
                f"(tokens equal: {want == got}, log-prob {got_lp!r} vs {want_lp!r})"
            )
    notes.append(f"checked {len(picks)} requests against solo decoding")
    if total:
        rate = matched / total
        notes.append(
            f"int8 shared-prefix token match {rate:.4f} over {total} tokens "
            f"(floor {INT8_SHARED_MIN_MATCH})"
        )
        if rate < INT8_SHARED_MIN_MATCH:
            problems.append(f"int8 shared-prefix token match {rate:.4f} below the floor")
    return problems, notes


def check_parity(traced: Replay, untraced: Replay) -> list[str]:
    """Tracing must change no output token (and, where the schedule is
    clock-independent, no engine counter)."""
    problems = []
    for i, (a, b) in enumerate(zip(traced.states, untraced.states)):
        if list(a.tokens) != list(b.tokens):
            problems.append(f"request {i}: traced tokens differ from untraced")
    if len(traced.states) != len(untraced.states):
        problems.append("traced and untraced runs submitted different request counts")
    if traced.workload.arrival != "open":
        for key in PARITY_COUNTERS:
            if traced.counters[key] != untraced.counters[key]:
                problems.append(
                    f"counter {key}: traced {traced.counters[key]} "
                    f"vs untraced {untraced.counters[key]}"
                )
    return problems
