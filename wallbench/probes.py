"""Per-layer probes: which public callables the traced run wraps, and the
per-layer metrics derived from the spans they record.

Layer names follow the package layout under ``src/repro``: ``serving``
(engine and scheduler), ``models``, ``kvcache``, ``core`` (eviction
policies) and ``generation`` (sampling).  Every wrapper is installed through
one :class:`~wallbench.spans.Patcher` and removed by :meth:`Probes.remove`.
"""

from __future__ import annotations

import numpy as np

from wallbench.replay import Replay, percentile
from wallbench.spans import Patcher, Tracer


def _nbytes(arrays) -> int:
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


class Probes:
    """Wraps one engine's layers for a traced replay."""

    def __init__(self, engine, tracer: Tracer):
        import repro.serving.engine as engine_module
        from repro.kvcache.batch import BatchedCacheManager

        self.tracer = tracer
        self.patcher = Patcher()
        #: ``id(state) ->`` time of the first admission that returned it.
        self.admitted: dict[int, float] = {}
        self.admit_calls_useful = 0
        #: ``id(policy) -> request id`` for the core.select spans.
        self._policy_rid: dict[int, int] = {}
        self._new_policies: list = []
        t, patch, c = tracer, self.patcher.replace, tracer.counters

        def count(key, amount):
            def on_result(args, kwargs, result):
                c[key] += amount(args, result)

            return on_result

        patch(engine, "step", lambda f: t.wrap(f, "engine.step"))
        patch(
            engine,
            "submit",
            lambda f: t.wrap(
                f, "engine.submit", on_result=self._on_submit, rid_of=lambda a, r: r.request_id
            ),
        )
        patch(engine, "policy_factory", self._policy_factory)
        patch(
            engine.scheduler,
            "admit",
            lambda f: t.wrap(f, "scheduler.admit", on_result=self._on_admit),
        )

        model = engine.model
        prefill_tokens = count("models.prefill.tokens", lambda a, r: a[0].shape[-1])
        patch(model, "forward", lambda f: t.wrap(f, "models.prefill", prefill_tokens))
        patch(model, "forward_suffix", lambda f: t.wrap(f, "models.prefill", prefill_tokens))
        patch(
            model,
            "decode_step_batch",
            lambda f: t.wrap(
                f, "models.decode_step", count("models.decode_step.rows", lambda a, r: len(a[0]))
            ),
        )
        patch(model, "lm_logits_rows", lambda f: t.wrap(f, "models.lm_head"))
        # Keys and values passed in (arguments 1 and 2).
        attend = count("models.attend.kv_bytes", lambda a, r: _nbytes(a[1:3]))
        for block in model.blocks:
            patch(block.attn, "project_qkv_rows", lambda f: t.wrap(f, "models.qkv_proj"))
            patch(block.attn, "attend_step_batch", lambda f: t.wrap(f, "models.attend", attend))
            patch(block.mlp, "forward_rows", lambda f: t.wrap(f, "models.mlp"))

        manager = BatchedCacheManager
        materialized = count("kvcache.materialize.bytes", lambda a, r: _nbytes(r))
        patch(
            manager,
            "attention_view_batch",
            lambda f: t.wrap(f, "kvcache.materialize", materialized),
        )
        for attr, name in (
            ("append_batch", "kvcache.append"),
            ("observe_batch", "kvcache.observe"),
            ("join", "kvcache.join"),
            ("retire", "kvcache.retire"),
            ("prefetch_decode", "kvcache.prefetch"),
        ):
            patch(manager, attr, lambda f, name=name: t.wrap(f, name))
        patch(engine_module, "sample_rows", lambda f: t.wrap(f, "generation.sample"))

    # ------------------------------------------------------------------
    def _policy_factory(self, factory):
        from repro.core.policies import EvictionPolicy

        def traced_factory():
            policy = factory()
            if type(policy).step_selection is EvictionPolicy.step_selection:
                # The base no-op (full attention): no selection code runs.
                return policy
            self._new_policies.append(policy)
            self.patcher.replace(
                policy,
                "step_selection",
                lambda f: self.tracer.wrap(
                    f, "core.select", rid_of=lambda a, r: self._policy_rid.get(id(policy))
                ),
            )
            return policy

        return traced_factory

    def _on_submit(self, args, kwargs, state) -> None:
        for policy in self._new_policies:
            self._policy_rid[id(policy)] = state.request_id
        self._new_policies.clear()

    def _on_admit(self, args, kwargs, admitted) -> None:
        now = self.tracer.clock()
        if admitted:
            self.admit_calls_useful += 1
        for state in admitted:
            self.admitted.setdefault(id(state), now)

    def remove(self) -> None:
        """Put back every original callable."""
        self.patcher.restore()

    # ------------------------------------------------------------------
    def metrics(self, traced: Replay, untraced: Replay) -> dict:
        """Per-layer metrics of the traced replay, ``name -> (value, unit)``."""
        rows = self.tracer.by_name()
        c = self.tracer.counters

        def busy(name):
            return rows.get(name, {}).get("busy_s", 0.0)

        def calls(name):
            return rows.get(name, {}).get("calls", 0)

        steps = rows.get("engine.step", {"durations": [0.0], "self_s": 0.0, "calls": 0})
        waits = [
            self.admitted[id(st)] - due
            for st, due in zip(traced.states, traced.due)
            if id(st) in self.admitted
        ]
        k = traced.counters
        decode_calls = calls("models.decode_step")
        prompt = k["prefill_prompt_tokens"]
        evicted = sum(
            st.cache_stats.total_evicted for st in traced.states if st.cache_stats is not None
        )
        m = {
            "engine.step.calls": (steps["calls"], "count"),
            "engine.step.self_s": (steps["self_s"], "s"),
            "engine.step.p50_s": (percentile(steps["durations"], 50), "s"),
            "engine.step.p99_s": (percentile(steps["durations"], 99), "s"),
            "engine.batch_rows.mean": (
                c["models.decode_step.rows"] / decode_calls if decode_calls else 0.0,
                "rows",
            ),
            "engine.queue_wait.p50_s": (percentile(waits, 50) if waits else 0.0, "s"),
            "engine.preemptions": (k["preemptions"], "count"),
            "engine.prefill_chunks": (k["prefill_chunks"], "count"),
            "scheduler.admit.calls": (calls("scheduler.admit"), "count"),
            "scheduler.admit.s": (busy("scheduler.admit"), "s"),
            "scheduler.admit.useful_ratio": (
                self.admit_calls_useful / max(calls("scheduler.admit"), 1),
                "ratio",
            ),
            "models.prefill.s": (busy("models.prefill"), "s"),
            "models.prefill.tokens": (c["models.prefill.tokens"], "tokens"),
            "models.decode_step.s": (busy("models.decode_step"), "s"),
            "models.decode_step.rows": (c["models.decode_step.rows"], "rows"),
            "models.qkv_proj.s": (busy("models.qkv_proj"), "s"),
            "models.mlp.s": (busy("models.mlp"), "s"),
            "models.lm_head.s": (busy("models.lm_head"), "s"),
            "models.attend.s": (busy("models.attend"), "s"),
            "models.attend.kv_bytes": (c["models.attend.kv_bytes"], "bytes"),
            "kvcache.materialize.s": (busy("kvcache.materialize"), "s"),
            "kvcache.materialize.bytes": (c["kvcache.materialize.bytes"], "bytes"),
            "kvcache.append.s": (busy("kvcache.append"), "s"),
            "kvcache.observe.self_s": (rows.get("kvcache.observe", {}).get("self_s", 0.0), "s"),
            "kvcache.join.s": (busy("kvcache.join"), "s"),
            "kvcache.retire.s": (busy("kvcache.retire"), "s"),
            "kvcache.prefill_saved_frac": (
                1.0 - k["prefill_computed_tokens"] / prompt if prompt else 0.0,
                "ratio",
            ),
            "kvcache.bytes_used_peak": (float(traced.kv_bytes_used_peak), "bytes"),
            "kvcache.occupancy_mean": (
                float(np.mean(traced.kv_occupancy)) if traced.kv_occupancy else 0.0,
                "ratio",
            ),
            "kvcache.prefetch.s": (busy("kvcache.prefetch"), "s"),
            "kvcache.spills": (k["spills"], "count"),
            "kvcache.restores": (k["restores"], "count"),
            "kvcache.spill_bytes": (k["spill_bytes"], "bytes"),
            "kvcache.restore_bytes": (k["restore_bytes"], "bytes"),
            "core.select.calls": (calls("core.select"), "count"),
            "core.select.s": (busy("core.select"), "s"),
            "core.evicted_tokens": (evicted, "tokens"),
            "generation.sample.s": (busy("generation.sample"), "s"),
            "harness.gen_lag_p99_s": (percentile(untraced.submit_lag, 99), "s"),
            "harness.trace_overhead_frac": (traced.busy_s / untraced.busy_s - 1.0, "ratio"),
        }
        return m
