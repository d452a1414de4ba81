"""Tests of the benchmark's own machinery: seeded inputs, span arithmetic,
layer attribution and wrapper removal."""

from __future__ import annotations

import numpy as np
import pytest

from wallbench.spans import Patcher, Span, Tracer
from wallbench.workloads import WORKLOADS, make_workload


class FakeClock:
    """A clock that only moves when told to — delays are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def _fingerprint(workload):
    return [
        (spec.prompt.tolist(), spec.max_new_tokens, spec.due_s, spec.prefix_id)
        for spec in workload.requests
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_a_pure_function_of_the_seed(name):
    first = make_workload(name, 3, 6)
    again = make_workload(name, 3, 6)
    assert _fingerprint(first) == _fingerprint(again)
    assert first.engine_kwargs == again.engine_kwargs
    assert all(spec.prompt.dtype == np.int64 for spec in first.requests)
    other = make_workload(name, 4, 6)
    assert _fingerprint(first) != _fingerprint(other)
    # Stratified inputs: another seed holds the same amount of work.
    for size in (lambda s: len(s.prompt), lambda s: s.max_new_tokens):
        assert sum(map(size, first.requests)) == sum(map(size, other.requests))


def test_self_time_of_synthetic_nested_spans():
    tracer = Tracer()
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    tracer.spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("c", 5.0, 9.0, 0),
        Span("root", 12.0, 13.0, -1),
    ]
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0, 1.0]
    rows = tracer.by_name()
    assert rows["root"]["calls"] == 2
    assert rows["root"]["busy_s"] == 11.0
    assert rows["root"]["self_s"] == 4.0
    assert tracer.root_time() == 11.0
    # Self times partition the root spans: with the untraced gap (10..12)
    # they add up to the wall time 0..13.
    wall, gaps = 13.0, 13.0 - tracer.root_time()
    assert sum(tracer.self_times()) + gaps == wall


def test_injected_delay_shows_up_as_the_layers_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def slow_layer():
        clock.sleep(0.020)

    def outer():
        clock.sleep(0.005)
        layer()
        layer()
        clock.sleep(0.001)

    layer = tracer.wrap(slow_layer, "fake.layer")
    step = tracer.wrap(outer, "fake.step")
    step()
    rows = tracer.by_name()
    assert rows["fake.layer"]["calls"] == 2
    assert rows["fake.layer"]["self_s"] == pytest.approx(0.040)
    assert rows["fake.step"]["busy_s"] == pytest.approx(0.046)
    assert rows["fake.step"]["self_s"] == pytest.approx(0.006)
    assert [span.parent for span in tracer.spans] == [-1, 0, 0]


def test_span_closes_when_the_wrapped_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert [span.name for span in tracer.spans] == ["boom"]
    assert tracer._stack == []


class _Base:
    def inherited(self):
        return "base"


class _Thing(_Base):
    def own(self):
        return "own"


def test_patcher_restores_class_instance_and_module_attributes():
    import wallbench.workloads as module

    thing = _Thing()
    own, inherited, make = _Thing.__dict__["own"], _Base.__dict__["inherited"], module.make_workload
    patcher = Patcher()
    patcher.replace(_Thing, "own", lambda f: lambda self: "patched")
    patcher.replace(_Thing, "inherited", lambda f: lambda self: "patched")
    patcher.replace(thing, "own", lambda f: lambda: "instance")
    patcher.replace(module, "make_workload", lambda f: None)
    assert thing.own() == "instance" and thing.inherited() == "patched"
    patcher.restore()
    assert _Thing.__dict__["own"] is own
    assert "inherited" not in _Thing.__dict__ and _Base.__dict__["inherited"] is inherited
    assert "own" not in vars(thing)
    assert module.make_workload is make


def _tiny_workload():
    from wallbench.workloads import RequestSpec, Workload

    rng = np.random.default_rng(0)
    requests = tuple(
        RequestSpec(rng.integers(0, 64, size=24 + 8 * i).astype(np.int64), 6) for i in range(3)
    )
    return Workload("tiny", "offline", "window", requests, dict(max_batch_size=2))


def _tiny_engine(workload):
    from repro.models.config import ModelConfig
    from repro.models.transformer import DecoderLM
    from repro.serving import ContinuousBatchingEngine
    from wallbench.workloads import make_policy_factory

    model = DecoderLM(
        ModelConfig(vocab_size=64, d_model=32, n_layers=2, n_heads=4, d_ff=64), seed=0
    )
    return ContinuousBatchingEngine(
        model, policy_factory=make_policy_factory(workload), **workload.engine_kwargs
    )


def test_probes_record_every_layer_and_restore_the_originals():
    import repro.serving.engine as engine_module
    from repro.kvcache.batch import BatchedCacheManager
    from wallbench.check import check_parity
    from wallbench.probes import Probes
    from wallbench.replay import replay

    workload = _tiny_workload()
    untraced = replay(_tiny_engine(workload), workload)
    engine = _tiny_engine(workload)
    manager_before = dict(vars(BatchedCacheManager))
    scheduler_before = dict(vars(engine.scheduler))
    engine_before = dict(vars(engine))
    sample_rows = engine_module.sample_rows

    tracer = Tracer()
    probes = Probes(engine, tracer)
    try:
        traced = replay(engine, workload)
    finally:
        probes.remove()

    expected = {
        "engine.step",
        "engine.submit",
        "scheduler.admit",
        "models.prefill",
        "models.decode_step",
        "models.qkv_proj",
        "models.attend",
        "models.mlp",
        "models.lm_head",
        "kvcache.materialize",
        "kvcache.append",
        "kvcache.observe",
        "kvcache.join",
        "kvcache.retire",
        "core.select",
        "generation.sample",
    }
    assert expected <= set(tracer.by_name())
    metrics = probes.metrics(traced, untraced)
    assert metrics["models.prefill.tokens"][0] == sum(len(s.prompt) for s in workload.requests)
    assert metrics["core.select.calls"][0] > 0
    assert check_parity(traced, untraced) == []

    assert dict(vars(BatchedCacheManager)) == manager_before
    assert dict(vars(engine.scheduler)) == scheduler_before
    assert vars(engine).keys() == engine_before.keys()
    assert engine.policy_factory is engine_before["policy_factory"]
    assert engine_module.sample_rows is sample_rows
    for name in ("forward", "forward_suffix", "decode_step_batch", "lm_logits_rows"):
        assert name not in vars(engine.model)
    for block in engine.model.blocks:
        assert "project_qkv_rows" not in vars(block.attn)
        assert "forward_rows" not in vars(block.mlp)
    for state in traced.states:
        assert "step_selection" not in vars(state.policy)
