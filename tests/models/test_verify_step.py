"""A verify pass — ``decode_step_batch`` over verify cache views, one query
row per draft token — is bit-identical to sequential decoding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policies import FullAttentionPolicy
from repro.generation.generator import Generator
from repro.models.transformer import DecoderLM
from tests.conftest import tiny_config

PROMPT_LEN = 40
BLOCK = 5


def _prompt(model):
    return (
        np.random.default_rng(7)
        .integers(0, model.config.vocab_size, size=(1, PROMPT_LEN))
        .astype(np.int64)
    )


def _sequential_reference(model, prompt, n):
    """Feed the greedy chain one token at a time, recording each logits row."""
    generator = Generator(model, FullAttentionPolicy())
    logits, manager = generator._prompt_forward(prompt, PROMPT_LEN)
    views = manager.layer_views()
    tokens = [int(np.argmax(logits[:, -1, :]))]
    rows = []
    for _ in range(n):
        row = model.decode_step_batch(np.asarray([tokens[-1]]), manager.query_positions(), views)
        manager.advance()
        rows.append(row[0].copy())
        tokens.append(int(np.argmax(row)))
    return tokens, rows


@pytest.mark.parametrize(
    "positional,overrides",
    [
        ("rope", {}),
        ("rope", {"rope_fraction": 0.5}),
        ("alibi", {}),
        ("learned", {}),
    ],
    ids=["rope", "rope_partial", "alibi", "learned"],
)
class TestVerifyStepBitExact:
    def test_verify_rows_equal_sequential_steps(self, positional, overrides):
        model = DecoderLM(tiny_config(positional, **overrides), seed=0)
        prompt = _prompt(model)
        tokens, rows = _sequential_reference(model, prompt, BLOCK)

        generator = Generator(model, FullAttentionPolicy())
        _, manager = generator._prompt_forward(prompt, PROMPT_LEN)
        views = manager.verify_views()
        positions = np.arange(manager.current_position, manager.current_position + BLOCK)
        verify_logits = model.decode_step_batch(np.asarray(tokens[:BLOCK]), positions, views)
        for i in range(BLOCK):
            np.testing.assert_array_equal(verify_logits[i], rows[i])

    def test_rollback_then_decode_is_bit_exact(self, positional, overrides):
        """Truncating rejected tokens leaves the cache exactly at the accepted
        state: the next sequential step reproduces the reference bits."""
        model = DecoderLM(tiny_config(positional, **overrides), seed=0)
        prompt = _prompt(model)
        tokens, rows = _sequential_reference(model, prompt, BLOCK)

        generator = Generator(model, FullAttentionPolicy())
        _, manager = generator._prompt_forward(prompt, PROMPT_LEN)
        positions = np.arange(manager.current_position, manager.current_position + BLOCK)
        model.decode_step_batch(np.asarray(tokens[:BLOCK]), positions, manager.verify_views())
        committed = 3
        manager.commit_verify(committed, BLOCK)
        assert manager.caches[0].length == PROMPT_LEN + committed
        row = model.decode_step_batch(
            np.asarray([tokens[committed]]), manager.query_positions(), manager.layer_views()
        )
        np.testing.assert_array_equal(row[0], rows[committed])

    def test_single_query_verify_equals_decode_step(self, positional, overrides):
        """The degenerate S=1 verify pass is exactly one decode step."""
        model = DecoderLM(tiny_config(positional, **overrides), seed=0)
        prompt = _prompt(model)
        tokens, rows = _sequential_reference(model, prompt, 1)

        generator = Generator(model, FullAttentionPolicy())
        _, manager = generator._prompt_forward(prompt, PROMPT_LEN)
        verify_logits = model.decode_step_batch(
            np.asarray(tokens[:1]), np.asarray([manager.current_position]), manager.verify_views()
        )
        np.testing.assert_array_equal(verify_logits[0], rows[0])
