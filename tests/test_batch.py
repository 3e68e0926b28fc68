"""The lock-step batch equals the per-agent path bit for bit.

Random ``init_model`` weights, A in {1, 2, 3} agents, random observation
length T and a small m (so random weights stay finite).  The per-agent
oracle lives in ``tests/reference.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from laco import scenario as sc
from laco.errors import ConfigError
from laco.ild import compute_alignment, deliberate
from laco.model import KVSegment, ModelConfig, forward_decode, init_model, prefill
from reference import ref_deliberate, ref_forward_decode, ref_prefill

CASES = [(seed, A) for seed in range(12) for A in (1, 2, 3)]


def random_case(seed, A):
    """A random model and A token sequences of one random length T; small m."""
    rng = np.random.default_rng(seed)
    H = int(rng.integers(1, 4))
    dh = int(rng.integers(2, 17))
    L = int(rng.integers(2, 5))
    V = int(rng.integers(8, 24))
    T = int(rng.integers(1, 98))
    m = int(rng.integers(0, 6))
    cfg = ModelConfig(L, H, H * dh, V, T + m + 2, seed=int(rng.integers(0, 2**32)))
    return init_model(cfg), rng.integers(0, V, size=(A, T)), m


def assert_cache_equal(cache, ref):
    n = ref.length
    assert cache.length == n
    np.testing.assert_array_equal(cache.tags[:n], ref.tags[:n])
    np.testing.assert_array_equal(cache.k[:, :, :n], ref.k[:, :, :n])
    np.testing.assert_array_equal(cache.v[:, :, :n], ref.v[:, :, :n])


@pytest.mark.parametrize("seed, A", CASES)
def test_prefill_and_deliberation_match_per_agent_path(seed, A):
    model, tokens, m = random_case(seed, A)
    agents = [10 + a for a in range(A)]
    pre = prefill(model, tokens, agents=agents)
    align = compute_alignment(model)
    delib = deliberate(model, align, pre.hidden, pre.cache, m)
    assert pre.hidden.shape == (A, model.config.model_dim)
    assert len(delib.trace) == A and delib.steps == m
    for a, aid in enumerate(agents):
        h0, ref_cache = ref_prefill(model, tokens[a])
        np.testing.assert_array_equal(pre.hidden[a], h0)
        h, array, lengths = ref_deliberate(model, align.w_a, h0, ref_cache, m)
        np.testing.assert_array_equal(delib.final_hidden[a], h)
        np.testing.assert_array_equal(delib.trace[a].array, array)
        np.testing.assert_array_equal(delib.trace[a].lengths, lengths)
        assert_cache_equal(pre.cache[a], ref_cache)
        assert pre.cache[a].agent == aid
        assert model.stats.forward_passes[aid] == 1 + m


@pytest.mark.parametrize("seed", range(6))
def test_single_sequence_is_the_one_agent_batch(seed):
    model, tokens, m = random_case(seed, 1)
    pre = prefill(model, tokens[0])
    delib = deliberate(model, compute_alignment(model), pre.hidden, pre.cache, m)
    h0, ref_cache = ref_prefill(model, tokens[0])
    h, array, _ = ref_deliberate(model, compute_alignment(model).w_a, h0, ref_cache, m)
    np.testing.assert_array_equal(delib.final_hidden, h)
    np.testing.assert_array_equal(delib.trace.array, array)
    assert_cache_equal(pre.cache, ref_cache)
    assert model.stats.forward_passes[0] == 1 + m


@pytest.mark.parametrize("seed, A", CASES)
def test_language_decode_matches_per_agent_greedy_decode(seed, A):
    model, tokens, m = random_case(seed, A)
    spec = sc.parse_scenario(THREE_AGENTS)
    spec = replace(spec, m=m, agents=spec.agents[:A])
    sim = sc.Simulation(spec, "Language")
    sim.model = model
    live = sim.live_agents()
    pre = prefill(model, tokens, agents=live)
    messages = sc._send_tokens(sim, live, pre)
    for a, aid in enumerate(live):
        h, ref_cache = ref_prefill(model, tokens[a])
        ids = []
        for _ in range(m):
            ids.append(int(np.argmax(h @ model.w_out)))
            h, _ = ref_forward_decode(model, model.w_in[ids[-1]], ref_cache)
        assert messages[a].token_ids == tuple(ids)
        assert messages[a].sender_id == aid
        assert_cache_equal(pre.cache[a], ref_cache)
        assert sim.agents[aid].decoded_tokens == m
        assert model.stats.forward_passes[aid] == 1 + m


def test_decision_decode_on_a_batch_view_matches_per_agent_path():
    """After the lock-step steps each agent decodes alone on its own view."""
    model, tokens, m = random_case(3, 3)
    align = compute_alignment(model)
    pre = prefill(model, tokens)
    deliberate(model, align, pre.hidden, pre.cache, m)
    refs = []
    for a in range(3):
        h0, ref_cache = ref_prefill(model, tokens[a])
        ref_deliberate(model, align.w_a, h0, ref_cache, m)
        refs.append(ref_cache)
    x = np.linspace(-1, 1, model.config.model_dim).astype(np.float32)
    for a in (2, 0):  # ragged: agent 1 does not decode
        h, rows = forward_decode(model, x, pre.cache[a])
        h_ref, rows_ref = ref_forward_decode(model, x, refs[a])
        np.testing.assert_array_equal(h, h_ref)
        for got, want in zip(rows, rows_ref):
            np.testing.assert_array_equal(got, want)
    for a in range(3):
        assert_cache_equal(pre.cache[a], refs[a])


class TestBatchRejected:
    def setup_method(self):
        self.model, tokens, _ = random_case(5, 3)
        self.pre = prefill(self.model, tokens)
        self.x = np.zeros((2, self.model.config.model_dim), dtype=np.float32)

    def test_rows_out_of_order(self):
        with pytest.raises(ConfigError, match="consecutive"):
            forward_decode(self.model, self.x, [self.pre.cache[1], self.pre.cache[0]])

    def test_rows_at_different_lengths(self):
        forward_decode(self.model, self.x[0], self.pre.cache[1])
        with pytest.raises(ConfigError, match="one length"):
            forward_decode(self.model, self.x, self.pre.cache[:2])

    def test_caches_of_two_stores(self):
        other = prefill(self.model, np.zeros(self.pre.cache[0].length, dtype=np.int64)).cache
        with pytest.raises(ConfigError, match="one store"):
            forward_decode(self.model, self.x, [self.pre.cache[0], other])

    def test_segments_need_a_single_cache(self):
        seg = KVSegment(keys=self.pre.cache[0].k[:, :, :1].copy(),
                        values=self.pre.cache[0].v[:, :, :1].copy(),
                        tags=np.zeros(1, dtype=np.uint8))
        with pytest.raises(ConfigError, match="single cache"):
            forward_decode(self.model, self.x, self.pre.cache[:2], [seg])

    def test_input_shape_must_match_the_batch(self):
        with pytest.raises(ConfigError, match="shape"):
            forward_decode(self.model, self.x, self.pre.cache)


THREE_AGENTS = """
name = three_agents
paradigm = Language
grid = ......
grid = ......
grid = ......
grid = ......
agent = 0 A 3,0
agent = 1 B 0,0
agent = 2 B 1,0
route = 0 3,0 3,1 3,2 3,3 3,4 3,5
route = 1 0,0 0,1 0,2 0,3 0,4 0,5
route = 2 1,0 1,1 1,2 1,3 1,4 1,5
"""
