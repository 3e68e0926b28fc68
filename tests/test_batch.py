"""The lock-step batch equals the per-agent path bit for bit.

Random ``init_model`` weights, A in {1, 2, 3} agents, random observation
length T and a small m (so random weights stay finite).  The per-agent
oracle lives in ``tests/reference.py``: prefill, deliberation, the Language
decode, and the decision decode over received payloads (one batched pass per
inbox signature) and over a Language receiver's re-prefill.
"""

from dataclasses import replace

import numpy as np
import pytest

from laco import scenario as sc
from laco.errors import ConfigError
from laco.ild import compute_alignment, deliberate
from laco.fusion import attach_payload, collaborative_decode
from laco.model import (
    ACTION_TOKENS,
    AttentionTrace,
    TOKEN_BRAKE,
    TOKEN_KEEP,
    DecodeBatch,
    Model,
    ModelConfig,
    forward_decode,
    prefill,
    project_to_logits,
)
from laco.wire import DTYPE_F16, DTYPE_F32, distill
from reference import init_model, init_weights, ref_deliberate, ref_forward_decode, ref_prefill, sent_as

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
    model = init_model(ModelConfig(L, H, H * dh, V, T + m + 2), int(rng.integers(0, 2**32)))
    return model, rng.integers(0, V, size=(A, T)), m


def assert_cache_equal(cache, ref):
    n = ref.length
    assert (cache.prefill_len, cache.length) == (ref.prefill_len, n)
    np.testing.assert_array_equal(cache.k[:, :, :n], ref.k[:, :, :n])
    np.testing.assert_array_equal(cache.v[:, :, :n], ref.v[:, :, :n])


@pytest.mark.parametrize("seed, A", CASES)
def test_prefill_and_deliberation_match_per_agent_path(seed, A):
    model, tokens, m = random_case(seed, A)
    pre = prefill(model, tokens)
    align = compute_alignment(model)
    delib = deliberate(model, align, pre.hidden, pre.caches, m)
    assert pre.hidden.shape == (A, model.config.model_dim)
    assert len(delib.traces) == A and delib.steps == m
    for a in range(A):
        h0, ref_cache = ref_prefill(model, tokens[a])
        np.testing.assert_array_equal(pre.hidden[a], h0)
        h, array, lengths = ref_deliberate(model, align, h0, ref_cache, m)
        np.testing.assert_array_equal(delib.final_hidden[a], h)
        np.testing.assert_array_equal(delib.traces[a].array, array)
        np.testing.assert_array_equal(delib.traces[a].lengths, lengths)
        assert_cache_equal(pre.caches[a], ref_cache)
        assert 1 + pre.caches[a].length - pre.caches[a].prefill_len == 1 + m  # passes


@pytest.mark.parametrize("A", [1, 3])
def test_lock_step_deliberation_checks_its_rows_once(monkeypatch, A):
    """One row check over the (m, L, A·H, n) buffer; each agent's trace is a
    head view of it that is not checked again."""
    model, tokens, _ = random_case(0, A)
    pre = prefill(model, tokens)
    checks = []
    check = AttentionTrace.__post_init__
    monkeypatch.setattr(AttentionTrace, "__post_init__",
                        lambda trace: (checks.append(trace.array.shape), check(trace)))
    delib = deliberate(model, compute_alignment(model), pre.hidden, pre.caches, 2)
    L, H = model.config.num_layers, model.config.num_heads
    assert checks == [(2, L, A * H, tokens.shape[1] + 2)]
    assert all(t.array.base is delib.traces[0].array.base for t in delib.traces)


@pytest.mark.parametrize("seed", range(6))
def test_single_sequence_is_the_one_agent_batch(seed):
    """One agent is a batch of one: a bare (T,) sequence is refused, and its
    (1, T) batch gives the per-agent path's bits."""
    model, tokens, m = random_case(seed, 1)
    with pytest.raises(ConfigError) as err:
        prefill(model, tokens[0])
    assert str(err.value) == "prefill needs an (A, T) batch of non-empty token sequences"
    pre = prefill(model, tokens)
    delib = deliberate(model, compute_alignment(model), pre.hidden, pre.caches, m)
    h0, ref_cache = ref_prefill(model, tokens[0])
    h, array, _ = ref_deliberate(model, compute_alignment(model), h0, ref_cache, m)
    np.testing.assert_array_equal(delib.final_hidden, h[None])
    np.testing.assert_array_equal(delib.traces[0].array, array)
    assert_cache_equal(pre.caches[0], ref_cache)
    assert 1 + pre.caches[0].length - pre.caches[0].prefill_len == 1 + m  # passes


@pytest.mark.parametrize("seed, A", CASES)
def test_language_decode_matches_per_agent_greedy_decode(seed, A):
    model, tokens, m = random_case(seed, A)
    spec = sc.parse_scenario(THREE_AGENTS)
    spec = replace(spec, m=m, agents=spec.agents[:A])
    sim = sc.Simulation(spec, "Language")
    sim.model = model
    live = sim.live_agents()
    pre = prefill(model, tokens)
    messages = sc._send_tokens(sim, live, pre)
    for a, aid in enumerate(live):
        h, ref_cache = ref_prefill(model, tokens[a])
        ids = []
        for _ in range(m):
            ids.append(int(np.argmax(h @ model.w_out)))
            h, _ = ref_forward_decode(model, model.w_in[ids[-1]], ref_cache)
        assert messages[a].token_ids == tuple(ids)
        assert messages[a].sender_id == aid
        assert_cache_equal(pre.caches[a], ref_cache)
        assert sim.agents[aid].decoded_tokens == m
        assert 1 + pre.caches[a].length - pre.caches[a].prefill_len == 1 + m  # passes


def test_decision_decode_on_a_batch_view_matches_per_agent_path():
    """After the lock-step steps each agent decodes alone on its own view."""
    model, tokens, m = random_case(3, 3)
    align = compute_alignment(model)
    pre = prefill(model, tokens)
    deliberate(model, align, pre.hidden, pre.caches, m)
    refs = []
    for a in range(3):
        h0, ref_cache = ref_prefill(model, tokens[a])
        ref_deliberate(model, align, h0, ref_cache, m)
        refs.append(ref_cache)
    x = np.linspace(-1, 1, model.config.model_dim).astype(np.float32)
    for a in (2, 0):  # ragged: agent 1 does not decode
        h, rows = forward_decode(model, x[None], pre.caches[a : a + 1])
        h_ref, rows_ref = ref_forward_decode(model, x, refs[a])
        np.testing.assert_array_equal(h, h_ref[None])
        for got, want in zip(rows, rows_ref, strict=True):
            np.testing.assert_array_equal(got, want)
    for a in range(3):
        assert_cache_equal(pre.caches[a], refs[a])


def deliberated_batch(seed, A):
    """A random model, its batch of A caches after m lock-step latent steps,
    the per-agent reference caches at the same point, and T."""
    model, tokens, m = random_case(seed, A)
    align = compute_alignment(model)
    pre = prefill(model, tokens)
    deliberate(model, align, pre.hidden, pre.caches, m)
    refs = []
    for row in tokens:
        h0, ref_cache = ref_prefill(model, row)
        ref_deliberate(model, align, h0, ref_cache, m)
        refs.append(ref_cache)
    return model, pre.caches, refs, tokens.shape[1]


def inbox(caches, receiver, T, l_comms, dtype_flag, rng, kept):
    """One payload per entry of ``l_comms``, each cut from another agent's cache
    with ``kept`` salient positions, in ascending sender order."""
    senders = [a for a in range(len(caches)) if a != receiver]
    out = []
    for i, l_comm in enumerate(l_comms):
        sender = senders[i % len(senders)]
        idx = sorted(rng.choice(T, size=kept, replace=False).tolist())
        L = caches[0].config.num_layers
        out.append(sent_as(distill(caches[sender], idx, l_comm / L, sender_id=i, frame_id=0),
                           dtype_flag))
    return out


def assert_decision_matches_reference(model, x, ref_cache, payloads, hidden, logits, rows):
    h_ref, rows_ref = ref_forward_decode(model, x, ref_cache, payloads=payloads)
    if hidden is not None:
        np.testing.assert_array_equal(hidden, h_ref)
    np.testing.assert_array_equal(logits, project_to_logits(model, h_ref))
    assert len(rows) == len(rows_ref)
    for got, want in zip(rows, rows_ref):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype_flag", [DTYPE_F32, DTYPE_F16])
@pytest.mark.parametrize("seed, A", [(seed, A) for seed in range(6) for A in (2, 3)])
def test_batched_decision_decode_matches_per_agent_path(seed, A, dtype_flag):
    L = random_case(seed, A)[0].config.num_layers
    rng = np.random.default_rng(100 + seed)
    for l_comm in range(1, L + 1):
        model, caches, refs, T = deliberated_batch(seed, A)
        H, d, kept = model.config.num_heads, model.config.model_dim, max(1, T // 3)
        # Two payloads per agent: one at l_comm, one at full depth.
        inboxes = [inbox(caches, a, T, [l_comm, L], dtype_flag, rng, kept) for a in range(A)]
        x = rng.uniform(-1, 1, size=(A, d)).astype(np.float32)
        out = collaborative_decode(model, x, attach_payload(caches, inboxes))
        for a in range(A):
            rows = out.attention_rows[a]
            assert_decision_matches_reference(model, x[a], refs[a], inboxes[a], out.hidden[a],
                                              out.logits[a], rows)
            assert_cache_equal(caches[a], refs[a])
            assert [t.shape[0] for t in out.context_tags[a]] == [r.shape[1] for r in rows]
            assert all(r.shape[0] == H for r in rows)


def test_a_ragged_tick_decides_in_one_pass_per_signature(monkeypatch):
    """Rows 0 and 1 share a signature, row 2 has another, and the agent ids
    are not consecutive: two decodes, each agent equal to its reference."""
    model, caches, refs, T = deliberated_batch(7, 3)
    L, H = model.config.num_layers, model.config.num_heads
    rng = np.random.default_rng(7)
    inboxes = [inbox(caches, 0, T, [1], DTYPE_F32, rng, 2),
               inbox(caches, 1, T, [1], DTYPE_F16, rng, 2),
               inbox(caches, 2, T, [L], DTYPE_F32, rng, 3)]
    spec = sc.parse_scenario(THREE_AGENTS)
    live = [10 + 3 * a for a in range(3)]
    sim = sc.Simulation(replace(spec, agents=tuple(replace(a, agent_id=aid)
                                                   for a, aid in zip(spec.agents, live))))
    sim.model = model
    groups = []
    monkeypatch.setattr(sc, "collaborative_decode", lambda model, x, ctx: groups.append(
        [live[c.row] for c in ctx.caches]) or collaborative_decode(model, x, ctx))
    decisions = sc._decide(sim, live, None, dict(zip(live, caches)), dict(zip(live, inboxes)))
    assert groups == [live[:2], live[2:]]
    for a, aid in enumerate(live):
        logits, rows, tags = decisions[aid]
        x = model.w_in[sim.agents[aid].spec.marker_token]
        assert_decision_matches_reference(model, x, refs[a], inboxes[a], None, logits, rows)
        assert [t.shape[0] for t in tags] == [r.shape[1] for r in rows]
        assert all(r.shape[0] == H for r in rows)


def test_same_signature_on_rows_apart_is_not_one_batch(monkeypatch):
    model, caches, _, T = deliberated_batch(8, 3)
    rng = np.random.default_rng(8)
    inboxes = [inbox(caches, a, T, [k], DTYPE_F32, rng, 1) for a, k in enumerate((1, 2, 1))]
    sim = sc.Simulation(sc.parse_scenario(THREE_AGENTS))
    sim.model = model
    groups = []
    monkeypatch.setattr(sc, "collaborative_decode", lambda model, x, ctx: groups.append(
        len(ctx.caches)) or collaborative_decode(model, x, ctx))
    sc._decide(sim, [0, 1, 2], None, dict(enumerate(caches)), dict(enumerate(inboxes)))
    assert groups == [1, 1, 1]


def test_a_nan_payload_leaves_its_batch_mates_bit_identical():
    model, caches, refs, T = deliberated_batch(9, 3)
    d, H = model.config.model_dim, model.config.num_heads
    rng = np.random.default_rng(9)
    inboxes = [inbox(caches, a, T, [model.config.num_layers], DTYPE_F32, rng, 2)
               for a in range(3)]
    inboxes[1][0].keys[0, 0, 0, 0] = np.nan
    x = rng.uniform(-1, 1, size=(3, d)).astype(np.float32)
    with np.errstate(invalid="ignore"):
        hidden, rows = forward_decode(model, x, caches, inboxes)
    assert not np.isfinite(hidden[1]).all()
    for a in (0, 2):
        h_ref, rows_ref = ref_forward_decode(model, x[a], refs[a], payloads=inboxes[a])
        np.testing.assert_array_equal(hidden[a], h_ref)
        for got, want in zip(rows, rows_ref):
            np.testing.assert_array_equal(got[a * H : (a + 1) * H], want)


def test_language_receivers_re_prefill_in_one_pass_per_prefix_length(monkeypatch):
    """Agents 0 and 2 are out of range of each other, so 0 and 2 relay m
    tokens and 1 relays 2m: one re-prefill for {0, 2}, one for {1}."""
    spec = sc.parse_scenario(LANGUAGE_CHAIN)
    sim = sc.Simulation(spec)
    w_in, w_out, pos, layers = init_weights(spec.model_config(), 0)
    # Non-action logits are 0 and KEEP = -BRAKE, so the argmax is an action slot.
    w_out[:, len(ACTION_TOKENS):] = 0.0
    w_out[:, TOKEN_KEEP] = -w_out[:, TOKEN_BRAKE]
    sim.model = model = Model(spec.model_config(), w_in, w_out, pos, layers)
    live, m, T = sim.live_agents(), spec.m, spec.observation_len
    obs = {aid: sc.observe(sim.world, sim.agents, spec.hazards, aid, 0) for aid in live}
    relayed = {}
    for aid in live:  # each agent's message: m greedy tokens on its own observation
        h, cache = ref_prefill(model, obs[aid])
        relayed[aid] = []
        for _ in range(m):
            relayed[aid].append(int(np.argmax(project_to_logits(model, h))))
            h, _ = ref_forward_decode(model, model.w_in[relayed[aid][-1]], cache)
    heard = {0: [1], 1: [0, 2], 2: [1]}

    shapes, logits = [], {}
    monkeypatch.setattr(sc, "prefill", lambda model, tokens: shapes.append(
        np.shape(tokens)) or prefill(model, tokens))

    def decide(*args, decide=sc._decide):
        out = decide(*args)
        logits.update((aid, decision[0]) for aid, decision in out.items())
        return out

    monkeypatch.setattr(sc, "_decide", decide)
    sc.run_tick(sim)
    assert shapes == [(3, T), (2, m + T), (1, 2 * m + T)]
    records = {r.agent: r for r in sim.telemetry}
    for aid in live:
        tokens = [tok for sender in heard[aid] for tok in relayed[sender]] + obs[aid].tolist()
        _, cache = ref_prefill(model, tokens)
        x = model.w_in[sim.agents[aid].spec.marker_token]
        assert_decision_matches_reference(model, x, cache, (), None, logits[aid],
                                          records[aid].rows)


@pytest.mark.parametrize("seed, A", CASES)
def test_steps_of_one_batch_equal_fresh_decodes(seed, A):
    """Three steps of one DecodeBatch give the bytes of three fresh ``forward_decode``
    calls on a second prefill: hidden states, rows (one run into a buffer) and the store,
    with one float32 or float16 payload per sender, each at its own depth."""
    rng = np.random.default_rng(seed)
    H, dh, L, T = (int(rng.integers(lo, hi)) for lo, hi in ((1, 4), (2, 17), (2, 5), (1, 40)))
    model = init_model(ModelConfig(L, H, H * dh, 16, T + 3), seed)
    tokens, sent = rng.integers(0, 16, size=(2, A, T))
    senders, kept = prefill(model, sent).caches, rng.integers(1, T + 1, size=A)
    inboxes = [[sent_as(distill(senders[s], sorted(rng.choice(T, size=kept[s], replace=False).tolist()),
                                (1 + s % L) / L, sender_id=s, frame_id=0), (DTYPE_F32, DTYPE_F16)[s % 2])
                for s in range(A)] for _ in range(A)]
    batched, fresh = prefill(model, tokens).caches, prefill(model, tokens).caches
    batch = DecodeBatch(model, batched, inboxes)
    buffer = np.zeros((3, L, A * H, T + 3 + kept.sum()), np.float32)
    for x, rows in zip(rng.uniform(-1, 1, size=(3, A, H * dh)).astype(np.float32), buffer):
        got, want = batch(x, rows), forward_decode(model, x, fresh, inboxes)
        assert [a.tobytes() for a in (got[0], *got[1])] == [a.tobytes() for a in (want[0], *want[1])]
    assert batched[0].store.tobytes() == fresh[0].store.tobytes()
    assert [c.length for c in batched] == [c.length for c in fresh] == [T + 3] * A


def test_a_decode_of_a_batch_row_outside_the_batch_is_refused():
    """Once a subset of its caches decodes on its own, the batch's next step raises
    (its kept ``nonzero`` flags could be stale) and changes nothing."""
    model, tokens, _ = random_case(5, 3)
    pre = prefill(model, tokens)
    x = np.ones((3, model.config.model_dim), dtype=np.float32)
    batch = DecodeBatch(model, pre.caches)
    batch(x)
    forward_decode(model, x[1:2], pre.caches[1:2])
    store = pre.caches[0].store.copy()
    with pytest.raises(ConfigError, match="decoded outside"):
        batch(x)
    assert [c.length for c in pre.caches] == [tokens.shape[1] + 1, tokens.shape[1] + 2, tokens.shape[1] + 1]
    np.testing.assert_array_equal(pre.caches[0].store, store)


class TestBatchRejected:
    def setup_method(self):
        self.model, tokens, _ = random_case(5, 3)
        self.pre = prefill(self.model, tokens)
        self.x = np.zeros((2, self.model.config.model_dim), dtype=np.float32)

    def test_rows_out_of_order(self):
        with pytest.raises(ConfigError, match="consecutive"):
            forward_decode(self.model, self.x, [self.pre.caches[1], self.pre.caches[0]])

    def test_rows_at_different_lengths(self):
        forward_decode(self.model, self.x[:1], self.pre.caches[1:2])
        with pytest.raises(ConfigError, match="one length"):
            forward_decode(self.model, self.x, self.pre.caches[:2])

    def test_caches_of_two_stores(self):
        other = prefill(self.model, np.zeros((1, self.pre.caches[0].length), np.int64)).caches[0]
        with pytest.raises(ConfigError, match="one store"):
            forward_decode(self.model, self.x, [self.pre.caches[0], other])

    def test_payload_lists_of_two_signatures(self):
        cache = self.pre.caches[0]
        assert cache.prefill_len == cache.length  # no latent run: one, two and shallow differ
        one = distill(cache, [0], 1.0, sender_id=0, frame_id=0)
        two = distill(cache, [0, 1], 1.0, sender_id=0, frame_id=0)
        shallow = distill(cache, [0], 0.01, sender_id=0, frame_id=0)
        for inboxes in ([[one], [two]], [[one], [shallow]], [[one], []], [[one, one], [one]]):
            with pytest.raises(ConfigError, match="signature"):
                forward_decode(self.model, self.x, self.pre.caches[:2], inboxes)
        with pytest.raises(ConfigError, match="one payload list per agent"):
            forward_decode(self.model, self.x, self.pre.caches[:2], [[one]])

    def test_input_shape_must_match_the_batch(self):
        with pytest.raises(ConfigError, match="shape"):
            forward_decode(self.model, self.x, self.pre.caches)
        d = self.model.config.model_dim
        for x in (np.zeros(d, np.float32), np.zeros((1, 1, d), np.float32)):  # one cache: (1, d)
            with pytest.raises(ConfigError) as err:
                forward_decode(self.model, x, self.pre.caches[:1])
            assert str(err.value) == f"decode input must have shape (1, {d})"
        assert [c.length for c in self.pre.caches] == [self.pre.caches[0].length] * 3


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

LANGUAGE_CHAIN = """
name = language_chain
paradigm = Language
m = 3
channel_range_m = 15.0
grid = ......
grid = ......
grid = ......
agent = 0 A 0,0
agent = 1 B 1,0
agent = 2 B 2,0
route = 0 0,0 0,1 0,2 0,3 0,4 0,5
route = 1 1,0 1,1 1,2 1,3 1,4 1,5
route = 2 2,0 2,1 2,2 2,3 2,4 2,5
"""
