"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from laco import scenario as sc
from laco.chsa import saliency_scores, select_topk
from laco.cli import main
from laco.fusion import attach_payload, collaborative_decode
from laco.ild import compute_alignment, deliberate
from laco.model import (
    TOKEN_CLEAR,
    TOKEN_EGO_A,
    AttentionTrace,
    ModelConfig,
    forward_decode,
    make_hazard_model,
    prefill,
    project_to_logits,
)
from laco.telemetry import DecisionRecord, confusion_index, trace_entropy
from laco.wire import DTYPE_F16, DTYPE_F32, deserialize, distill, serialize
from reference import init_model, ref_layer_entropy, ref_saliency, ref_snapshot
from test_wire import random_payload

OCCLUDED = ("occluded_1", "occluded_2", "occluded_3", "occluded_4", "occluded_5")
CLEAR_LANE = ("clear_lane_1", "clear_lane_2")


@contextmanager
def budget(label, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{label} took {elapsed:.2f}s, budget {seconds}s"
    print(f"[PASS] {label} ({elapsed:.2f}s < {seconds}s)")


@pytest.fixture(scope="module")
def shipped():
    """All shipped layouts run once per needed paradigm."""
    episodes = {}
    for name in OCCLUDED + CLEAR_LANE:
        spec = sc.load_scenario(sc.builtin_scenario_path(name))
        paradigms = ["NonCollab", "LACO", "Visual"]
        if name in CLEAR_LANE:
            paradigms.append("NaiveLatent")
        for paradigm in paradigms:
            episodes[(name, paradigm)] = sc.run_episode(spec, paradigm)
    return episodes


def test_c01_empty_payload_equivalence():
    rng = np.random.default_rng(1)
    with budget("C01 empty-payload equivalence (1000 instances, exact)", 10.0):
        checked = 0
        for model_i in range(20):
            L = int(rng.integers(2, 4))
            H = int(rng.integers(1, 3))
            dh = int(rng.integers(2, 5))
            d = H * dh
            V = int(rng.integers(8, 24))
            model = init_model(ModelConfig(L, H, d, V, 24), int(rng.integers(0, 2**32)))
            for _ in range(50):
                tokens = rng.integers(0, V, size=int(rng.integers(1, 8)))
                (cache,) = prefill(model, [tokens]).caches
                x = rng.normal(scale=0.7, size=(1, d)).astype(np.float32)
                plain_cache = ref_snapshot(cache)
                fused_cache = ref_snapshot(cache)
                hidden, rows = forward_decode(model, x, [plain_cache])
                logits = project_to_logits(model, hidden)
                out = collaborative_decode(model, x, attach_payload([fused_cache], [[]]))
                assert np.array_equal(out.hidden, hidden)
                assert np.array_equal(out.logits, logits)
                assert len(out.attention_rows[0]) == len(rows)
                for a, b in zip(out.attention_rows[0], rows):
                    assert np.array_equal(a, b)
                checked += 1
        assert checked == 1000


def test_c02_saliency_bruteforce_oracle():
    rng = np.random.default_rng(2)
    with budget("C02 saliency vs four-loop brute force (500 traces, 1e-9)", 5.0):
        for _ in range(500):
            T = int(rng.integers(1, 17))
            L = int(rng.integers(1, 5))
            H = int(rng.integers(1, 5))
            steps = int(rng.integers(1, 9))
            raw = rng.random((steps, L, H, T)) + 1e-4
            rows = raw / raw.sum(axis=3, keepdims=True)
            trace = AttentionTrace(rows.astype(np.float32), np.full(steps, T))
            got = saliency_scores(trace, T, 0.3).scores
            want = ref_saliency(trace.array[:steps], trace.lengths[:steps], T)
            np.testing.assert_allclose(got, want, atol=1e-9)


def one_step_entropy(rows):
    """Entropy of one layer's (H, N) rows: ``trace_entropy`` of a one-step trace."""
    return trace_entropy(AttentionTrace(rows[None, None], np.array([rows.shape[1]])))[0]


def test_c03_entropy_oracle():
    rng = np.random.default_rng(3)
    with budget("C03 entropy vs straight-line oracle (500 inputs)", 5.0):
        for _ in range(500):
            H = int(rng.integers(1, 5))
            N = int(rng.integers(1, 65))
            raw = rng.random((H, N)) + 1e-4
            rows = (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)
            got = one_step_entropy(rows)
            want = ref_layer_entropy(rows, 1e-8)
            np.testing.assert_allclose(got, want, atol=1e-12)
        uniform = np.full((2, 16), 1.0 / 16, dtype=np.float32)
        np.testing.assert_allclose(one_step_entropy(uniform), np.log(16.0), atol=1e-5)
        one_hot = np.zeros((2, 16), dtype=np.float32)
        one_hot[:, 5] = 1.0
        assert abs(one_step_entropy(one_hot)) <= 1e-6


def test_c04_pseudo_inverse_contract():
    rng = np.random.default_rng(4)
    with budget("C04 Moore-Penrose contract (100 matrices, 1e-5)", 10.0):
        for _ in range(100):
            n = int(rng.integers(2, 65))
            m = int(rng.integers(2, 257))
            w = rng.normal(size=(n, m))
            pinv = np.linalg.pinv(w, rcond=1e-6)
            err = np.linalg.norm(w @ pinv @ w - w) / np.linalg.norm(w)
            assert err < 1e-5
        u = rng.normal(size=32)
        u /= np.linalg.norm(u)
        q = np.eye(32) - 2.0 * np.outer(u, u)  # orthogonal (and symmetric)
        np.testing.assert_allclose(np.linalg.pinv(q), q.T, atol=1e-5)
        # and the alignment built on such a head reduces to transpose-multiply
        model = init_model(ModelConfig(2, 2, 32, 32, 16), 0)
        model.w_out = q.astype(np.float32)
        model._alignment = None
        proj = compute_alignment(model)
        expected = model.w_out.T.astype(np.float64) @ model.w_in.astype(np.float64)
        np.testing.assert_allclose(proj, expected, atol=1e-5)


def test_c05_wire_format_fuzz():
    rng = np.random.default_rng(5)
    with budget("C05 wire round-trip + size law (240 shapes, exact)", 5.0):
        for i in range(240):
            flag = DTYPE_F32 if i % 2 == 0 else DTYPE_F16
            p = random_payload(
                rng,
                l_comm=int(rng.integers(1, 6)),
                H=int(rng.integers(1, 5)),
                t_salient=int(rng.integers(0, 9)),
                t_latent=int(rng.integers(0, 9)),
                dh=int(rng.integers(1, 17)),
                dtype_flag=flag,
            )
            blob = serialize(p)
            assert len(blob) == p.size_bytes()
            q = deserialize(blob)
            assert serialize(q) == blob
            assert q.keys.tobytes() == p.keys.tobytes()
            assert q.values.tobytes() == p.values.tobytes()
            assert q.source_indices == p.source_indices


def test_c06_compression_accounting(shipped):
    with budget("C06 compression accounting (closed form, exact)", 1.0):
        L, T, m = 20, 100, 10
        cfg = ModelConfig(L, 2, 16, 16, 128)
        model2 = make_hazard_model(cfg)
        tokens = [TOKEN_CLEAR] * (T - 1) + [TOKEN_EGO_A]
        res2 = prefill(model2, [tokens])
        out2 = deliberate(model2, compute_alignment(model2), res2.hidden, res2.caches, m)
        sal = saliency_scores(out2.traces[0], T, 0.3)
        indices = select_topk(sal)
        assert len(indices) == 30
        pruned = distill(res2.caches[0], indices, 0.10, sender_id=0, frame_id=0)
        assert pruned.l_comm == 2
        full = distill(res2.caches[0], list(range(T)), 1.0, sender_id=0, frame_id=0)
        pruned_body = len(serialize(pruned)) - (37 + 4 * 30)
        full_body = len(serialize(full)) - (37 + 4 * 100)
        # pruned/full == 0.1 * (30 + 10) / (100 + 10), checked in exact integers
        assert pruned_body * 10 * 110 == full_body * 40
        for name in OCCLUDED + CLEAR_LANE:
            laco = shipped[(name, "LACO")].comm_bytes_total
            visual = shipped[(name, "Visual")].comm_bytes_total
            assert 0 < laco < visual


def test_c07_latency_accounting():
    with budget("C07 decoded-token and forward-pass accounting (exact)", 5.0):
        spec = sc.load_scenario(sc.builtin_scenario_path("occluded_1"))
        sim = sc.Simulation(spec, "LACO")
        for _ in range(3):
            before_fwd = {aid: sim.agents[aid].forward_passes for aid in sim.live_agents()}
            before_dec = {aid: sim.agents[aid].decoded_tokens for aid in sim.live_agents()}
            live = sim.live_agents()
            sc.run_tick(sim)
            for aid in live:
                assert sim.agents[aid].forward_passes - before_fwd[aid] == spec.m + 2
                assert sim.agents[aid].decoded_tokens - before_dec[aid] == 0
        sim_l = sc.Simulation(spec, "Language")
        for _ in range(3):
            before_dec = {aid: sim_l.agents[aid].decoded_tokens for aid in sim_l.live_agents()}
            live = sim_l.live_agents()
            sc.run_tick(sim_l)
            for aid in live:
                assert sim_l.agents[aid].decoded_tokens - before_dec[aid] == spec.m


def test_c08_collaboration_benefit(shipped):
    with budget("C08 occluded-hazard benefit on 5 layouts (exact)", 30.0):
        for name in OCCLUDED:
            base = shipped[(name, "NonCollab")]
            ego = base.agents[0]
            assert ego.infractions == {"collision_pedestrian": 1}, name
            assert ego.route_completion == 100.0, name
            assert ego.infraction_score == 0.50, name
            assert ego.driving_score == 50.0, name
            collab = shipped[(name, "LACO")]
            ego_c = collab.agents[0]
            assert ego_c.infractions == {}, name
            assert ego_c.route_completion == 100.0, name
            assert ego_c.driving_score == 100.0, name


def test_c09_identity_confusion(shipped):
    with budget("C09 identity-confusion reproduction (exact)", 10.0):
        for name in CLEAR_LANE:
            naive = shipped[(name, "NaiveLatent")]
            laco = shipped[(name, "LACO")]
            naive_brakes = sum(1 for t, aid, act in naive.actions if aid == 0 and act == "BRAKE")
            laco_brakes = sum(1 for t, aid, act in laco.actions if aid == 0 and act == "BRAKE")
            assert naive_brakes >= 1, name
            assert laco_brakes == 0, name
            # foreign mass is exactly zero at every untransmitted layer
            l_comm = 1  # 10% of 4 layers, floor-guarded
            for rec in laco.telemetry:
                if isinstance(rec, DecisionRecord) and rec.agent == 0:
                    idx = confusion_index(rec.rows, rec.tags)
                    assert np.all(idx[l_comm:] == 0.0), name


def test_c10_metric_algebra(shipped):
    with budget("C10 driving-score algebra (exact)", 5.0):
        coeffs = {"collision_pedestrian": 0.50, "collision_vehicle": 0.60,
                  "collision_static": 0.65, "timeout": 0.70}
        assert all(sc.PENALTIES[k] == v for k, v in coeffs.items())
        for (name, paradigm), result in shipped.items():
            for a in result.agents.values():
                is_ = 1.0
                for infraction, count in a.infractions.items():
                    is_ *= sc.PENALTIES[infraction] ** count
                assert a.infraction_score == is_
                assert a.driving_score == a.route_completion * is_
        synthetic = {"collision_pedestrian": 1, "collision_vehicle": 2, "timeout": 1}
        assert sc.infraction_score(synthetic) == 0.50 * 0.60**2 * 0.70


def test_c11_cli_determinism(tmp_path):
    scenario = str(sc.builtin_scenario_path("occluded_1"))
    with budget("C11 CLI byte-determinism (run/analyze/sweep)", 120.0):
        outputs = {}
        for tag in ("x", "y"):
            run_csv = tmp_path / f"run_{tag}.csv"
            tel = tmp_path / f"tel_{tag}.bin"
            assert main(["run", "--scenario", scenario, "--out", str(run_csv),
                         "--telemetry", str(tel)]) == 0
            diag = tmp_path / f"diag_{tag}"
            assert main(["analyze", "--in", str(tel), "--out", str(diag)]) == 0
            sweep_csv = tmp_path / f"sweep_{tag}.csv"
            assert main(["sweep", "--param", "rho", "--values", "0.3,1.0",
                         "--scenario", scenario, "--out", str(sweep_csv)]) == 0
            outputs[tag] = (
                run_csv.read_bytes(),
                tel.read_bytes(),
                (diag / "entropy.csv").read_bytes(),
                (diag / "sparsity.csv").read_bytes(),
                (diag / "confusion.csv").read_bytes(),
                sweep_csv.read_bytes(),
            )
        assert outputs["x"] == outputs["y"]
