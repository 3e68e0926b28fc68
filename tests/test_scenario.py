import logging
import random
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from laco import kernels
from laco import model as model_module
from laco import scenario as sc
from laco.errors import ScenarioError
from laco.ild import compute_alignment, deliberate
from laco.model import (
    TOKEN_EGO_A,
    TOKEN_EGO_B,
    TOKEN_HAZARD_A,
    TOKEN_OCCLUDED,
    TOKEN_VEHICLE,
    Model,
)
from laco.telemetry import TelemetryWriter, TraceRecord
from laco.wire import serialize
from reference import init_weights, ref_visible
from test_batch import LANGUAGE_CHAIN

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layouts  # noqa: E402
import workloads  # noqa: E402


def deep_latent_specs():
    """The benchmark's generated 3-agent, m = 40 layouts at its default seed."""
    return [sc.parse_scenario(text)
            for _, text in layouts.generate(layouts.DEFAULT_SEED, workloads.DEEP_LATENT_SHAPES)]


MINI = """
name = mini
paradigm = LACO
seed = 1
m = 4
grid = ......
grid = ......
grid = .###..
grid = ......
agent = 0 A 3,0
agent = 1 B 0,0
route = 0 3,0 3,1 3,2 3,3 3,4 3,5
route = 1 0,0 0,1 0,2 0,3 0,4 0,5
hazard = lane=A path=3,4 hide=1,4 appear=0 enter=3 clear=5
"""


_FUZZ_KEYS = ("agent", "route", "hazard", "grid") + tuple(sc._DEFAULTS)
_FUZZ_WORDS = (
    "0", "1", "-1", "A", "B", "C", "3,0", "3,4", "1,4", "0,0", "3,", ",", "x", "=",
    "lane=A", "lane=B", "path=3,4", "hide=1,4", "appear=0", "enter=3", "clear=5", "enter=",
    "1e9", "nan", "inf", "-0.5", "0.5", "LACO", "..#", "......", "99999999999999999999,0",
)


@st.composite
def mutated_scenario(draw):
    """MINI with lines replaced, inserted or dropped: keys from the format, values garbled."""
    lines = MINI.strip().splitlines()
    word = st.one_of(st.sampled_from(_FUZZ_WORDS), st.text(max_size=6))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(("replace", "insert", "drop")))
        if action == "drop" and at < len(lines):
            del lines[at]
            continue
        key = draw(st.sampled_from(_FUZZ_KEYS))
        line = f"{key} = {' '.join(draw(st.lists(word, max_size=6)))}"
        if action == "replace" and at < len(lines):
            lines[at] = line
        else:
            lines.insert(at, line)
    return "\n".join(lines)


# A 3x10 grid: agent 0 on lane A, agents 1 and 2 on lane B, a lane-B hazard at {path}.
TWO_ON_LANE_B = "\n".join(
    ["grid = .........."] * 3
    + ["agent = 0 A 2,0", "agent = 1 B 0,0", "agent = 2 B 1,0"]
    + [f"route = {a} " + " ".join(f"{r},{c}" for c in range(10)) for a, r in ((0, 2), (1, 0), (2, 1))]
    + ["hazard = lane=B path={path} appear=0 enter=2 clear=4"])


def mini_with(line):
    """MINI and ``line``, which replaces MINI's own line for a scalar key (given once)."""
    key = line.partition("=")[0].strip()
    return "".join(kept for kept in MINI.splitlines(keepends=True)
                   if key not in sc._DEFAULTS or kept.partition("=")[0].strip() != key) + line + "\n"


def mini_spec(**overrides):
    spec = sc.parse_scenario(MINI)
    if overrides:
        spec = replace(spec, **overrides)
    return spec


class TestParser:
    def test_round_fields(self):
        spec = mini_spec()
        assert spec.name == "mini"
        assert spec.rows == 4 and spec.cols == 6
        assert spec.observation_len == 25
        assert spec.agents[0].lane == "A"
        assert spec.hazards[0].hide_cell == (1, 4)

    def test_unset_scalars_take_their_documented_defaults(self):
        """The README's defaults, each of its own type; an int written for a float key is a float."""
        text = "\n".join(line for line in MINI.splitlines()
                         if line.partition("=")[0].strip() not in sc._DEFAULTS)
        spec = sc.parse_scenario(text)
        want = {"name": "unnamed", "paradigm": "LACO", "seed": 0, "m": 10, "rho": 0.3,
                "l_comm_fraction": 0.1, "cell_size_m": 10.0, "tick_budget": 200,
                "blocked_after": 10, "model_layers": 4, "model_heads": 2, "model_dim": 16,
                "vocab_size": 16, "channel_range_m": 200.0,
                "channel_bandwidth_bytes_per_s": 1e6, "channel_base_latency_s": 0.01}
        assert want.keys() == sc._DEFAULTS.keys()
        got = {key: getattr(spec.channel, key.removeprefix("channel_"))
               if key.startswith("channel_") else getattr(spec, key) for key in want}
        assert [(v, type(v)) for v in got.values()] == [(v, type(v)) for v in want.values()]
        rho = sc.parse_scenario(text + "\nrho = 1").rho
        assert rho == 1.0 and type(rho) is float

    def test_builtins_parse(self):
        for name in sc.builtin_scenario_names():
            spec = sc.load_scenario(sc.builtin_scenario_path(name))
            assert spec.name == name

    @pytest.mark.parametrize(
        "mutation",
        [
            ("grid = ...", "grid rows must all have the same width"),
            ("grid = ..x...", "may only contain"),
            ("agent = 0 C 3,0", "lane must be A or B"),
            ("paradigm = Telepathy", "unknown paradigm"),
            ("bogus_key = 1", "unknown scenario key"),
            ("rho = 0", "rho must be in"),
            ("m = -1", "m must be >= 0"),
            ("l_comm_fraction = 0", "l_comm_fraction must be in"),
            ("channel_base_latency_s = -0.5", "channel"),
            ("channel_range_m = 0", "channel"),
            ("attach_during_deliberation = true", "unknown scenario key"),
            ("channel_range_m = nan", "channel"),
            ("channel_bandwidth_bytes_per_s = nan", "channel"),
            ("channel_base_latency_s = nan", "channel"),
            ("cell_size_m = nan", "cell_size_m must be positive and finite"),
            ("cell_size_m = inf", "cell_size_m must be positive and finite"),
            ("cell_size_m = -10", "cell_size_m must be positive and finite"),
            ("cell_size_m = 0", "cell_size_m must be positive and finite"),
            ("route = 9 0,0 0,1", "route 9 has no agent"),
        ],
    )
    def test_rejects_malformed(self, mutation):
        line, match = mutation
        with pytest.raises(ScenarioError, match=match):
            sc.parse_scenario(mini_with(line))

    @pytest.mark.parametrize("key, value", [("m", "3"), ("name", "other"), ("channel_range_m", "50")])
    def test_rejects_a_scalar_key_given_twice(self, key, value):
        """A repeated scalar fails like a repeated route, agent or hazard field: the last
        value would otherwise win silently."""
        text = mini_with(f"{key} = {value}") + f"{key} = {value}\n"
        with pytest.raises(ScenarioError, match=f"^scenario key '{key}' is given twice$"):
            sc.parse_scenario(text)

    @pytest.mark.parametrize(
        "line, match",
        [
            ("hazard = lane=C path=3,4 appear=0 enter=3 clear=5", "hazard lane must be A or B"),
            ("hazard = lane=A path=3,4 apear=1 enter=3 clear=5", "unknown hazard field"),
            ("hazard = lane=A path=3,4 enter=2 clear=5 enter=3", "repeats a field"),
            ("agent = 0 A 3,0", "agent 0 is defined twice"),
            ("route = 1 0,0 0,1", "route 1 is defined twice"),
        ],
        ids=["hazard_lane_c", "hazard_unknown_field", "hazard_repeated_field",
             "agent_id_twice", "route_id_twice"],
    )
    def test_rejects_lines_that_would_be_misread(self, line, match):
        # each would otherwise parse: as lane B, with appear=0, with the last
        # enter, as two agents with one id, or as the second route only
        with pytest.raises(ScenarioError, match=match):
            sc.parse_scenario(MINI + line + "\n")

    @pytest.mark.parametrize("key, value, match", [
        ("m", -1, "m must be >= 0"),
        ("rho", 0.0, "rho must be in"),
        ("paradigm", "Telepathy", "unknown paradigm"),
        ("tick_budget", -5, "tick_budget must be >= 1"),
        ("tick_budget", 0, "tick_budget must be >= 1"),
        ("blocked_after", 0, "blocked_after must be >= 1"),
        ("model_dim", 15, "^model_dim: model_dim 15 not divisible"),
        ("model_dim", 6, "^model_dim: model_dim must be >= 4 per head"),
        ("model_layers", 0, "^model_layers: num_layers must be positive"),
        ("model_layers", 1, "^model_layers: num_layers must be >= 2"),
        ("model_heads", 1, "^model_heads: num_heads must be >= 2"),
        ("vocab_size", 3, "^vocab_size: vocab_size must be >= 14"),
        ("name", "occluded,1", "^name must be printable ASCII"),
        ("name", "line\nbreak", "^name must be printable ASCII"),
    ])
    def test_replace_checks_the_new_spec(self, key, value, match):
        with pytest.raises(ScenarioError, match=match):
            replace(mini_spec(), **{key: value})

    @pytest.mark.parametrize("change, message", [
        (lambda s: dict(agents=(s.agents[0], replace(s.agents[1], agent_id=0))),
         "agent 0 is defined twice"),
        (lambda s: dict(agents=(replace(s.agents[0], lane="C"), s.agents[1])),
         "agent 0 lane must be A or B, got 'C'"),
        (lambda s: dict(agents=(s.agents[0], replace(s.agents[1], agent_id=2**32))),
         "agent id 4294967296 outside [0, 2**32)"),
        (lambda s: dict(agents=(replace(s.agents[0], agent_id=-1), s.agents[1])),
         "agent id -1 outside [0, 2**32)"),
        (lambda s: dict(hazards=(replace(s.hazards[0], lane="C"),)),
         "hazard lane must be A or B, got 'C'"),
        (lambda s: dict(grid=()), "scenario grid has no cells"),
        (lambda s: dict(grid=("",) * 4), "scenario grid has no cells"),
        (lambda s: dict(grid=s.grid[:-1] + ("....",)), "grid rows must all have the same width"),
        (lambda s: dict(grid=s.grid[:-1] + ("...x..",)), "grid rows may only contain '.' and '#'"),
    ], ids=["agent_id_twice", "agent_lane_c", "agent_id_past_u32", "agent_id_negative",
            "hazard_lane_c", "no_rows", "no_columns",
            "ragged", "not_road_or_wall"])
    def test_replace_checks_agents_hazards_and_grid(self, change, message):
        """The rules on agents, hazards and the grid are ScenarioSpec's, not the parser's:
        a replace-built spec that breaks one fails with that one line."""
        with pytest.raises(ScenarioError) as err:
            replace(mini_spec(), **change(mini_spec()))
        assert str(err.value) == message

    def test_simulation_rejects_an_unknown_paradigm(self):
        with pytest.raises(ScenarioError, match="unknown paradigm 'Telepathy'"):
            sc.Simulation(mini_spec(), "Telepathy")

    def test_simulation_rejects_an_empty_paradigm(self):
        with pytest.raises(ScenarioError, match="unknown paradigm ''"):
            sc.Simulation(mini_spec(), "")

    def test_simulation_spec_holds_the_paradigm_that_runs(self):
        assert sc.Simulation(mini_spec(), "Visual").spec.paradigm == "Visual"
        assert sc.Simulation(mini_spec()).spec.paradigm == "LACO"

    @given(mutated_scenario())
    @settings(max_examples=100, deadline=1000)
    def test_fuzzed_text_parses_or_raises_scenario_error(self, text):
        try:
            sc.parse_scenario(text)
        except ScenarioError:
            pass

    def test_route_must_be_connected(self):
        text = MINI.replace("route = 0 3,0 3,1 3,2 3,3 3,4 3,5", "route = 0 3,0 3,2 3,4 3,5")
        text = text.replace("hazard = lane=A path=3,4 hide=1,4 appear=0 enter=3 clear=5", "")
        with pytest.raises(ScenarioError, match="4-connected"):
            sc.parse_scenario(text)

    def test_route_through_wall_rejected(self):
        text = MINI.replace("route = 1 0,0 0,1 0,2 0,3 0,4 0,5",
                            "route = 1 0,0 1,0 2,0 2,1 2,2 2,3")
        with pytest.raises(ScenarioError, match="not road|4-connected"):
            sc.parse_scenario(text)

    def test_hazard_must_sit_on_lane_route(self):
        text = MINI.replace("path=3,4", "path=1,4")
        with pytest.raises(ScenarioError, match="not on that lane's route"):
            sc.parse_scenario(text)

    @pytest.mark.parametrize("path", ["0,2", "1,7"])
    def test_hazard_may_sit_on_any_route_of_its_lane(self, path):
        """Agents 1 and 2 both drive lane B: a lane-B hazard may cross either route."""
        spec = sc.parse_scenario(TWO_ON_LANE_B.format(path=path))
        assert spec.hazards[0].path_cell == tuple(map(int, path.split(",")))

    def test_hazard_off_every_route_of_its_lane_is_rejected(self):
        with pytest.raises(ScenarioError, match=r"lane-B hazard path \(2, 5\) not on"):
            sc.parse_scenario(TWO_ON_LANE_B.format(path="2,5"))


class TestObserve:
    def test_occlusion_and_visibility(self):
        spec = mini_spec()
        sim = sc.Simulation(spec)
        hide_slot = 1 * 6 + 4
        ego_obs = sc.observe(sim.world, sim.agents, spec.hazards, 0, tick=0)
        far_obs = sc.observe(sim.world, sim.agents, spec.hazards, 1, tick=0)
        assert ego_obs[hide_slot] == TOKEN_OCCLUDED
        assert far_obs[hide_slot] == TOKEN_HAZARD_A
        assert TOKEN_HAZARD_A not in ego_obs

    def test_markers_last(self):
        spec = mini_spec()
        sim = sc.Simulation(spec)
        assert sc.observe(sim.world, sim.agents, spec.hazards, 0, 0)[-1] == TOKEN_EGO_A
        assert sc.observe(sim.world, sim.agents, spec.hazards, 1, 0)[-1] == TOKEN_EGO_B

    def test_deterministic(self):
        spec = mini_spec()
        sim = sc.Simulation(spec)
        a = sc.observe(sim.world, sim.agents, spec.hazards, 0, 0)
        b = sc.observe(sim.world, sim.agents, spec.hazards, 0, 0)
        np.testing.assert_array_equal(a, b)

    def test_sees_other_vehicle(self):
        spec = mini_spec()
        sim = sc.Simulation(spec)
        obs = sc.observe(sim.world, sim.agents, spec.hazards, 1, 0)
        ego_slot = 3 * 6 + 0
        assert obs[ego_slot] == TOKEN_VEHICLE

    def test_hazard_gone_after_clear(self):
        spec = mini_spec()
        sim = sc.Simulation(spec)
        obs = sc.observe(sim.world, sim.agents, spec.hazards, 1, tick=5)
        assert TOKEN_HAZARD_A not in obs


def assert_row_matches_oracle(world, grid, frm):
    rows, cols = len(grid), len(grid[0])
    want = [[ref_visible(grid, frm, (r, c)) for c in range(cols)] for r in range(rows)]
    np.testing.assert_array_equal(world.visibility(frm), want)


@st.composite
def grid_and_viewpoint(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 16))
    cells = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    grid = tuple("".join("#" if cells[r * cols + c] else "." for c in range(cols))
                 for r in range(rows))
    return grid, (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)))


class TestLineOfSight:
    @pytest.mark.parametrize("name", sc.builtin_scenario_names())
    def test_every_cell_pair_matches_scalar_oracle(self, name):
        spec = sc.load_scenario(sc.builtin_scenario_path(name))
        world = sc.World(spec.grid)
        for r in range(spec.rows):
            for c in range(spec.cols):
                assert_row_matches_oracle(world, spec.grid, (r, c))

    @given(grid_and_viewpoint())
    @settings(max_examples=60, deadline=2000)
    def test_random_grids_match_scalar_oracle(self, case):
        grid, frm = case
        assert_row_matches_oracle(sc.World(grid), grid, frm)

    def test_revisited_viewpoint_is_memoized(self, monkeypatch):
        spec = mini_spec()
        world = sc.World(spec.grid)
        assert world.visibility((3, 0)) is world.visibility((3, 0))
        # A second episode of the same layout reuses the first one's World
        # and traces no viewpoint again.
        first = sc.run_episode(spec, "LACO")
        assert sc.Simulation(spec, "NonCollab").world is sc.Simulation(spec, "LACO").world
        monkeypatch.setattr(sc.World, "_trace", pytest.fail)
        second = sc.run_episode(spec, "LACO")
        assert second.actions == first.actions


class TestEpisodes:
    def test_noncollab_hits_laco_does_not(self):
        spec = mini_spec()
        hit = sc.run_episode(spec, "NonCollab")
        safe = sc.run_episode(spec, "LACO")
        assert hit.agents[0].infractions == {"collision_pedestrian": 1}
        assert hit.agents[0].driving_score == pytest.approx(50.0)
        assert safe.agents[0].infractions == {}
        assert safe.agents[0].driving_score == pytest.approx(100.0)
        assert safe.agents[0].route_completion == pytest.approx(100.0)

    def test_empty_world_clean_completion(self):
        spec = mini_spec(hazards=())
        for paradigm in sc.PARADIGMS:
            r = sc.run_episode(spec, paradigm)
            for a in r.agents.values():
                assert a.route_completion == 100.0
                assert a.infraction_score == 1.0
                assert a.driving_score == 100.0
                assert a.infractions == {}

    def test_comm_accounting_noncollab(self):
        r = sc.run_episode(mini_spec(), "NonCollab")
        assert r.comm_bytes_total == 0
        assert all(a.decoded_tokens == 0 for a in r.agents.values())

    def test_language_decodes_m_tokens_per_tick(self):
        r = sc.run_episode(mini_spec(), "Language")
        for aid, a in r.agents.items():
            active = sum(1 for t, i, _ in r.actions if i == aid)
            assert a.decoded_tokens == 4 * active

    def test_laco_decodes_zero_tokens(self):
        r = sc.run_episode(mini_spec(), "LACO")
        assert all(a.decoded_tokens == 0 for a in r.agents.values())

    def test_laco_with_m_0_warns_once_and_sends_nothing(self, caplog):
        with caplog.at_level(logging.WARNING, logger="laco.scenario"):
            r = sc.run_episode(mini_spec(m=0), "LACO")
        assert [rec.getMessage() for rec in caplog.records] == [
            "LACO with m=0: no latent trace, transmitting nothing"]
        assert r.ticks > 1 and r.comm_bytes_total == 0
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="laco.scenario"):
            sc.run_episode(mini_spec(m=0), "NaiveLatent")
        assert caplog.records == []

    # paradigm -> a live agent's passes in one occluded_1 tick (m = 10): (alone, beside its peer).
    PASSES = {"NonCollab": (2, 2), "Visual": (2, 2), "NaiveLatent": (12, 12), "LACO": (12, 12),
              "Language": (12, 13)}

    @pytest.mark.parametrize("paradigm", PASSES)
    def test_forward_passes_per_tick(self, paradigm):
        """One prefill, m latent or Language steps if the paradigm runs them, and one
        decision decode.  A Language agent that heard its peer re-prefills the relayed
        tokens and decides on that cache: one pass more; alone, its inbox is empty."""
        spec = sc.load_scenario(sc.builtin_scenario_path("occluded_1"))
        assert spec.m == 10
        sim, seen = sc.Simulation(spec, paradigm), set()
        while not sim.all_done():
            live = sim.live_agents()
            before = {aid: sim.agents[aid].forward_passes for aid in live}
            sc.run_tick(sim)
            seen.add(len(live))
            passes = {aid: sim.agents[aid].forward_passes - before[aid] for aid in live}
            assert passes == dict.fromkeys(live, self.PASSES[paradigm][len(live) > 1])
        assert seen == {1, 2}

    def test_laco_bytes_below_visual(self):
        laco = sc.run_episode(mini_spec(), "LACO")
        visual = sc.run_episode(mini_spec(), "Visual")
        assert 0 < laco.comm_bytes_total < visual.comm_bytes_total

    def test_identical_runs_identical_results(self):
        a = sc.run_episode(mini_spec(), "LACO")
        b = sc.run_episode(mini_spec(), "LACO")
        assert a.actions == b.actions
        assert sc.metrics_rows(a) == sc.metrics_rows(b)

    def test_out_of_range_channel_degrades_to_noncollab(self):
        from laco.wire import ChannelConfig

        spec = mini_spec(channel=ChannelConfig(range_m=5.0))
        r = sc.run_episode(spec, "LACO")
        assert r.comm_bytes_total == 0
        assert r.agents[0].infractions == {"collision_pedestrian": 1}

    def test_metric_algebra_recomputation(self):
        for paradigm in ("NonCollab", "LACO"):
            r = sc.run_episode(mini_spec(), paradigm)
            for a in r.agents.values():
                is_ = 1.0
                for name, n in a.infractions.items():
                    is_ *= sc.PENALTIES[name] ** n
                assert a.infraction_score == pytest.approx(is_, abs=0)
                assert a.driving_score == pytest.approx(a.route_completion * is_, abs=0)

    def test_blocked_agent_times_out(self):
        # a one-way hazard window that never clears pins the LACO agent in place
        spec = mini_spec(tick_budget=60)
        from dataclasses import replace

        hz = replace(spec.hazards[0], clear=50)
        spec = replace(spec, hazards=(hz,))
        r = sc.run_episode(spec, "LACO")
        assert r.agents[0].infractions.get("timeout") == 1
        assert r.agents[0].route_completion < 100.0

    def test_tick_budget_timeout(self):
        spec = mini_spec(tick_budget=2)
        r = sc.run_episode(spec, "NonCollab")
        assert all(a.infractions.get("timeout") == 1 for a in r.agents.values())


def episode_outputs(spec, paradigm, path):
    """Metrics rows, the telemetry stream ``laco run`` writes, and the payload bytes."""
    result = sc.run_episode(spec, paradigm)
    with TelemetryWriter(path) as writer:
        for rec in result.telemetry:
            if isinstance(rec, TraceRecord):
                writer.write_trace(rec.tick, rec.agent, rec.trace)
            else:
                writer.write_decision(rec.tick, rec.agent, rec.rows, rec.tags)
    return sc.metrics_rows(result), path.read_bytes(), result.payload_bytes


@pytest.mark.parametrize("model_dim", [16, 18, 22])
def test_passthrough_skip_changes_no_output(monkeypatch, tmp_path, full_steps, model_dim):
    """Every shipped layout under every paradigm (and at d = 16 the deep_latent
    benchmark's generated layouts too) gives the same metrics rows, telemetry and
    payload bytes with ``SHORTCUTS`` off: a run through its zero-weight layers and
    MLPs, its attention over all-zero contexts and every product of a step that
    repeats the last step's input.  With them on, fewer kernel calls run (the
    skips skipped layers) and fewer full decode steps (``repeat`` ran steps)."""
    calls = []

    def counted(*args, kernel):
        calls[-1] += 1
        return kernel(*args)

    for name in ("attend_single", "attend_causal"):
        monkeypatch.setattr(kernels, name, partial(counted, kernel=getattr(kernels, name)))
    specs = [replace(sc.load_scenario(sc.builtin_scenario_path(name)), model_dim=model_dim)
             for name in sc.builtin_scenario_names()] + (deep_latent_specs() if model_dim == 16 else [])
    runs, steps = {}, []
    for on in (True, False):
        monkeypatch.setattr(model_module, "SHORTCUTS", on)
        calls.append(0)
        full_steps[0] = 0
        runs[on] = [episode_outputs(spec, paradigm, tmp_path / "t.bin")
                    for spec in specs for paradigm in sc.PARADIGMS]
        steps.append(full_steps[0])
    for got, want in zip(runs[True], runs[False], strict=True):
        assert got == want
    assert calls[0] < calls[1] and steps[0] < steps[1]


@st.composite
def fuzzed_episodes(draw):
    """A shipped layout or one of ``layouts.layout_text``'s (a seed, 4-6 rows,
    10-16 columns, 2 or 3 agents), with drawn ``m`` (0, 1 and 40 among them),
    ``rho``, ``l_comm_fraction``, ``tick_budget`` and channel range (a short one
    splits a 3-agent decode into batches that join payloads of senders outside
    them), and up to two extra hazards on route cells of either lane, hidden on a
    road cell or not."""
    m = draw(st.sampled_from([0, 1, 40, 2, 4, 10]))
    if draw(st.booleans()):
        agents = draw(st.integers(2, 3))
        rows = draw(st.integers(5 if agents == 3 else 4, 6))
        rng = random.Random(draw(st.integers(0, 999)))
        spec = sc.parse_scenario(layouts.layout_text(rng, "generated", rows, draw(st.integers(10, 16)),
                                                     agents, m))
    else:
        name = draw(st.sampled_from(sc.builtin_scenario_names()))
        spec = sc.load_scenario(sc.builtin_scenario_path(name))
    road = [(r, c) for r, row in enumerate(spec.grid) for c, ch in enumerate(row) if ch == "."]
    hazards = list(spec.hazards)
    for _ in range(draw(st.integers(0, 2))):
        agent = draw(st.sampled_from(spec.agents))
        appear = draw(st.integers(0, 8))
        enter = appear + draw(st.integers(0, 8))
        hazards.append(sc.HazardSpec(lane=agent.lane, path_cell=draw(st.sampled_from(agent.route)),
                                     hide_cell=draw(st.none() | st.sampled_from(road)),
                                     appear=appear, enter=enter, clear=enter + draw(st.integers(1, 8))))
    fraction = st.floats(0.01, 1.0)
    channel = replace(spec.channel, range_m=draw(st.sampled_from([200.0, 15.0, 25.0, 40.0])))
    return replace(spec, m=m, rho=draw(fraction), l_comm_fraction=draw(fraction), channel=channel,
                   tick_budget=draw(st.integers(1, 60)), hazards=tuple(hazards))


def count_calls(patch, name, counts):
    """Patch ``laco.scenario.<name>`` to count its calls into ``counts[name]``."""
    def counted(*args, fn=getattr(sc, name)):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args)

    patch.setattr(sc, name, counted)


def count_replays(patch, replays):
    """Patch ``laco.scenario._replayed`` to append each send's (paradigm, whether the memo
    replayed it) to ``replays``."""
    def counted(sim, live, pre, extend, fn=sc._replayed):
        ran = []
        result = fn(sim, live, pre, lambda: ran.append(True) or extend())
        replays.append((sim.spec.paradigm, not ran))
        return result

    patch.setattr(sc, "_replayed", counted)


def test_shortcuts_change_no_output_on_fuzzed_episodes(tmp_path_factory):
    """Under every paradigm, a fuzzed episode gives the same metrics rows,
    telemetry and payload bytes with ``SHORTCUTS`` on as with them off, so with
    the memo on as off; some example replays a deliberation and some a Language decode."""
    path = tmp_path_factory.mktemp("fuzz") / "t.bin"
    replays = []  # (paradigm, replayed) of every send

    @seed(0)  # fixes the 40 examples: derandomize alone draws them from this function's source
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(spec=fuzzed_episodes())
    def check(spec):
        runs = []
        for on in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(model_module, "SHORTCUTS", on)
                count_replays(patch, replays)
                runs.append([episode_outputs(spec, paradigm, path) for paradigm in sc.PARADIGMS])
        assert runs[0] == runs[1]

    check()
    assert {paradigm for paradigm, replayed in replays if replayed} == {"LACO", "NaiveLatent", "Language"}


def occluded_1():
    return sc.load_scenario(sc.builtin_scenario_path("occluded_1"))


def replayed_and_fresh(monkeypatch, sim, primed):
    """Two prefills of the live agents' observations at ``sim``'s tick: the first sends
    through ``sim``'s sender as the memo replays it (the computation, ``deliberate`` or the
    Language decode's ``project_to_logits``, fails if it runs; ``primed`` first records the
    send on a third prefill), the second through a fresh ``deliberate`` or a Language
    decode on an empty memo.  Returns the first, after checking that the replay left the
    store bytes over [0, n0 + m), ``nonzero`` flags, the batch's ``length``, ``ego`` and
    ``flagged``, every cache's ``length`` and ``prefill_len`` and the result of the fresh one
    (hidden states and traces, or relayed ids), byte for byte, and that one more step of
    each batch, on the agents' markers, gives the same hidden states, rows and store."""
    spec, live = sim.spec, sim.live_agents()
    tokens = np.stack([sc.observe(sim.world, sim.agents, spec.hazards, aid, sim.ticks) for aid in live])
    replayed, fresh = sc.prefill(sim.model, tokens), sc.prefill(sim.model, tokens)
    if spec.paradigm == "Language":
        send, computed = sc._send_tokens, "project_to_logits"
        want = sent(send(sc.Simulation(spec), live, fresh))
        assert all(len(ids) == spec.m for ids in want)
    else:
        send, computed = sc._deliberate, "deliberate"
        want = sent(deliberate(compute_alignment(sim.model), fresh, spec.m))
    if primed:
        send(sim, live, sc.prefill(sim.model, tokens))
    with monkeypatch.context() as patch:
        patch.setattr(sc, computed, pytest.fail)
        got = sent(send(sim, live, replayed))
    n = spec.observation_len + spec.m
    store, fresh_store = replayed.caches[0].store, fresh.caches[0].store
    assert store[..., :n, :].tobytes() == fresh_store[..., :n, :].tobytes()
    assert replayed.caches[0].nonzero.tobytes() == fresh.caches[0].nonzero.tobytes()
    assert [(c.length, c.prefill_len) for c in replayed.caches] == [
        (c.length, c.prefill_len) for c in fresh.caches] == [(n, spec.observation_len)] * len(live)
    assert (replayed.length, replayed.ego.tobytes(), replayed.flagged) == (
        fresh.length, fresh.ego.tobytes(), fresh.flagged)
    assert replayed.length == n and type(replayed.flagged) is list
    assert got == want
    x = sim.model.w_in[[sim.agents[aid].spec.marker_token for aid in live]]  # as the decision decode
    (h, rows), (fresh_h, fresh_rows) = replayed(x), fresh(x)
    assert h.tobytes() == fresh_h.tobytes()
    assert [r.tobytes() for r in rows] == [r.tobytes() for r in fresh_rows]
    assert store[..., : n + 1, :].tobytes() == fresh_store[..., : n + 1, :].tobytes()
    return replayed


def sent(result):
    """A sender's result as bytes: each message's relayed ids, or hidden states and traces."""
    if isinstance(result, list):
        return [msg.token_ids for msg in result]
    return [result.final_hidden.tobytes()] + [(t.array.tobytes(), t.lengths.tobytes()) for t in result.traces]


@pytest.mark.parametrize("paradigm", ["LACO", "NaiveLatent", "Language"])
@pytest.mark.parametrize("tick, flagged", [(3, True), (9, False)], ids=["lane_b_sees", "all_zero"])
def test_a_replayed_deliberation_leaves_what_a_fresh_one_leaves(monkeypatch, paradigm, tick, flagged):
    """On occluded_1, at a tick whose lane-B agent sees the hazard (layer 0 flagged)
    and at one whose every layer is unflagged, a deliberation or Language decode an
    earlier tick recorded replays to the bytes of a fresh one."""
    sim = sc.Simulation(occluded_1(), paradigm)
    for _ in range(tick):
        sc.run_tick(sim)
    replayed = replayed_and_fresh(monkeypatch, sim, primed=False)
    assert replayed.caches[0].nonzero.any() == flagged


def test_a_replayed_deliberation_writes_its_latent_kv_and_flags(monkeypatch):
    """The hazard model's latent K/V are all zero, so its replays write zeros and raise
    no flag.  Random weights, with a zero embedding and a positional table zero over the
    prefill, give a prefill with every layer unflagged and latent K/V that are not zero:
    a replay writes those K/V and raises those flags as deliberation does."""
    sim = sc.Simulation(occluded_1(), "LACO")
    n0, config = sim.spec.observation_len, sim.model.config
    w_in, w_out, pos, layers = init_weights(config, 7)
    pos[:n0] = 0.0
    sim.model = Model(config, np.zeros_like(w_in), w_out, pos, layers)
    replayed = replayed_and_fresh(monkeypatch, sim, primed=True)
    assert not sc.prefill(sim.model, np.zeros((2, n0), np.int64)).caches[0].nonzero.any()
    assert replayed.caches[0].store[..., n0:, :].any() and replayed.caches[0].nonzero.all()


def tick_0_prefill(sim, nudge=0.0):
    """A prefill of occluded_1's tick-0 observations, its hidden states plus ``nudge``."""
    pre = sc.prefill(sim.model, np.stack([sc.observe(sim.world, sim.agents, sim.spec.hazards, aid, 0)
                                          for aid in sim.live_agents()]))
    pre.hidden[...] += nudge
    return pre


@pytest.mark.parametrize("change", ["hidden", "flagged_kv", "flag"])
def test_a_deliberation_on_other_inputs_runs(monkeypatch, change):
    """Every input the key holds counts: after tick 0's deliberation is recorded, one
    whose hidden states, K/V at a flagged layer (layer 0: the lane-B agent sees the
    hazard) or ``nonzero`` flags differ runs ``deliberate``."""
    sim, counts = sc.Simulation(occluded_1(), "LACO"), {}
    sc._deliberate(sim, sim.live_agents(), tick_0_prefill(sim))
    pre = tick_0_prefill(sim, nudge=1.0 if change == "hidden" else 0.0)
    if change == "flagged_kv":
        pre.caches[0].store[0, 0, 0, 0, 0] = 1.0
    elif change == "flag":
        pre.caches[0].nonzero[0, 0] = True  # agent 0 at layer 0: "may be non-zero"
    count_calls(monkeypatch, "deliberate", counts)
    sc._deliberate(sim, sim.live_agents(), pre)
    assert counts == {"deliberate": 1} and len(sim.memo) == 2


def test_the_memo_keeps_the_last_entries(monkeypatch):
    """A Simulation keeps its last ``_MEMO_ENTRIES`` distinct deliberations: the
    oldest reruns, the newest replays."""
    sim, counts = sc.Simulation(occluded_1(), "LACO"), {}
    count_calls(monkeypatch, "deliberate", counts)
    nudges = range(sc._MEMO_ENTRIES + 2)
    for nudge in nudges:
        sc._deliberate(sim, sim.live_agents(), tick_0_prefill(sim, nudge))
    assert len(sim.memo) == sc._MEMO_ENTRIES and counts["deliberate"] == len(nudges)
    sc._deliberate(sim, sim.live_agents(), tick_0_prefill(sim, nudges[-1]))
    assert counts["deliberate"] == len(nudges)
    sc._deliberate(sim, sim.live_agents(), tick_0_prefill(sim, nudges[0]))
    assert counts["deliberate"] == len(nudges) + 1


def test_replayed_ticks_share_one_read_only_record():
    """On occluded_1 under LACO, tick 1 replays tick 0's deliberation: both ticks'
    TraceRecords hold one trace array, which refuses an in-place write, as do the
    result's hidden states and the memo's recorded K/V and flags."""
    sim = sc.run_episode(occluded_1(), "LACO")
    first, second = [rec.trace.array for rec in sim.telemetry
                     if isinstance(rec, TraceRecord) and rec.agent == 0][:2]
    assert second is first
    with pytest.raises(ValueError, match="read-only"):
        second[0, 0, 0, 0] = 0.5
    for delib, latent, flags, _ in sim.memo.values():
        for array in (delib.final_hidden, latent, flags, *(t.array for t in delib.traces)):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0


@pytest.mark.parametrize("paradigm", ["LACO", "Language"])
def test_a_send_steps_its_prefill_batch(monkeypatch, paradigm):
    """On occluded_1 every ``DecodeBatch`` of an episode is a prefill's (its hidden states
    set; Language re-prefills included) or a decision decode's, and none is made while a
    send extends or replays: the send steps the batch its prefill returned."""
    made, sends, counts, init = [], [], {}, model_module.DecodeBatch.__init__

    def counted_init(batch, *args, **kwargs):
        init(batch, *args, **kwargs)
        made.append(batch.hidden is not None)

    def replayed(*args, fn=sc._replayed):
        sends.append(len(made))
        result = fn(*args)
        assert len(made) == sends[-1], "a send made a DecodeBatch"
        return result

    monkeypatch.setattr(model_module.DecodeBatch, "__init__", counted_init)
    monkeypatch.setattr(sc, "_replayed", replayed)
    for name in ("prefill", "collaborative_decode"):
        count_calls(monkeypatch, name, counts)
    sim = sc.run_episode(occluded_1(), paradigm)
    assert len(sends) == sim.ticks
    assert sum(made) == counts["prefill"]
    assert len(made) == counts["prefill"] + counts["collaborative_decode"]
    assert (counts["prefill"] == sim.ticks) if paradigm == "LACO" else (counts["prefill"] > sim.ticks)


def test_each_episode_has_its_own_memo(monkeypatch, full_steps):
    """The memo lives and dies with one Simulation: two runs of occluded_1, and a sweep
    over a repeated value, compute as often per episode: ``deliberate`` runs on 5 of 19
    ticks under LACO and 4 of 19 under NaiveLatent, the Language decode (m
    ``project_to_logits`` calls) on 5 of 13.  With ``SHORTCUTS`` off every tick computes,
    and Language gives the same metrics rows in more full decode steps."""
    spec, counts = occluded_1(), {}
    for name in ("deliberate", "project_to_logits"):
        count_calls(monkeypatch, name, counts)
    episodes = {"LACO": (19, {"deliberate": 5}), "NaiveLatent": (19, {"deliberate": 4}),
                "Language": (13, {"project_to_logits": 5 * spec.m})}
    for paradigm, (ticks, computed) in episodes.items():
        for _ in range(2):
            counts.clear()
            full_steps[0] = 0
            sim = sc.run_episode(spec, paradigm)
            assert sim.ticks == ticks and counts == computed
    language = sc.metrics_rows(sim), full_steps[0]  # the last episode run: Language's
    counts.clear()
    rows = sc.sweep("m", ["10", "10"], [spec], "LACO")
    assert counts == {"deliberate": 2 * 5} and rows[: len(rows) // 2] == rows[len(rows) // 2 :]
    monkeypatch.setattr(model_module, "SHORTCUTS", False)
    counts.clear()
    full_steps[0] = 0
    sim = sc.run_episode(spec, "Language")
    assert sim.memo == {} and counts == {"project_to_logits": 13 * spec.m}
    assert sc.metrics_rows(sim) == language[0] and full_steps[0] > language[1]
    counts.clear()
    assert sc.run_episode(spec, "LACO").memo == {} and counts == {"deliberate": 19}


def test_attending_deliberations_repeat_in_one_call(monkeypatch):
    """On a deep_latent layout under LACO, some deliberation whose layer 0 attends
    runs one full step: steps 1 .. m-1 run inside one ``repeat`` call."""
    spec, steps, full_step = deep_latent_specs()[0], [], model_module.DecodeBatch.__call__

    def recorded(batch, *args):  # (batch, position, whether layer 0 attended)
        out = full_step(batch, *args)
        steps.append((batch, batch.length - 1, batch.record[1][0][1] is not None))
        return out

    monkeypatch.setattr(model_module.DecodeBatch, "__call__", recorded)
    sc.run_episode(spec, "LACO")
    T = spec.observation_len
    assert any(n == T and attended and batch.length == T + spec.m
               and sum(b is batch for b, _, _ in steps) == 1 for batch, n, attended in steps)


def test_language_tokens_repeat_at_once(monkeypatch, full_steps):
    """On occluded_1 the Language decode runs fewer full steps than with ``SHORTCUTS``
    off (a tick whose prefill repeats an earlier one replays that tick's ids), and
    relays the ids and gives the metrics rows of the full path, which steps them all."""

    def relayed(sim, live, pre, send=sc._send_tokens):
        messages = send(sim, live, pre)
        sent.append([msg.token_ids for msg in messages])
        return messages

    monkeypatch.setitem(sc._PARADIGM_TABLE, "Language", (relayed, sc._decide_on_tokens))
    spec = sc.load_scenario(sc.builtin_scenario_path("occluded_1"))
    runs = []
    for on in (True, False):
        monkeypatch.setattr(model_module, "SHORTCUTS", on)
        sent, full_steps[0] = [], 0
        rows = sc.metrics_rows(sc.run_episode(spec, "Language"))
        runs.append((sent, rows, full_steps[0]))
    assert runs[0][2] < runs[1][2]
    assert runs[0][:2] == runs[1][:2]
    assert all(len(ids) == spec.m for tick in runs[0][0] for ids in tick)


def test_episodes_of_one_layout_share_one_read_only_model():
    """Simulations of one model config share one hazard Model, whose weights refuse a write."""
    spec = sc.load_scenario(sc.builtin_scenario_path("occluded_1"))
    model = sc.Simulation(spec, "LACO").model
    assert sc.Simulation(spec, "Visual").model is model
    lw = model.layers[0]
    for w in (model.w_in, model.w_out, model.pos, lw.w_qkv, lw.w_k, lw.w_o, lw.w_mlp1, lw.w_mlp2):
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 1.0


def test_specs_that_differ_only_in_seed_share_one_model():
    """``seed`` sets nothing: its episodes run the one hazard Model and give the same rows."""
    spec = sc.load_scenario(sc.builtin_scenario_path("occluded_1"))
    other = replace(spec, seed=spec.seed + 1)
    assert sc.Simulation(other).model is sc.Simulation(spec).model
    assert sc.metrics_rows(sc.run_episode(other)) == sc.metrics_rows(sc.run_episode(spec))


def test_episodes_stepped_in_turn_share_one_model(monkeypatch, tmp_path):
    """Three occluded_1 episodes stepped tick by tick in turn on one Model give
    the metrics rows, telemetry and payload bytes of their own runs."""
    spec = sc.load_scenario(sc.builtin_scenario_path("occluded_1"))
    paradigms = ("LACO", "Visual", "Language")
    want = [episode_outputs(spec, p, tmp_path / "t.bin") for p in paradigms]
    sims = {p: sc.Simulation(spec, p) for p in paradigms}
    assert all(sim.model is sims["LACO"].model for sim in sims.values())
    while live := [s for s in sims.values() if not s.all_done() and s.ticks < spec.tick_budget]:
        for sim in live:
            sc.run_tick(sim)
    # run_episode then only closes each stepped episode: no tick is left to run.
    monkeypatch.setattr(sc, "Simulation", lambda spec, paradigm: sims[paradigm])
    assert [episode_outputs(spec, p, tmp_path / "t.bin") for p in paradigms] == want


@pytest.mark.parametrize("paradigm", ["LACO", "Visual"])
def test_inboxes_reach_attach_payload_by_ascending_sender_id(monkeypatch, paradigm):
    """``run_tick`` delivers each inbox in ascending sender id, and ``attach_payload``
    keeps that order: the order the decision decode's batch signature was read in."""
    spec = replace(deep_latent_specs()[0], m=4)
    assert len(spec.agents) == 3
    inboxes = []

    def spy(caches, boxes, attach=sc.attach_payload):
        ctx = attach(caches, boxes)
        assert all(kept == list(box) for kept, box in zip(ctx.inboxes, boxes, strict=True))
        inboxes.extend([p.sender_id for p in box] for box in boxes)
        return ctx

    monkeypatch.setattr(sc, "attach_payload", spy)
    sim = sc.Simulation(spec, paradigm)
    for _ in range(3):
        sc.run_tick(sim)
    assert all(ids == sorted(set(ids)) for ids in inboxes)
    assert list(map(len, inboxes)) == [2] * 9  # each tick, every agent heard both others


@pytest.mark.parametrize("paradigm", ["Visual", "LACO", "Language"])
def test_deliver_charges_delivered_pairs_and_records_each_payload_once(monkeypatch, paradigm):
    """One tick on LANGUAGE_CHAIN, whose agents 0 and 2 are out of each other's range:
    a pair that is not delivered charges no bytes or latency, to its sender or the
    episode; each Visual or LACO payload is recorded once, delivered or not; a
    LanguageMessage never is."""
    sends = []  # (message, channel result), in the order the tick sent them

    def spy(cfg, msg, frm, to, send=sc.channel_send):
        sends.append((msg, send(cfg, msg, frm, to)))
        return sends[-1][1]

    monkeypatch.setattr(sc, "channel_send", spy)
    sim = sc.Simulation(sc.parse_scenario(LANGUAGE_CHAIN), paradigm)
    sc.run_tick(sim)
    assert [(msg.sender_id, res.delivered) for msg, res in sends] == [
        (0, True), (0, False), (1, True), (1, True), (2, False), (2, True)]
    for aid, agent in sim.agents.items():
        delivered = [(msg, res) for msg, res in sends if msg.sender_id == aid and res.delivered]
        assert agent.comm_bytes_sent == sum(msg.size_bytes() for msg, _ in delivered)
        assert agent.comm_latency_s == sum(res.latency_s for _, res in delivered)
    assert sim.comm_bytes_total == sum(a.comm_bytes_sent for a in sim.agents.values())
    assert sim.comm_latency_total_s == sum(res.latency_s for _, res in sends if res.delivered)
    messages = list({msg.sender_id: msg for msg, _ in sends}.values())
    assert sim.payload_bytes == ([] if paradigm == "Language" else
                                 [(0, msg.sender_id, serialize(msg)) for msg in messages])


CROSSING = """
name = crossing
grid = ....
grid = ....
grid = ....
agent = 0 A 1,0
agent = 1 B 0,1
route = 0 1,0 1,1 1,2 1,3
route = 1 0,1 0,2 1,2 2,2
"""


@pytest.mark.parametrize("paradigm", sc.PARADIGMS)
def test_agents_that_share_a_cell_collide_as_vehicles(paradigm):
    """On an all-road grid whose two routes cross at (1, 2), both agents stand there
    after tick 1 and each counts one vehicle collision, and nothing else: infraction
    score 0.6 and full route completion, in the agent state and the metrics rows."""
    spec = sc.parse_scenario(CROSSING)
    sim = sc.Simulation(spec, paradigm)
    for _ in range(2):
        sc.run_tick(sim)
    assert sim.agents[0].cell == sim.agents[1].cell == (1, 2)
    sim = sc.run_episode(spec, paradigm)
    for agent in sim.agents.values():
        assert agent.infractions == {"collision_vehicle": 1}
        assert (agent.infraction_score, agent.route_completion) == (0.6, 100.0)
    for row in sc.metrics_rows(sim):
        row = dict(zip(sc.METRIC_COLUMNS, row))
        assert (row["collision_vehicle"], row["infraction_score"], row["route_completion"]) == (1, 0.6, 100.0)
        assert row["collision_pedestrian"] == row["collision_static"] == row["timeout"] == 0
        assert row["driving_score"] == pytest.approx(60.0)


class TestInfractionScore:
    def test_penalty_product(self):
        counts = {"collision_pedestrian": 2, "collision_vehicle": 1, "timeout": 1}
        assert sc.infraction_score(counts) == pytest.approx(0.5**2 * 0.6 * 0.7, abs=0)

    def test_empty_is_one(self):
        assert sc.infraction_score({}) == 1.0

    def test_an_agent_multiplies_in_the_order_of_its_infractions(self):
        """A float product depends on its order; the score is not taken over a sorted copy."""
        agent = sc.AgentState(spec=mini_spec().agents[0])
        for name in ("red_light", "collision_vehicle", "collision_static"):
            agent.infractions[name] += 1
        assert agent.infraction_score == 0.7 * 0.6 * 0.65
        assert agent.infraction_score != 0.65 * 0.6 * 0.7


class TestSweep:
    def test_m_zero_fails_m_default_succeeds(self):
        spec = mini_spec()
        rows = sc.sweep("m", [0, 4], [spec], "LACO")
        by_value = {}
        for row in rows:
            value, agent = row[1], row[4]
            if agent == 0:
                by_value[value] = row
        cols = ("param", "value") + sc.METRIC_COLUMNS
        ped = cols.index("collision_pedestrian")
        assert by_value[0][ped] == 1
        assert by_value[4][ped] == 0

    def test_rho_one_matches_no_pruning_byte_count(self):
        from laco.wire import payload_size_bytes, rounded_layer_count

        spec = mini_spec()
        result = sc.run_episode(replace(spec, rho=1.0), "LACO")
        T = spec.observation_len
        l_comm = rounded_layer_count(spec.l_comm_fraction, spec.model_layers)
        per_payload = payload_size_bytes(
            l_comm, spec.model_heads, spec.model_dim // spec.model_heads, T, spec.m, 0)
        ticks_0 = {t for t, aid, _ in result.actions if aid == 0}
        ticks_1 = {t for t, aid, _ in result.actions if aid == 1}
        both_live = len(ticks_0 & ticks_1)
        for a in result.agents.values():
            assert a.comm_bytes_sent == per_payload * both_live

    def test_repeat_sweep_identical(self):
        spec = mini_spec()
        a = sc.sweep("l_comm_fraction", [0.1, 1.0], [spec])
        b = sc.sweep("l_comm_fraction", [0.1, 1.0], [spec])
        assert a == b

    def test_bad_param_rejected(self):
        with pytest.raises(ScenarioError):
            sc.sweep("bogus", [1], [mini_spec()])

    def test_empty_values_rejected(self):
        with pytest.raises(ScenarioError):
            sc.sweep("m", [], [mini_spec()])

    def test_a_bad_model_key_fails_before_any_episode(self, monkeypatch):
        """A spec the model cannot be built from is rejected when it is made,
        so a sweep over it and a good spec runs no episode."""
        monkeypatch.setattr(sc, "run_episode", pytest.fail)
        with pytest.raises(ScenarioError, match="^model_dim: "):
            sc.sweep("m", [1], [mini_spec(), replace(mini_spec(), model_dim=15)])

    @pytest.mark.parametrize("param, value", [("m", -1), ("rho", 0.0), ("l_comm_fraction", 1.5)])
    def test_out_of_range_value_rejected_before_any_episode(self, monkeypatch, param, value):
        monkeypatch.setattr(sc, "run_episode", pytest.fail)
        with pytest.raises(ScenarioError, match=param):
            sc.sweep(param, [1, value], [mini_spec()])


# occluded_3 plus two lane-B agents: three peers relay to every receiver.
FOUR_AGENTS = """
name = occluded_3_four_agents
paradigm = LACO
seed = 13
m = 10
grid = ..............
grid = ..............
grid = ..............
grid = ..######.####.
grid = ..............
agent = 0 A 4,0
agent = 1 B 0,0
agent = 2 B 2,0
agent = 3 B 1,0
route = 0 4,0 4,1 4,2 4,3 4,4 4,5 4,6 4,7 4,8 4,9 4,10 4,11 4,12 4,13
route = 1 0,0 0,1 0,2 0,3 0,4 0,5 0,6 0,7 0,8 0,9 0,10 0,11 0,12 0,13
route = 2 2,0 2,1 2,2 2,3 2,4 2,5 2,6 2,7 2,8 2,9 2,10 2,11 2,12 2,13
route = 3 1,0 1,1 1,2 1,3 1,4 1,5 1,6 1,7 1,8 1,9 1,10 1,11 1,12 1,13
hazard = lane=A path=4,8 hide=1,8 appear=0 enter=7 clear=9
"""


class TestFourAgents:
    def test_context_budgets_one_message_per_peer(self):
        spec = sc.parse_scenario(FOUR_AGENTS)
        T = spec.observation_len
        assert spec.model_config().max_context == T + 3 * 10 + 8
        three = replace(spec, agents=spec.agents[:3])
        assert three.model_config().max_context == T + 2 * 10 + 8

    @pytest.mark.parametrize(
        "paradigm,m", [(p, 10) for p in sc.PARADIGMS] + [("Language", 8)])
    def test_every_paradigm_runs(self, paradigm, m):
        spec = replace(sc.parse_scenario(FOUR_AGENTS), m=m)
        result = sc.run_episode(spec, paradigm)
        assert sorted(result.agents) == [0, 1, 2, 3]
        shares_cache = paradigm in ("Visual", "NaiveLatent", "LACO")
        assert result.agents[0].driving_score == (100.0 if shares_cache else 50.0)
        if paradigm == "Language":
            assert result.comm_bytes_total > 0

    def test_agents_listed_out_of_order_report_in_ascending_id(self):
        spec = sc.parse_scenario(FOUR_AGENTS)
        descending = replace(spec, agents=spec.agents[::-1])
        assert [a.agent_id for a in descending.agents] == [3, 2, 1, 0]
        result = sc.run_episode(descending, "LACO")
        assert list(result.agents) == [0, 1, 2, 3]
        rows = sc.metrics_rows(result)
        assert [row[sc.METRIC_COLUMNS.index("agent")] for row in rows] == [0, 1, 2, 3]
        assert rows == sc.metrics_rows(sc.run_episode(spec, "LACO"))
