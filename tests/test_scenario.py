from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laco import scenario as sc
from laco.errors import ScenarioError
from laco.model import (
    TOKEN_EGO_A,
    TOKEN_EGO_B,
    TOKEN_HAZARD_A,
    TOKEN_OCCLUDED,
    TOKEN_VEHICLE,
)
from reference import ref_visible

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
        ],
    )
    def test_rejects_malformed(self, mutation):
        line, match = mutation
        with pytest.raises(ScenarioError, match=match):
            sc.parse_scenario(MINI + line + "\n")

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
        world = sc.World(spec.grid, spec.cell_size_m)
        for r in range(spec.rows):
            for c in range(spec.cols):
                assert_row_matches_oracle(world, spec.grid, (r, c))

    @given(grid_and_viewpoint())
    @settings(max_examples=60, deadline=2000)
    def test_random_grids_match_scalar_oracle(self, case):
        grid, frm = case
        assert_row_matches_oracle(sc.World(grid, 10.0), grid, frm)

    def test_revisited_viewpoint_is_memoized(self, monkeypatch):
        spec = mini_spec()
        world = sc.World(spec.grid, spec.cell_size_m)
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

    def test_laco_forward_passes_m_plus_2(self):
        r = sc.run_episode(mini_spec(), "LACO")
        for aid, a in r.agents.items():
            active = sum(1 for t, i, _ in r.actions if i == aid)
            assert a.forward_passes == active * (4 + 2)

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


class TestInfractionScore:
    def test_penalty_product(self):
        counts = {"collision_pedestrian": 2, "collision_vehicle": 1, "timeout": 1}
        assert sc.infraction_score(counts) == pytest.approx(0.5**2 * 0.6 * 0.7, abs=0)

    def test_empty_is_one(self):
        assert sc.infraction_score({}) == 1.0


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
