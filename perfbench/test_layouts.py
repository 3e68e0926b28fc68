"""The seeded layout generator: every layout parses and every paradigm runs it.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import laco  # noqa: E402
from laco.scenario import PARADIGMS  # noqa: E402

import layouts  # noqa: E402
import workloads  # noqa: E402

SHAPES = sorted(set(workloads.DEEP_LATENT_SHAPES + workloads.TELEMETRY_IO_SHAPES))
# Lane-A driving score: without a shared cache the hidden pedestrian is hit.
LANE_A_SCORE = {"NonCollab": 50.0, "Language": 50.0, "Visual": 100.0, "NaiveLatent": 100.0, "LACO": 100.0}


@pytest.mark.parametrize("seed", [layouts.DEFAULT_SEED, 7, 12345])
def test_every_layout_parses_with_its_shape(seed):
    for (rows, cols, agents, m), (name, text) in zip(SHAPES, layouts.generate(seed, SHAPES)):
        spec = laco.parse_scenario(text)
        assert spec.name == name
        assert (spec.rows, spec.cols, len(spec.agents), spec.m) == (rows, cols, agents, m)
        assert [a.lane for a in spec.agents].count("A") == 1
        (hazard,) = spec.hazards
        assert hazard.lane == "A" and hazard.hide_cell is not None


def test_seed_decides_the_layouts():
    assert layouts.generate(3, SHAPES) == layouts.generate(3, SHAPES)
    assert layouts.generate(3, SHAPES) != layouts.generate(4, SHAPES)


@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_every_paradigm_runs_every_layout_to_completion(paradigm):
    for _, text in layouts.generate(layouts.DEFAULT_SEED, SHAPES):
        spec = laco.parse_scenario(text)
        result = laco.run_episode(spec, paradigm)
        assert result.ticks < spec.tick_budget
        for agent in result.agents.values():
            assert agent.route_completion == 100.0
            assert "timeout" not in agent.infractions
        lane_a = next(a for a in result.agents.values() if a.lane == "A")
        assert lane_a.driving_score == LANE_A_SCORE[paradigm]


def test_shapes_outside_the_range_are_refused():
    import random

    with pytest.raises(ValueError):
        layouts.layout_text(random.Random(0), "x", 3, 12, 2, 10)
    with pytest.raises(ValueError):
        layouts.layout_text(random.Random(0), "x", 4, 12, 3, 10)
