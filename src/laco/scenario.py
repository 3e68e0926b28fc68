"""Two-agent occluded-hazard gridworld with pluggable communication paradigms.

The world is a small grid of road/obstacle cells.  Each agent follows a fixed
waypoint route; hazards are pedestrians that may first stand in a hiding cell
(visible only to some agents) and then step into a route cell for a window of
ticks.  Per tick every live agent observes, runs its transformer policy under
the configured paradigm, and emits one action; collisions, waypoint progress
and communication costs are accounted per agent.

Scenario files are plain text ``key = value`` lines; see
:func:`parse_scenario` for the full key set and ``src/laco/data`` for shipped
layouts.
"""

import functools
import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import model as model_module
from .chsa import saliency_scores, select_topk
from .errors import ConfigError, InvalidActionError, ScenarioError
from .fusion import attach_payload, collaborative_decode
from .ild import compute_alignment, deliberate
from .model import (
    ACTION_NAMES,
    ACTION_TOKENS,
    TOKEN_CLEAR,
    TOKEN_EGO_A,
    TOKEN_EGO_B,
    TOKEN_GOAL,
    TOKEN_HAZARD_A,
    TOKEN_HAZARD_B,
    TOKEN_OBSTACLE,
    TOKEN_OCCLUDED,
    TOKEN_VEHICLE,
    ModelConfig,
    make_hazard_model,
    prefill,
    project_to_logits,
)
from .telemetry import DecisionRecord, TraceRecord
from .wire import ChannelConfig, LanguageMessage, channel_send, distill, serialize

log = logging.getLogger(__name__)

# Multiplicative infraction penalty coefficients.
PENALTIES = {
    "collision_pedestrian": 0.50,
    "collision_vehicle": 0.60,
    "collision_static": 0.65,
    "red_light": 0.70,
    "timeout": 0.70,
}

ACTION_BRAKE, ACTION_KEEP, ACTION_ACCEL, ACTION_LEFT, ACTION_RIGHT = ACTION_TOKENS
_MOVE_ACTIONS = (ACTION_KEEP, ACTION_ACCEL)


@dataclass(frozen=True)
class AgentSpec:
    agent_id: int
    lane: str
    route: tuple

    @property
    def marker_token(self) -> int:
        return TOKEN_EGO_A if self.lane == "A" else TOKEN_EGO_B


@dataclass(frozen=True)
class HazardSpec:
    """A pedestrian that may hide, then cross a route cell for some ticks."""

    lane: str
    path_cell: tuple
    hide_cell: tuple | None
    appear: int
    enter: int
    clear: int

    @property
    def token(self) -> int:
        return TOKEN_HAZARD_A if self.lane == "A" else TOKEN_HAZARD_B

    def observed_cell(self, tick: int):
        """Where observers see the pedestrian at the start of a tick."""
        if not self.appear <= tick < self.clear:
            return None
        if self.hide_cell is not None and tick <= self.enter:
            return self.hide_cell
        return self.path_cell

    def blocks_path(self, tick: int) -> bool:
        """Whether the pedestrian occupies the route cell during this tick."""
        return self.enter <= tick < self.clear


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    grid: tuple
    agents: tuple
    hazards: tuple
    paradigm: str
    seed: int
    m: int
    rho: float
    l_comm_fraction: float
    channel: ChannelConfig
    cell_size_m: float
    tick_budget: int
    blocked_after: int
    model_layers: int
    model_heads: int
    model_dim: int
    vocab_size: int

    @property
    def rows(self) -> int:
        return len(self.grid)

    @property
    def cols(self) -> int:
        return len(self.grid[0])

    @property
    def observation_len(self) -> int:
        return self.rows * self.cols + 1

    def model_config(self) -> ModelConfig:
        # A Language receiver re-prefills one relayed m-token message per peer.
        relayed = max(2, len(self.agents) - 1)
        budget = self.observation_len + max(self.m, 1) * relayed + 8
        return ModelConfig(
            num_layers=self.model_layers,
            num_heads=self.model_heads,
            model_dim=self.model_dim,
            vocab_size=self.vocab_size,
            max_context=budget,
            seed=self.seed,
        )


_DEFAULTS = {
    "name": "unnamed",
    "paradigm": "LACO",
    "seed": 0,
    "m": 10,
    "rho": 0.3,
    "l_comm_fraction": 0.10,
    "cell_size_m": 10.0,
    "tick_budget": 200,
    "blocked_after": 10,
    "channel_range_m": 200.0,
    "channel_bandwidth_bytes_per_s": 1_000_000.0,
    "channel_base_latency_s": 0.01,
    "model_layers": 4,
    "model_heads": 2,
    "model_dim": 16,
    "vocab_size": 16,
}

_HAZARD_FIELDS = {"lane", "path", "hide", "appear", "enter", "clear"}


def _parse_cell(text: str) -> tuple:
    r, c = text.split(",")
    return (int(r), int(c))


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse the plain-text key/value scenario format.

    Repeatable keys: ``grid`` (one row per line, ``.`` road / ``#`` obstacle),
    ``agent = <id> <lane> <r,c>``, ``route = <id> <r,c> ...``, and
    ``hazard = lane=<A|B> path=<r,c> [hide=<r,c>] appear=<t> enter=<t>
    clear=<t>``, each field at most once.  An agent or route id appears at
    most once.  Every other key is a scalar with a default in ``_DEFAULTS``,
    parsed as the type of that default.
    """
    values = dict(_DEFAULTS)
    grid_rows = []
    agent_lines = {}
    route_lines = {}
    hazards = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value': {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "grid":
                grid_rows.append(value)
            elif key == "agent":
                parts = value.split()
                if len(parts) != 3:
                    raise ScenarioError(f"agent line needs '<id> <lane> <r,c>': {value!r}")
                if parts[1] not in ("A", "B"):
                    raise ScenarioError(f"agent lane must be A or B, got {parts[1]!r}")
                agent_id = int(parts[0])
                if agent_id in agent_lines:
                    raise ScenarioError(f"agent {agent_id} is defined twice")
                agent_lines[agent_id] = (parts[1], _parse_cell(parts[2]))
            elif key == "route":
                parts = value.split()
                route_id = int(parts[0])
                if route_id in route_lines:
                    raise ScenarioError(f"route {route_id} is defined twice")
                route_lines[route_id] = tuple(_parse_cell(p) for p in parts[1:])
            elif key == "hazard":
                pairs = [p.split("=", 1) for p in value.split()]
                fields = dict(pairs)
                if len(fields) < len(pairs):
                    raise ScenarioError(f"hazard line {value!r} repeats a field")
                if fields.keys() - _HAZARD_FIELDS:
                    raise ScenarioError(f"unknown hazard field in {value!r}")
                if fields["lane"] not in ("A", "B"):
                    raise ScenarioError(f"hazard lane must be A or B, got {fields['lane']!r}")
                hazards.append(
                    HazardSpec(
                        lane=fields["lane"],
                        path_cell=_parse_cell(fields["path"]),
                        hide_cell=_parse_cell(fields["hide"]) if "hide" in fields else None,
                        appear=int(fields.get("appear", 0)),
                        enter=int(fields["enter"]),
                        clear=int(fields["clear"]),
                    )
                )
            elif key in _DEFAULTS:
                values[key] = type(_DEFAULTS[key])(value)
            else:
                raise ScenarioError(f"unknown scenario key {key!r}")
        except KeyError as exc:
            raise ScenarioError(f"{key} line {value!r} lacks {exc}") from exc
        except (ValueError, IndexError) as exc:
            raise ScenarioError(f"malformed {key} line {value!r}: {exc}") from exc

    if not grid_rows:
        raise ScenarioError("scenario has no grid rows")
    width = len(grid_rows[0])
    if any(len(r) != width for r in grid_rows):
        raise ScenarioError("grid rows must all have the same width")
    if any(set(r) - {".", "#"} for r in grid_rows):
        raise ScenarioError("grid rows may only contain '.' and '#'")

    agents = []
    for agent_id, (lane, start) in sorted(agent_lines.items()):
        route = route_lines.get(agent_id)
        if not route:
            raise ScenarioError(f"agent {agent_id} has no route")
        if route[0] != start:
            raise ScenarioError(f"agent {agent_id} route must start at its start cell")
        agents.append(AgentSpec(agent_id=agent_id, lane=lane, route=route))

    if values["paradigm"] not in PARADIGMS:
        raise ScenarioError(f"unknown paradigm {values['paradigm']!r}")

    # ``channel_<field>`` sets ChannelConfig.<field>; every other key is a ScenarioSpec field.
    link = {key.removeprefix("channel_"): v
            for key, v in values.items() if key.startswith("channel_")}
    try:
        channel = ChannelConfig(**link)
    except ConfigError as exc:
        raise ScenarioError(f"channel: {exc}") from exc
    spec = ScenarioSpec(
        grid=tuple(grid_rows),
        agents=tuple(agents),
        hazards=tuple(hazards),
        channel=channel,
        **{key: v for key, v in values.items() if not key.startswith("channel_")},
    )
    _validate_spec(spec)
    return spec


def _validate_spec(spec: ScenarioSpec):
    # The bounds deliberate, saliency_scores and distill enforce at run time.
    if spec.m < 0:
        raise ScenarioError(f"m must be >= 0, got {spec.m}")
    if not 0.0 < spec.cell_size_m < np.inf:
        raise ScenarioError(f"cell_size_m must be positive and finite, got {spec.cell_size_m}")
    for key in ("rho", "l_comm_fraction"):
        if not 0.0 < getattr(spec, key) <= 1.0:
            raise ScenarioError(f"{key} must be in (0, 1], got {getattr(spec, key)}")

    def on_road(cell):
        r, c = cell
        return 0 <= r < spec.rows and 0 <= c < spec.cols and spec.grid[r][c] == "."

    for a in spec.agents:
        for cell in a.route:
            if not on_road(cell):
                raise ScenarioError(f"agent {a.agent_id} route cell {cell} is not road")
        for u, v in zip(a.route, a.route[1:]):
            if abs(u[0] - v[0]) + abs(u[1] - v[1]) != 1:
                raise ScenarioError(f"agent {a.agent_id} route not 4-connected at {u}->{v}")
    lanes = {a.lane: a for a in spec.agents}
    for hz in spec.hazards:
        if not on_road(hz.path_cell):
            raise ScenarioError(f"hazard path cell {hz.path_cell} is not road")
        if hz.hide_cell is not None and not on_road(hz.hide_cell):
            raise ScenarioError(f"hazard hide cell {hz.hide_cell} is not road")
        if not hz.appear <= hz.enter < hz.clear:
            raise ScenarioError("hazard ticks must satisfy appear <= enter < clear")
        lane_agent = lanes.get(hz.lane)
        if lane_agent is not None and hz.path_cell not in lane_agent.route:
            raise ScenarioError(f"lane-{hz.lane} hazard path {hz.path_cell} not on that lane's route")


def load_scenario(path) -> ScenarioSpec:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def builtin_scenario_path(name: str) -> Path:
    """Path of a shipped layout, e.g. 'occluded_1' or 'clear_lane_1'."""
    p = Path(__file__).parent / "data" / f"{name}.laco"
    if not p.exists():
        raise ScenarioError(f"no builtin scenario named {name!r}")
    return p


def builtin_scenario_names():
    data = Path(__file__).parent / "data"
    return sorted(p.stem for p in data.glob("*.laco"))


class World:
    """Static geometry plus deterministic line-of-sight queries."""

    def __init__(self, grid: tuple, cell_size_m: float):
        self.cell_size_m = cell_size_m
        self.obstacle_mask = np.array([[ch == "#" for ch in row] for row in grid])
        # Obstacle corners (M, 2), their raster indices (M,) and every cell
        # center (N, 2), all in raster order.
        self._obstacles = np.argwhere(self.obstacle_mask).astype(np.float64)
        self._obstacle_index = np.flatnonzero(self.obstacle_mask)
        self._centers = np.argwhere(np.ones_like(self.obstacle_mask)) + 0.5
        self._visibility = {}

    def visibility(self, frm: tuple) -> np.ndarray:
        """(rows, cols) bool: which cells a viewer at ``frm`` sees, memoized.

        A cell is visible when no obstacle cell intersects the center-to-center
        segment.  Endpoint cells never block (an obstacle is visible as a
        surface).  Corner grazing counts as blocked, so walls are airtight.
        """
        row = self._visibility.get(frm)
        if row is None:
            row = self._visibility[frm] = self._trace(frm)
            row.flags.writeable = False  # shared by every episode on the layout
        return row

    def _trace(self, frm: tuple) -> np.ndarray:
        """Slab test of every (target cell, obstacle) segment/box pair at once."""
        p0 = np.array(frm, dtype=np.float64) + 0.5
        t0 = np.zeros((self._centers.shape[0], self._obstacles.shape[0]))
        t1 = np.ones_like(t0)
        hit = np.ones(t0.shape, dtype=bool)
        for axis in (0, 1):
            d = (self._centers[:, axis] - p0[axis])[:, None]
            lo = self._obstacles[None, :, axis]
            flat = np.abs(d) < 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                a = (lo - p0[axis]) / d
                b = (lo + 1.0 - p0[axis]) / d
            t0 = np.where(flat, t0, np.maximum(t0, np.minimum(a, b)))
            t1 = np.where(flat, t1, np.minimum(t1, np.maximum(a, b)))
            hit &= ~flat | ((p0[axis] >= lo) & (p0[axis] <= lo + 1.0))
        hit &= t0 <= t1
        # Obstacles at either endpoint never block.
        hit[self._obstacle_index, np.arange(hit.shape[1])] = False
        hit[:, self._obstacle_index == frm[0] * self.obstacle_mask.shape[1] + frm[1]] = False
        return ~hit.any(axis=1).reshape(self.obstacle_mask.shape)

    def cell_to_meters(self, cell: tuple):
        s = self.cell_size_m
        return (cell[0] * s, cell[1] * s)


@functools.lru_cache(maxsize=64)
def layout_world(grid: tuple, cell_size_m: float) -> World:
    """The World of a layout, shared by every episode on it (bounded memo)."""
    return World(grid, cell_size_m)


@dataclass
class AgentState:
    spec: AgentSpec
    route_idx: int = 0
    done: bool = False
    zero_speed_streak: int = 0
    decoded_tokens: int = 0
    brake_ticks: int = 0
    infractions: Counter = field(default_factory=Counter)
    _hit_hazards: set = field(default_factory=set)

    @property
    def cell(self) -> tuple:
        return self.spec.route[self.route_idx]

    @property
    def route_completion(self) -> float:
        return 100.0 * self.route_idx / (len(self.spec.route) - 1)


def observe(world: World, agents, hazards, agent_id: int, tick: int):
    """Deterministic egocentric tokenization: fixed raster, marker last.

    Occluded cells emit OCCLUDED; visible cells emit (by precedence) a
    lane-tagged HAZARD token, VEHICLE, OBSTACLE, the agent's own GOAL, or
    CLEAR.  The final token is the agent's lane marker.
    """
    me = agents[agent_id]
    tokens = np.full(world.obstacle_mask.size + 1, TOKEN_CLEAR, dtype=np.int64)
    # Lowest precedence first, so each later write overrides the earlier ones.
    raster = tokens[:-1].reshape(world.obstacle_mask.shape)
    raster[me.spec.route[-1]] = TOKEN_GOAL
    raster[world.obstacle_mask] = TOKEN_OBSTACLE
    for aid, a in agents.items():
        if aid != agent_id and not a.done:
            raster[a.cell] = TOKEN_VEHICLE
    for hz in hazards:
        cell = hz.observed_cell(tick)
        if cell is not None:
            raster[cell] = hz.token
    raster[~world.visibility(me.cell)] = TOKEN_OCCLUDED
    tokens[-1] = me.spec.marker_token
    return tokens


def infraction_score(counts) -> float:
    score = 1.0
    for name, n in counts.items():
        score *= PENALTIES[name] ** n
    return score


@dataclass
class AgentMetrics:
    agent_id: int
    lane: str
    route_completion: float
    infractions: dict
    infraction_score: float
    driving_score: float
    forward_passes: int
    decoded_tokens: int
    brake_ticks: int
    comm_bytes_sent: int
    comm_latency_s: float


@dataclass
class EpisodeResult:
    scenario: str
    paradigm: str
    ticks: int
    agents: dict
    comm_bytes_total: int
    comm_latency_total_s: float
    actions: list          # (tick, agent_id, action_name)
    telemetry: list        # TraceRecord / DecisionRecord
    payload_bytes: list    # (tick, sender_id, bytes) serialized payloads


class Simulation:
    """Mutable episode state; stepped tick by tick by :func:`run_tick`."""

    def __init__(self, spec: ScenarioSpec, paradigm: str | None = None):
        self.spec = spec
        self.paradigm = paradigm or spec.paradigm
        if self.paradigm not in PARADIGMS:
            raise ScenarioError(f"unknown paradigm {self.paradigm!r}")
        self.send, self.receive = _PARADIGM_TABLE[self.paradigm]
        self.world = layout_world(spec.grid, spec.cell_size_m)
        self.agents = {a.agent_id: AgentState(spec=a) for a in spec.agents}
        # Every agent runs the same weights; the model counts passes per agent.
        self.model = make_hazard_model(spec.model_config())
        self.tick = 0
        self.comm_bytes = 0
        self.comm_latency = 0.0
        self.sent_bytes = Counter()
        self.sent_latency = Counter()
        self.actions = []
        self.telemetry = []
        self.payload_bytes = []
        self._warned_m0 = False

    def live_agents(self):
        return [aid for aid in sorted(self.agents) if not self.agents[aid].done]

    def all_done(self) -> bool:
        return all(a.done for a in self.agents.values())


# Paradigms.  A sender turns the live agents' prefill batch into the message
# each of them broadcasts (or None) and may extend their caches in lock-step;
# a receiver turns one agent's non-empty inbox into the decision's (logits,
# attention rows, context tags).

def _send_nothing(sim: Simulation, live, pre):
    return [None] * len(live)


def _send_tokens(sim: Simulation, live, pre):
    """Language: greedily decode m tokens per agent in lock-step and relay their ids."""
    model = sim.model
    h = pre.hidden
    ids = np.zeros((sim.spec.m, len(live)), dtype=np.int64)
    for step in range(sim.spec.m):
        ids[step] = np.argmax(project_to_logits(model, h), axis=1)
        # Looked up on the module, so a wrapper installed there (a tracer) sees it.
        h, _ = model_module.forward_decode(model, model.w_in[ids[step]], pre.cache)
    for aid in live:
        sim.agents[aid].decoded_tokens += sim.spec.m
    return [LanguageMessage(sender_id=aid, frame_id=sim.tick, token_ids=tuple(ids[:, i].tolist()))
            for i, aid in enumerate(live)]


def _send_cache(sim: Simulation, aid: int, cache, indices, l_comm_fraction: float):
    """Payload of the selected prefill positions plus every latent one."""
    return distill(cache, sim.spec.observation_len, indices, l_comm_fraction,
                   sender_id=aid, frame_id=sim.tick)


def _send_visual(sim: Simulation, live, pre):
    """Visual: each whole prefill cache at full depth."""
    every = range(sim.spec.observation_len)
    return [_send_cache(sim, aid, cache, every, 1.0) for aid, cache in zip(live, pre.cache)]


def _deliberate(sim: Simulation, live, pre):
    """Run m latent steps on every prefill cache in lock-step and record the traces."""
    delib = deliberate(sim.model, compute_alignment(sim.model), pre.hidden, pre.cache, sim.spec.m)
    if delib.steps > 0:
        for aid, trace in zip(live, delib.trace):
            sim.telemetry.append(TraceRecord(tick=sim.tick, agent=aid, trace=trace))
    return delib


def _send_naive_latent(sim: Simulation, live, pre):
    """NaiveLatent: deliberate, then send prefill and latent caches at full depth."""
    _deliberate(sim, live, pre)
    return _send_visual(sim, live, pre)


def _send_laco(sim: Simulation, live, pre):
    """LACO: deliberate, keep the salient prefill positions, truncate to shallow layers."""
    spec = sim.spec
    delib = _deliberate(sim, live, pre)
    if spec.m == 0:
        if not sim._warned_m0:
            log.warning("LACO with m=0: no latent trace, transmitting nothing")
            sim._warned_m0 = True
        return [None] * len(live)
    messages = []
    for aid, cache, trace in zip(live, pre.cache, delib.trace):
        indices = select_topk(saliency_scores(trace, spec.observation_len, spec.rho))
        messages.append(_send_cache(sim, aid, cache, indices, spec.l_comm_fraction))
    return messages


def _decide_on_tokens(sim: Simulation, aid: int, obs, cache, inbox):
    """Language: re-prefill [relayed tokens || observation], then decide on that."""
    prefix = [tok for msg in inbox for tok in msg.token_ids]
    tokens = np.concatenate([np.asarray(prefix, dtype=np.int64), obs])
    pre = prefill(sim.model, tokens, agents=(aid,))
    return _decide(sim, aid, obs, pre.cache, ())


def _decide(sim: Simulation, aid: int, obs, cache, inbox):
    """One decode over the ego cache fused with the received payloads.

    With an empty inbox this is the plain decision decode over the agent's
    own cache.
    """
    model = sim.model
    marker = model.w_in[sim.agents[aid].spec.marker_token].copy()
    result = collaborative_decode(model, marker, attach_payload(cache, inbox))
    return result.logits, result.attention_rows, result.context_tags


# name -> (sender, receiver), in the order the paradigms are reported.
_PARADIGM_TABLE = {
    "NonCollab": (_send_nothing, _decide),
    "Language": (_send_tokens, _decide_on_tokens),
    "Visual": (_send_visual, _decide),
    "NaiveLatent": (_send_naive_latent, _decide),
    "LACO": (_send_laco, _decide),
}
PARADIGMS = tuple(_PARADIGM_TABLE)


def run_tick(sim: Simulation):
    """Advance the simulation one tick; returns {agent_id: action_token}."""
    spec = sim.spec
    live = sim.live_agents()
    t = sim.tick

    observations = {aid: observe(sim.world, sim.agents, spec.hazards, aid, t) for aid in live}
    pre = prefill(sim.model, np.stack([observations[aid] for aid in live]), agents=live)
    caches = dict(zip(live, pre.cache))
    messages = dict(zip(live, sim.send(sim, live, pre)))

    # Deliver messages at the tick boundary, ascending sender id.
    inboxes = {aid: [] for aid in live}
    for sender in live:
        msg = messages[sender]
        if msg is None:
            continue
        for receiver in live:
            if receiver == sender:
                continue
            res = channel_send(
                spec.channel,
                msg,
                sim.world.cell_to_meters(sim.agents[sender].cell),
                sim.world.cell_to_meters(sim.agents[receiver].cell),
            )
            if not res.delivered:
                continue
            inboxes[receiver].append(msg)
            size = msg.size_bytes()
            sim.comm_bytes += size
            sim.comm_latency += res.latency_s
            sim.sent_bytes[sender] += size
            sim.sent_latency[sender] += res.latency_s
        if not isinstance(msg, LanguageMessage):
            sim.payload_bytes.append((t, sender, serialize(msg)))

    actions = {}
    for aid in live:
        decide = sim.receive if inboxes[aid] else _decide
        logits, rows, tags = decide(sim, aid, observations[aid], caches[aid], inboxes[aid])
        action = int(np.argmax(logits))
        if action not in ACTION_TOKENS:
            raise InvalidActionError(
                f"agent {aid} decoded token {action}, not an action slot"
            )
        actions[aid] = action
        sim.actions.append((t, aid, ACTION_NAMES[action]))
        sim.telemetry.append(DecisionRecord(tick=t, agent=aid, rows=rows, tags=tags))

    # Apply actions.
    moved = {}
    for aid in live:
        agent = sim.agents[aid]
        if actions[aid] in _MOVE_ACTIONS and agent.route_idx < len(agent.spec.route) - 1:
            agent.route_idx += 1
            moved[aid] = True
        else:
            moved[aid] = False
        if actions[aid] == ACTION_BRAKE:
            agent.brake_ticks += 1

    # Collisions with pedestrians (counted once per agent/hazard pair).
    for aid in live:
        agent = sim.agents[aid]
        for hz_idx, hz in enumerate(spec.hazards):
            if hz.blocks_path(t) and agent.cell == hz.path_cell and hz_idx not in agent._hit_hazards:
                agent._hit_hazards.add(hz_idx)
                agent.infractions["collision_pedestrian"] += 1
    # Vehicle collisions: two live agents on one cell.
    for i, aid in enumerate(live):
        for other in live[i + 1 :]:
            if sim.agents[aid].cell == sim.agents[other].cell:
                sim.agents[aid].infractions["collision_vehicle"] += 1
                sim.agents[other].infractions["collision_vehicle"] += 1

    # Goal / blocked bookkeeping.
    for aid in live:
        agent = sim.agents[aid]
        if agent.route_idx == len(agent.spec.route) - 1:
            agent.done = True
            continue
        if moved[aid]:
            agent.zero_speed_streak = 0
        else:
            agent.zero_speed_streak += 1
            if agent.zero_speed_streak >= spec.blocked_after:
                agent.infractions["timeout"] += 1
                agent.done = True

    sim.tick += 1
    return actions


def run_episode(spec: ScenarioSpec, paradigm: str | None = None) -> EpisodeResult:
    """Run ticks until every agent finishes or the budget expires."""
    sim = Simulation(spec, paradigm)
    while not sim.all_done() and sim.tick < spec.tick_budget:
        run_tick(sim)
    for aid, agent in sim.agents.items():
        if not agent.done:
            agent.infractions["timeout"] += 1
            agent.done = True

    agents = {}
    for aid in sorted(sim.agents):
        agent = sim.agents[aid]
        rc = agent.route_completion
        is_ = infraction_score(agent.infractions)
        agents[aid] = AgentMetrics(
            agent_id=aid,
            lane=agent.spec.lane,
            route_completion=rc,
            infractions=dict(sorted(agent.infractions.items())),
            infraction_score=is_,
            driving_score=rc * is_,
            forward_passes=sim.model.stats.forward_passes[aid],
            decoded_tokens=agent.decoded_tokens,
            brake_ticks=agent.brake_ticks,
            comm_bytes_sent=sim.sent_bytes[aid],
            comm_latency_s=sim.sent_latency[aid],
        )
    return EpisodeResult(
        scenario=spec.name,
        paradigm=sim.paradigm,
        ticks=sim.tick,
        agents=agents,
        comm_bytes_total=sim.comm_bytes,
        comm_latency_total_s=sim.comm_latency,
        actions=sim.actions,
        telemetry=sim.telemetry,
        payload_bytes=sim.payload_bytes,
    )


METRIC_COLUMNS = (
    "scenario", "paradigm", "agent", "lane", "route_completion",
    "infraction_score", "infraction_penalty", "driving_score",
    "collision_pedestrian", "collision_vehicle", "collision_static",
    "red_light", "timeout", "ticks", "forward_passes", "decoded_tokens",
    "brake_ticks", "comm_bytes_sent", "comm_latency_s",
    "comm_bytes_total", "comm_latency_total_s",
)


def metrics_rows(result: EpisodeResult):
    """Flatten an episode into per-agent CSV rows (METRIC_COLUMNS order)."""
    rows = []
    for aid in sorted(result.agents):
        a = result.agents[aid]
        rows.append((
            result.scenario, result.paradigm, aid, a.lane, a.route_completion,
            a.infraction_score, 1.0 - a.infraction_score, a.driving_score,
            a.infractions.get("collision_pedestrian", 0),
            a.infractions.get("collision_vehicle", 0),
            a.infractions.get("collision_static", 0),
            a.infractions.get("red_light", 0),
            a.infractions.get("timeout", 0),
            result.ticks, a.forward_passes, a.decoded_tokens, a.brake_ticks,
            a.comm_bytes_sent, a.comm_latency_s,
            result.comm_bytes_total, result.comm_latency_total_s,
        ))
    return rows


SWEEP_PARAMS = ("m", "rho", "l_comm_fraction")


def sweep(param: str, values, specs, paradigm: str | None = None):
    """Grid of run_episode results; one row per (value, scenario, agent)."""
    if param not in SWEEP_PARAMS:
        raise ScenarioError(f"sweep parameter must be one of {SWEEP_PARAMS}")
    if not values:
        raise ScenarioError("sweep needs at least one value")
    cast = int if param == "m" else float
    try:
        values = [cast(v) for v in values]
    except ValueError as exc:
        raise ScenarioError(f"bad {param} value: {exc}") from exc
    runs = [(value, replace(spec, **{param: value})) for value in values for spec in specs]
    for _, spec in runs:
        _validate_spec(spec)
    rows = []
    for value, spec in runs:
        for row in metrics_rows(run_episode(spec, paradigm)):
            rows.append((param, value) + row)
    return rows
