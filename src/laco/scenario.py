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

import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .chsa import build_chsa_cache, saliency_scores, select_topk
from .errors import InvalidActionError, ScenarioError
from .fusion import attach_payload, collaborative_decode, segment_from_payload
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
    decode_step,
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
    attach_during_deliberation: bool
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


_SCALARS = {
    "name": str,
    "paradigm": str,
    "seed": int,
    "m": int,
    "rho": float,
    "l_comm_fraction": float,
    "cell_size_m": float,
    "tick_budget": int,
    "blocked_after": int,
    "attach_during_deliberation": lambda s: s.lower() in ("1", "true", "yes"),
    "channel_range_m": float,
    "channel_bandwidth_bytes_per_s": float,
    "channel_base_latency_s": float,
    "model_layers": int,
    "model_heads": int,
    "model_dim": int,
    "vocab_size": int,
}

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
    "attach_during_deliberation": False,
    "channel_range_m": 200.0,
    "channel_bandwidth_bytes_per_s": 1_000_000.0,
    "channel_base_latency_s": 0.01,
    "model_layers": 4,
    "model_heads": 2,
    "model_dim": 16,
    "vocab_size": 16,
}


def _parse_cell(text: str) -> tuple:
    r, c = text.split(",")
    return (int(r), int(c))


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse the plain-text key/value scenario format.

    Repeatable keys: ``grid`` (one row per line, ``.`` road / ``#`` obstacle),
    ``agent = <id> <lane> <r,c>``, ``route = <id> <r,c> ...``, and
    ``hazard = lane=<A|B> path=<r,c> [hide=<r,c>] appear=<t> enter=<t>
    clear=<t>``.  Everything else is a scalar with a default.
    """
    values = dict(_DEFAULTS)
    grid_rows = []
    agent_lines = []
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
        if key == "grid":
            grid_rows.append(value)
        elif key == "agent":
            parts = value.split()
            if len(parts) != 3:
                raise ScenarioError(f"agent line needs '<id> <lane> <r,c>': {value!r}")
            agent_lines.append((int(parts[0]), parts[1], _parse_cell(parts[2])))
        elif key == "route":
            parts = value.split()
            route_lines[int(parts[0])] = tuple(_parse_cell(p) for p in parts[1:])
        elif key == "hazard":
            fields = dict(p.split("=", 1) for p in value.split())
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
        elif key in _SCALARS:
            values[key] = _SCALARS[key](value)
        else:
            raise ScenarioError(f"unknown scenario key {key!r}")

    if not grid_rows:
        raise ScenarioError("scenario has no grid rows")
    width = len(grid_rows[0])
    if any(len(r) != width for r in grid_rows):
        raise ScenarioError("grid rows must all have the same width")
    if any(set(r) - {".", "#"} for r in grid_rows):
        raise ScenarioError("grid rows may only contain '.' and '#'")

    agents = []
    for agent_id, lane, start in sorted(agent_lines):
        if lane not in ("A", "B"):
            raise ScenarioError(f"agent lane must be A or B, got {lane!r}")
        route = route_lines.get(agent_id)
        if not route:
            raise ScenarioError(f"agent {agent_id} has no route")
        if route[0] != start:
            raise ScenarioError(f"agent {agent_id} route must start at its start cell")
        agents.append(AgentSpec(agent_id=agent_id, lane=lane, route=route))

    if values["paradigm"] not in PARADIGMS:
        raise ScenarioError(f"unknown paradigm {values['paradigm']!r}")

    spec = ScenarioSpec(
        name=values["name"],
        grid=tuple(grid_rows),
        agents=tuple(agents),
        hazards=tuple(hazards),
        paradigm=values["paradigm"],
        seed=values["seed"],
        m=values["m"],
        rho=values["rho"],
        l_comm_fraction=values["l_comm_fraction"],
        channel=ChannelConfig(
            range_m=values["channel_range_m"],
            bandwidth_bytes_per_s=values["channel_bandwidth_bytes_per_s"],
            base_latency_s=values["channel_base_latency_s"],
        ),
        cell_size_m=values["cell_size_m"],
        tick_budget=values["tick_budget"],
        blocked_after=values["blocked_after"],
        attach_during_deliberation=values["attach_during_deliberation"],
        model_layers=values["model_layers"],
        model_heads=values["model_heads"],
        model_dim=values["model_dim"],
        vocab_size=values["vocab_size"],
    )
    _validate_spec(spec)
    return spec


def _validate_spec(spec: ScenarioSpec):
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


def _segment_hits_box(p0, p1, lo_r, lo_c):
    """Does the segment p0->p1 touch the closed unit cell at (lo_r, lo_c)?"""
    t0, t1 = 0.0, 1.0
    for axis, lo in ((0, float(lo_r)), (1, float(lo_c))):
        d = p1[axis] - p0[axis]
        if abs(d) < 1e-12:
            if p0[axis] < lo or p0[axis] > lo + 1.0:
                return False
        else:
            a = (lo - p0[axis]) / d
            b = (lo + 1.0 - p0[axis]) / d
            if a > b:
                a, b = b, a
            t0 = max(t0, a)
            t1 = min(t1, b)
            if t0 > t1:
                return False
    return True


class World:
    """Static geometry plus deterministic line-of-sight queries."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.obstacles = [
            (r, c)
            for r in range(spec.rows)
            for c in range(spec.cols)
            if spec.grid[r][c] == "#"
        ]

    def visible(self, frm: tuple, to: tuple) -> bool:
        """True when no obstacle cell intersects the center-to-center segment.

        Endpoint cells never block (an obstacle is visible as a surface).
        Corner grazing counts as blocked, so walls are airtight.
        """
        if frm == to:
            return True
        p0 = (frm[0] + 0.5, frm[1] + 0.5)
        p1 = (to[0] + 0.5, to[1] + 0.5)
        for cell in self.obstacles:
            if cell == frm or cell == to:
                continue
            if _segment_hits_box(p0, p1, cell[0], cell[1]):
                return False
        return True

    def cell_to_meters(self, cell: tuple):
        s = self.spec.cell_size_m
        return (cell[0] * s, cell[1] * s)


@dataclass
class AgentState:
    spec: AgentSpec
    route_idx: int = 0
    done: bool = False
    zero_speed_streak: int = 0
    ticks_active: int = 0
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
    spec = world.spec
    me = agents[agent_id]
    my_cell = me.cell
    hazard_cells = {}
    for hz in hazards:
        cell = hz.observed_cell(tick)
        if cell is not None:
            hazard_cells[cell] = hz.token
    other_cells = {a.cell for aid, a in agents.items() if aid != agent_id and not a.done}
    goal = me.spec.route[-1]

    tokens = np.empty(spec.observation_len, dtype=np.int64)
    i = 0
    for r in range(spec.rows):
        for c in range(spec.cols):
            cell = (r, c)
            if not world.visible(my_cell, cell):
                tok = TOKEN_OCCLUDED
            elif cell in hazard_cells:
                tok = hazard_cells[cell]
            elif cell in other_cells:
                tok = TOKEN_VEHICLE
            elif spec.grid[r][c] == "#":
                tok = TOKEN_OBSTACLE
            elif cell == goal:
                tok = TOKEN_GOAL
            else:
                tok = TOKEN_CLEAR
            tokens[i] = tok
            i += 1
    tokens[i] = me.spec.marker_token
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
        self.world = World(spec)
        self.agents = {a.agent_id: AgentState(spec=a) for a in spec.agents}
        cfg = spec.model_config()
        self.models = {a.agent_id: make_hazard_model(cfg) for a in spec.agents}
        self.tick = 0
        self.comm_bytes = 0
        self.comm_latency = 0.0
        self.sent_bytes = Counter()
        self.sent_latency = Counter()
        self.actions = []
        self.telemetry = []
        self.payload_bytes = []
        self.prev_inboxes = {a.agent_id: [] for a in spec.agents}
        self._warned_m0 = False

    def live_agents(self):
        return [aid for aid in sorted(self.agents) if not self.agents[aid].done]

    def all_done(self) -> bool:
        return all(a.done for a in self.agents.values())


# Paradigms.  A sender returns the message an agent broadcasts (or None) and
# may extend its prefill cache; a receiver turns a non-empty inbox into the
# decision's (logits, attention rows, context tags).

def _send_nothing(sim: Simulation, aid: int, pre):
    return None


def _send_tokens(sim: Simulation, aid: int, pre):
    """Language: greedily decode m tokens and relay their ids."""
    model = sim.models[aid]
    h = pre.hidden
    ids = []
    for _ in range(sim.spec.m):
        logits = project_to_logits(model, h)
        tok = int(np.argmax(logits))
        ids.append(tok)
        sim.agents[aid].decoded_tokens += 1
        h, _ = decode_step(model, model.w_in[tok], pre.cache)
    return LanguageMessage(sender_id=aid, frame_id=sim.tick, token_ids=tuple(ids))


def _send_cache(sim: Simulation, aid: int, pre, m: int, indices, l_comm_fraction: float):
    """Payload of the selected prefill positions plus the first m latent ones."""
    T = sim.spec.observation_len
    assembled = build_chsa_cache(pre.cache.slice(0, T), pre.cache.slice(T, T + m), indices)
    return distill(assembled, indices, l_comm_fraction, sender_id=aid, frame_id=sim.tick)


def _send_visual(sim: Simulation, aid: int, pre):
    """Visual: the whole prefill cache at full depth."""
    return _send_cache(sim, aid, pre, 0, list(range(sim.spec.observation_len)), 1.0)


def _deliberate(sim: Simulation, aid: int, pre):
    """Run m latent steps on the prefill cache and record their trace."""
    spec = sim.spec
    model = sim.models[aid]
    align = compute_alignment(model)
    fused = ()
    if spec.attach_during_deliberation:
        fused = [segment_from_payload(p) for p in sim.prev_inboxes[aid]]
    delib = deliberate(model, align, pre.hidden, pre.cache, spec.m, fused_segments=fused)
    if delib.steps > 0:
        sim.telemetry.append(
            TraceRecord(
                tick=sim.tick,
                agent=aid,
                lengths=delib.trace.lengths[: delib.steps].copy(),
                array=delib.trace.array[: delib.steps].copy(),
            )
        )
    return delib


def _send_naive_latent(sim: Simulation, aid: int, pre):
    """NaiveLatent: deliberate, then send prefill and latent caches at full depth."""
    _deliberate(sim, aid, pre)
    spec = sim.spec
    return _send_cache(sim, aid, pre, spec.m, list(range(spec.observation_len)), 1.0)


def _send_laco(sim: Simulation, aid: int, pre):
    """LACO: deliberate, keep the salient prefill positions, truncate to shallow layers."""
    spec = sim.spec
    delib = _deliberate(sim, aid, pre)
    if spec.m == 0:
        if not sim._warned_m0:
            log.warning("LACO with m=0: no latent trace, transmitting nothing")
            sim._warned_m0 = True
        return None
    sal = saliency_scores(delib.trace, spec.observation_len, spec.rho)
    indices = select_topk(sal)
    return _send_cache(sim, aid, pre, spec.m, indices, spec.l_comm_fraction)


def _decide_alone(sim: Simulation, aid: int, obs, cache, inbox):
    """Decision decode over the agent's own cache."""
    model = sim.models[aid]
    marker = model.w_in[sim.agents[aid].spec.marker_token].copy()
    hidden, rows = decode_step(model, marker, cache)
    logits = project_to_logits(model, hidden)
    n = cache.length
    tags = [cache.tags[:n] for _ in range(model.config.num_layers)]
    return logits, rows, tags


def _decide_on_tokens(sim: Simulation, aid: int, obs, cache, inbox):
    """Language: re-prefill [relayed tokens || observation], then decide on that."""
    prefix = [tok for msg in inbox for tok in msg.token_ids]
    tokens = np.concatenate([np.asarray(prefix, dtype=np.int64), obs])
    pre = prefill(sim.models[aid], tokens, source_id=aid)
    return _decide_alone(sim, aid, obs, pre.cache, ())


def _decide_fused(sim: Simulation, aid: int, obs, cache, inbox):
    """Latent paradigms: one decode over the ego cache fused with the payloads."""
    model = sim.models[aid]
    marker = model.w_in[sim.agents[aid].spec.marker_token].copy()
    result = collaborative_decode(model, marker, attach_payload(cache, inbox))
    return result.logits, result.attention_rows, result.context_tags


# name -> (sender, receiver), in the order the paradigms are reported.
_PARADIGM_TABLE = {
    "NonCollab": (_send_nothing, _decide_alone),
    "Language": (_send_tokens, _decide_on_tokens),
    "Visual": (_send_visual, _decide_fused),
    "NaiveLatent": (_send_naive_latent, _decide_fused),
    "LACO": (_send_laco, _decide_fused),
}
PARADIGMS = tuple(_PARADIGM_TABLE)


def run_tick(sim: Simulation):
    """Advance the simulation one tick; returns {agent_id: action_token}."""
    spec = sim.spec
    live = sim.live_agents()
    t = sim.tick

    observations = {}
    caches = {}
    messages = {}
    for aid in live:
        sim.agents[aid].ticks_active += 1
        obs = observe(sim.world, sim.agents, spec.hazards, aid, t)
        observations[aid] = obs
        pre = prefill(sim.models[aid], obs, source_id=aid)
        messages[aid] = sim.send(sim, aid, pre)
        caches[aid] = pre.cache

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
        decide = sim.receive if inboxes[aid] else _decide_alone
        logits, rows, tags = decide(sim, aid, observations[aid], caches[aid], inboxes[aid])
        action = int(np.argmax(logits))
        if action not in ACTION_TOKENS:
            raise InvalidActionError(
                f"agent {aid} decoded token {action}, not an action slot"
            )
        actions[aid] = action
        sim.actions.append((t, aid, ACTION_NAMES[action]))
        sim.telemetry.append(DecisionRecord(tick=t, agent=aid, rows=rows, tags=tags))
    sim.prev_inboxes.update(inboxes)

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
            forward_passes=sim.models[aid].stats.forward_passes,
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
    rows = []
    for value in values:
        for spec in specs:
            cast = int(value) if param == "m" else float(value)
            varied = _replace_param(spec, param, cast)
            result = run_episode(varied, paradigm)
            for row in metrics_rows(result):
                rows.append((param, cast) + row)
    return rows


def _replace_param(spec: ScenarioSpec, param: str, value):
    from dataclasses import replace

    return replace(spec, **{param: value})
