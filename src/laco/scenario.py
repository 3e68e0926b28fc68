"""Multi-agent occluded-hazard gridworld with pluggable communication paradigms.

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
import itertools
import logging
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

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
    DecodeBatch,
    ModelConfig,
    check_hazard_config,
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


# ModelConfig field -> the scenario key that sets it.
_MODEL_KEYS = {"num_layers": "model_layers", "num_heads": "model_heads", "model_dim": "model_dim",
               "vocab_size": "vocab_size"}


@dataclass(frozen=True, kw_only=True)
class ScenarioSpec:
    name: str = "unnamed"
    grid: tuple
    agents: tuple
    hazards: tuple
    paradigm: str = "LACO"
    seed: int = 0  # accepted and ignored: no output depends on it
    m: int = 10
    rho: float = 0.3
    l_comm_fraction: float = 0.10
    channel: ChannelConfig
    cell_size_m: float = 10.0
    tick_budget: int = 200
    blocked_after: int = 10
    model_layers: int = 4
    model_heads: int = 2
    model_dim: int = 16
    vocab_size: int = 16

    def __post_init__(self):
        _validate_spec(self)  # every construction checks, replace included

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
        return ModelConfig(max_context=budget, **{f: getattr(self, k) for f, k in _MODEL_KEYS.items()})


# Scalar keys: the ScenarioSpec fields with a default, and channel_<ChannelConfig field>.
_DEFAULTS = {
    **{f.name: f.default for f in fields(ScenarioSpec) if f.default is not MISSING},
    **{f"channel_{f.name}": f.default for f in fields(ChannelConfig)},
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
    clear=<t>``, each field at most once.  A route id appears at most once
    and names an agent.  Every other key is a scalar with a default in
    ``_DEFAULTS``, parsed as the type of that default.  The rules on the
    values (grid, lanes, unique agent ids, routes, ...) are
    :class:`ScenarioSpec`'s own.
    """
    values = dict(_DEFAULTS)
    grid_rows = []
    agent_lines = []  # (id, lane, start cell)
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
                agent_lines.append((int(parts[0]), parts[1], _parse_cell(parts[2])))
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

    orphans = route_lines.keys() - {agent_id for agent_id, _, _ in agent_lines}
    if orphans:
        raise ScenarioError(f"route {min(orphans)} has no agent")
    agents = []
    for agent_id, lane, start in sorted(agent_lines):
        route = route_lines.get(agent_id)
        if not route:
            raise ScenarioError(f"agent {agent_id} has no route")
        if route[0] != start:
            raise ScenarioError(f"agent {agent_id} route must start at its start cell")
        agents.append(AgentSpec(agent_id=agent_id, lane=lane, route=route))

    # ``channel_<field>`` sets ChannelConfig.<field>; every other key is a ScenarioSpec field.
    link = {key.removeprefix("channel_"): v
            for key, v in values.items() if key.startswith("channel_")}
    try:
        channel = ChannelConfig(**link)
    except ConfigError as exc:
        raise ScenarioError(f"channel: {exc}") from exc
    return ScenarioSpec(
        grid=tuple(grid_rows),
        agents=tuple(agents),
        hazards=tuple(hazards),
        channel=channel,
        **{key: v for key, v in values.items() if not key.startswith("channel_")},
    )


def _validate_spec(spec: ScenarioSpec):
    if not (spec.name.isascii() and spec.name.isprintable()) or "," in spec.name:  # a CSV field
        raise ScenarioError(f"name must be printable ASCII without ',', got {spec.name!a}")
    for who, lane in [(f"agent {a.agent_id}", a.lane) for a in spec.agents] + [
            ("hazard", hz.lane) for hz in spec.hazards]:
        if lane not in ("A", "B"):
            raise ScenarioError(f"{who} lane must be A or B, got {lane!r}")
    for agent_id, n in Counter(a.agent_id for a in spec.agents).items():
        if n > 1:
            raise ScenarioError(f"agent {agent_id} is defined twice")
        if not 0 <= agent_id < 2**32:  # a payload's sender_id is a u32
            raise ScenarioError(f"agent id {agent_id} outside [0, 2**32)")
    if not spec.grid or not spec.grid[0]:
        raise ScenarioError("scenario grid has no cells")
    if set(map(len, spec.grid)) != {spec.cols}:
        raise ScenarioError("grid rows must all have the same width")
    if not set().union(*spec.grid) <= {".", "#"}:
        raise ScenarioError("grid rows may only contain '.' and '#'")
    if spec.paradigm not in PARADIGMS:
        raise ScenarioError(f"unknown paradigm {spec.paradigm!r}")
    # The bounds deliberate, saliency_scores, distill and the episode loop need at run time.
    for key, low in (("m", 0), ("tick_budget", 1), ("blocked_after", 1)):
        if getattr(spec, key) < low:
            raise ScenarioError(f"{key} must be >= {low}, got {getattr(spec, key)}")
    if not 0.0 < spec.cell_size_m < np.inf:
        raise ScenarioError(f"cell_size_m must be positive and finite, got {spec.cell_size_m}")
    for key in ("rho", "l_comm_fraction"):
        if not 0.0 < getattr(spec, key) <= 1.0:
            raise ScenarioError(f"{key} must be in (0, 1], got {getattr(spec, key)}")
    try:  # the model that Simulation builds
        check_hazard_config(spec.model_config())
    except ConfigError as exc:
        name = str(exc).split()[0]  # each begins with the ModelConfig field it rejects
        raise ScenarioError(f"{_MODEL_KEYS.get(name, name)}: {exc}") from exc

    def on_road(cell):
        r, c = cell
        return 0 <= r < spec.rows and 0 <= c < spec.cols and spec.grid[r][c] == "."

    for a in spec.agents:
        if len(a.route) < 2:  # route_completion divides by the steps to the goal
            raise ScenarioError(f"agent {a.agent_id} route needs at least two cells")
        for cell in a.route:
            if not on_road(cell):
                raise ScenarioError(f"agent {a.agent_id} route cell {cell} is not road")
        for u, v in zip(a.route, a.route[1:]):
            if abs(u[0] - v[0]) + abs(u[1] - v[1]) != 1:
                raise ScenarioError(f"agent {a.agent_id} route not 4-connected at {u}->{v}")
    lane_cells = {}  # lane -> every cell of that lane's routes
    for a in spec.agents:
        lane_cells.setdefault(a.lane, set()).update(a.route)
    for hz in spec.hazards:
        if not on_road(hz.path_cell):
            raise ScenarioError(f"hazard path cell {hz.path_cell} is not road")
        if hz.hide_cell is not None and not on_road(hz.hide_cell):
            raise ScenarioError(f"hazard hide cell {hz.hide_cell} is not road")
        if not hz.appear <= hz.enter < hz.clear:
            raise ScenarioError("hazard ticks must satisfy appear <= enter < clear")
        cells = lane_cells.get(hz.lane)
        if cells is not None and hz.path_cell not in cells:
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

    def __init__(self, grid: tuple):
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


@functools.lru_cache(maxsize=64)
def layout_world(grid: tuple) -> World:
    """The World of a grid, shared by every episode on it (bounded memo)."""
    return World(grid)


@functools.lru_cache(maxsize=64)
def hazard_model(config: ModelConfig):
    """The hazard Model of a config, shared by its episodes (bounded memo)."""
    return make_hazard_model(config)


@dataclass
class AgentState:
    """One agent's episode state; once the episode ends, its row of the metrics."""

    spec: AgentSpec
    route_idx: int = 0
    done: bool = False
    zero_speed_streak: int = 0
    forward_passes: int = 0
    decoded_tokens: int = 0
    brake_ticks: int = 0
    comm_bytes_sent: int = 0
    comm_latency_s: float = 0  # int until a delivery adds a float: metric digests tell 0 from 0.0
    infractions: Counter = field(default_factory=Counter)
    _hit_hazards: set = field(default_factory=set)

    @property
    def agent_id(self) -> int:
        return self.spec.agent_id

    @property
    def lane(self) -> str:
        return self.spec.lane

    @property
    def cell(self) -> tuple:
        return self.spec.route[self.route_idx]

    @property
    def route_completion(self) -> float:
        return 100.0 * self.route_idx / (len(self.spec.route) - 1)

    @property
    def infraction_score(self) -> float:
        return infraction_score(self.infractions)

    @property
    def driving_score(self) -> float:
        return self.route_completion * self.infraction_score


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


class Simulation:
    """Mutable episode state, stepped tick by tick by :func:`run_tick`; once
    :func:`run_episode` finishes it, the episode's record."""

    def __init__(self, spec: ScenarioSpec, paradigm: str | None = None):
        # spec.paradigm is the paradigm that runs; replace checks it.
        self.spec = spec = replace(spec, paradigm=paradigm) if paradigm is not None else spec
        self.send, self.receive = _PARADIGM_TABLE[spec.paradigm]
        self.world = layout_world(spec.grid)
        # Ascending id, however the spec lists its agents.
        self.agents = {a.agent_id: AgentState(spec=a)
                       for a in sorted(spec.agents, key=lambda a: a.agent_id)}
        # Every agent runs the same weights; run_tick counts each agent's passes.
        self.model = hazard_model(spec.model_config())
        if spec.paradigm == "LACO" and spec.m == 0:
            log.warning("LACO with m=0: no latent trace, transmitting nothing")
        self.ticks = 0  # ticks run; the current tick while one runs
        self.comm_bytes_total = 0
        self.comm_latency_total_s = 0.0
        self.actions = []          # (tick, agent_id, action_name)
        self.telemetry = []        # TraceRecord / DecisionRecord
        self.payload_bytes = []    # (tick, sender_id, bytes) serialized payloads

    def live_agents(self):
        return [aid for aid in sorted(self.agents) if not self.agents[aid].done]

    def all_done(self) -> bool:
        return all(a.done for a in self.agents.values())


def _count_passes(sim: Simulation, agents, caches):
    """Credit each agent one pass for its cache's prefill and one per position a decode appended."""
    for aid, cache in zip(agents, caches):
        sim.agents[aid].forward_passes += 1 + cache.length - cache.prefill_len


# Paradigms.  A sender turns the live agents' prefill batch into the message
# each of them broadcasts (or None) and may extend their caches in lock-step;
# a receiver turns the live agents' inboxes (some may be empty) into each
# agent's decision: (logits, attention rows, context tags).

def _send_nothing(sim: Simulation, live, pre):
    return [None] * len(live)


def _send_tokens(sim: Simulation, live, pre):
    """Language: greedily decode m tokens per agent in lock-step and relay their ids."""
    model, h, batch = sim.model, pre.hidden, DecodeBatch(sim.model, pre.caches)
    ids = np.zeros((sim.spec.m, len(live)), dtype=np.int64)
    step = 0
    while step < sim.spec.m:
        ids[step] = np.argmax(project_to_logits(model, h), axis=1)
        x = model.w_in[ids[step]]
        ran = batch.repeat(x, sim.spec.m - step)
        ids[step : step + ran + 1] = ids[step]  # each step that ran left h, so its argmax, as it was
        step += ran
        if step < sim.spec.m:
            h, _ = batch(x)
            step += 1
    for aid in live:
        sim.agents[aid].decoded_tokens += sim.spec.m
    return [LanguageMessage(sender_id=aid, frame_id=sim.ticks, token_ids=tuple(ids[:, i].tolist()))
            for i, aid in enumerate(live)]


def _send_visual(sim: Simulation, live, pre):
    """Visual: each whole prefill cache at full depth."""
    return [distill(cache, range(cache.prefill_len), 1.0, sender_id=aid, frame_id=sim.ticks)
            for aid, cache in zip(live, pre.caches)]


def _deliberate(sim: Simulation, live, pre):
    """Run m latent steps on every prefill cache in lock-step and record the traces."""
    delib = deliberate(sim.model, compute_alignment(sim.model), pre.hidden, pre.caches, sim.spec.m)
    if delib.steps > 0:
        for aid, trace in zip(live, delib.traces):
            sim.telemetry.append(TraceRecord(tick=sim.ticks, agent=aid, trace=trace))
    return delib


def _send_naive_latent(sim: Simulation, live, pre):
    """NaiveLatent: deliberate, then send prefill and latent caches at full depth."""
    _deliberate(sim, live, pre)
    return _send_visual(sim, live, pre)


def _send_laco(sim: Simulation, live, pre):
    """LACO: deliberate, keep the salient prefill positions, truncate to shallow layers."""
    spec = sim.spec
    delib = _deliberate(sim, live, pre)
    if spec.m == 0:  # Simulation warned once
        return [None] * len(live)
    messages = []
    for aid, cache, trace in zip(live, pre.caches, delib.traces):
        indices = select_topk(saliency_scores(trace, cache.prefill_len, spec.rho))
        messages.append(distill(cache, indices, spec.l_comm_fraction, sender_id=aid,
                                frame_id=sim.ticks))
    return messages


def _decide_on_tokens(sim: Simulation, live, observations, caches, inboxes):
    """Language: re-prefill [relayed tokens || observation], then decide on that:
    one prefill and decode per relayed-prefix length, whose passes it counts.
    An agent with an empty inbox decides on its own cache."""
    decisions = _decide(sim, [a for a in live if not inboxes[a]], observations, caches, inboxes)
    relayed = {a: [tok for msg in inboxes[a] for tok in msg.token_ids] for a in live if inboxes[a]}
    for n in dict.fromkeys(map(len, relayed.values())):
        group = [aid for aid, prefix in relayed.items() if len(prefix) == n]
        pre = prefill(sim.model, [relayed[aid] + observations[aid].tolist() for aid in group])
        decisions.update(_decide(sim, group, observations, dict(zip(group, pre.caches)),
                                 dict.fromkeys(group, ())))
        _count_passes(sim, group, pre.caches)
    return decisions


def _decide(sim: Simulation, live, observations, caches, inboxes):
    """{agent: (logits, attention rows, tags)} of one decode per run of agents
    on consecutive store rows whose inboxes have one signature (each payload's
    ``(l_comm, num_positions)``, by ascending sender id)."""
    decisions = {}
    for _, run in itertools.groupby(enumerate(live), lambda ia: (
            caches[ia[1]].row - ia[0], [(p.l_comm, p.num_positions) for p in inboxes[ia[1]]])):
        group = [aid for _, aid in run]
        markers = sim.model.w_in[[sim.agents[aid].spec.marker_token for aid in group]]
        ctx = attach_payload([caches[aid] for aid in group], [inboxes[aid] for aid in group])
        result = collaborative_decode(sim.model, markers, ctx)
        decisions.update(zip(group, zip(result.logits, result.attention_rows, result.context_tags)))
    return decisions


# name -> (sender, receiver), in the order the paradigms are reported.
_PARADIGM_TABLE = {
    "NonCollab": (_send_nothing, _decide),
    "Language": (_send_tokens, _decide_on_tokens),
    "Visual": (_send_visual, _decide),
    "NaiveLatent": (_send_naive_latent, _decide),
    "LACO": (_send_laco, _decide),
}
PARADIGMS = tuple(_PARADIGM_TABLE)


def _observe_and_send(sim: Simulation, live):
    """Observe, prefill the live agents in one batch and run the paradigm's
    sender: (observations, prefill result, one message or None per agent)."""
    observations = {aid: observe(sim.world, sim.agents, sim.spec.hazards, aid, sim.ticks)
                    for aid in live}
    pre = prefill(sim.model, np.stack([observations[aid] for aid in live]))
    return observations, pre, sim.send(sim, live, pre)


def _deliver(sim: Simulation, live, messages):
    """Each live agent's inbox: messages delivered at the tick boundary,
    ascending sender id, between places in meters.  A delivery charges its
    bytes and latency to its sender and the episode; each Visual or LACO
    payload is recorded once, delivered or not."""
    s = sim.spec.cell_size_m
    meters = {aid: (cell[0] * s, cell[1] * s) for aid in live for cell in [sim.agents[aid].cell]}
    inboxes = {aid: [] for aid in live}
    for sender, msg in zip(live, messages):
        if msg is None:
            continue
        for receiver in (aid for aid in live if aid != sender):
            res = channel_send(sim.spec.channel, msg, meters[sender], meters[receiver])
            if res.delivered:
                inboxes[receiver].append(msg)
                size = msg.size_bytes()
                sim.comm_bytes_total += size
                sim.comm_latency_total_s += res.latency_s
                sim.agents[sender].comm_bytes_sent += size
                sim.agents[sender].comm_latency_s += res.latency_s
        if not isinstance(msg, LanguageMessage):
            sim.payload_bytes.append((sim.ticks, sender, serialize(msg)))
    return inboxes


def _decide_actions(sim: Simulation, live, observations, pre, inboxes):
    """{agent: action token} of the paradigm's receiver, each recorded with its
    decision; counts the passes of the tick's prefill (a Language re-prefill
    counts its own)."""
    decisions = sim.receive(sim, live, observations, dict(zip(live, pre.caches)), inboxes)
    actions = {}
    for aid in live:
        logits, rows, tags = decisions[aid]
        action = int(np.argmax(logits))
        if action not in ACTION_TOKENS:
            raise InvalidActionError(f"agent {aid} decoded token {action}, not an action slot")
        actions[aid] = action
        sim.actions.append((sim.ticks, aid, ACTION_NAMES[action]))
        sim.telemetry.append(DecisionRecord(tick=sim.ticks, agent=aid, rows=rows, tags=tags))
    _count_passes(sim, live, pre.caches)
    return actions


def _move(sim: Simulation, live, actions):
    """Advance each agent that keeps or accelerates short of its goal; {agent: moved}."""
    moved = {}
    for aid in live:
        agent = sim.agents[aid]
        moved[aid] = actions[aid] in _MOVE_ACTIONS and agent.route_idx < len(agent.spec.route) - 1
        if moved[aid]:
            agent.route_idx += 1
        if actions[aid] == ACTION_BRAKE:
            agent.brake_ticks += 1
    return moved


def _settle(sim: Simulation, live, moved):
    """Count collisions, then finish each agent at its goal or blocked too long.
    Infractions count in this order: pedestrian, vehicle, timeout."""
    t = sim.ticks
    for aid in live:  # pedestrians, counted once per agent/hazard pair
        agent = sim.agents[aid]
        for hz_idx, hz in enumerate(sim.spec.hazards):
            if hz.blocks_path(t) and agent.cell == hz.path_cell and hz_idx not in agent._hit_hazards:
                agent._hit_hazards.add(hz_idx)
                agent.infractions["collision_pedestrian"] += 1
    for i, aid in enumerate(live):  # vehicles: two live agents on one cell
        for other in live[i + 1 :]:
            if sim.agents[aid].cell == sim.agents[other].cell:
                sim.agents[aid].infractions["collision_vehicle"] += 1
                sim.agents[other].infractions["collision_vehicle"] += 1
    for aid in live:
        agent = sim.agents[aid]
        if agent.route_idx == len(agent.spec.route) - 1:
            agent.done = True
        elif moved[aid]:
            agent.zero_speed_streak = 0
        else:
            agent.zero_speed_streak += 1
            if agent.zero_speed_streak >= sim.spec.blocked_after:
                agent.infractions["timeout"] += 1
                agent.done = True


def run_tick(sim: Simulation):
    """Advance the simulation one tick; returns {agent_id: action_token}."""
    live = sim.live_agents()
    observations, pre, messages = _observe_and_send(sim, live)
    inboxes = _deliver(sim, live, messages)
    actions = _decide_actions(sim, live, observations, pre, inboxes)
    _settle(sim, live, _move(sim, live, actions))
    sim.ticks += 1
    return actions


def run_episode(spec: ScenarioSpec, paradigm: str | None = None) -> Simulation:
    """Run ticks until every agent finishes or the budget expires; return the
    finished Simulation."""
    sim = Simulation(spec, paradigm)
    while not sim.all_done() and sim.ticks < spec.tick_budget:
        run_tick(sim)
    for agent in sim.agents.values():
        if not agent.done:
            agent.infractions["timeout"] += 1
            agent.done = True
    return sim


METRIC_COLUMNS = (
    "scenario", "paradigm", "agent", "lane", "route_completion",
    "infraction_score", "infraction_penalty", "driving_score",
    "collision_pedestrian", "collision_vehicle", "collision_static",
    "red_light", "timeout", "ticks", "forward_passes", "decoded_tokens",
    "brake_ticks", "comm_bytes_sent", "comm_latency_s",
    "comm_bytes_total", "comm_latency_total_s",
)


def metrics_rows(result: Simulation):
    """Flatten a finished episode into per-agent CSV rows (METRIC_COLUMNS order)."""
    rows = []
    for a in result.agents.values():
        rows.append((
            result.spec.name, result.spec.paradigm, a.agent_id, a.lane, a.route_completion,
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
    # Each replace checks its spec, so a bad value fails before any episode runs.
    runs = [(value, replace(spec, **{param: value})) for value in values for spec in specs]
    rows = []
    for value, spec in runs:
        for row in metrics_rows(run_episode(spec, paradigm)):
            rows.append((param, value) + row)
    return rows
