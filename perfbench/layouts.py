"""Seeded generator of occluded-hazard layouts in the ``.laco`` text format.

Every layout mirrors the shipped ``occluded_*`` maps: a lane-A agent drives
along one edge row, a wall with a single gap separates it from the rest of the
grid, and a lane-A pedestrian hides behind the wall where only the lane-B
agents can see it, then steps through the gap onto lane A's route just as the
lane-A agent would arrive.  Without communication the lane-A agent hits the
pedestrian (driving score 50); a delivered shallow cache that carries the
hazard makes it brake in time (driving score 100).

The seed varies the geometry: which edge lane A drives on and in which
direction, the directions of the lane-B agents, the wall's extent, the hiding
row and the third agent's row.  What sets the amount of work is fixed: rows,
columns, agent count and deliberation depth m come from the caller, and the
crossing point and window are constants, so every seed costs about the same.
"""

import random

DEFAULT_SEED = 1
# The pedestrian crosses lane A this many cells from the lane-A start, and
# stays on the crossing for this many ticks.  Both are fixed so that every
# seed costs the same: the lane-A agent brakes for enter + CROSSING_TICKS
# ticks, which also stays below the default 10-tick blocked limit.
CROSSING_DISTANCE = 6
CROSSING_TICKS = 3


def layout_text(rng: random.Random, name: str, rows: int, cols: int, agents: int, m: int) -> str:
    """One layout as scenario text; ``agents`` is 2 or 3 (3 needs rows >= 5)."""
    if not 4 <= rows <= 6 or not 10 <= cols <= 16:
        raise ValueError(f"layout shape {rows}x{cols} outside 4-6 rows x 10-16 columns")
    if agents not in (2, 3) or (agents == 3 and rows < 5):
        raise ValueError(f"{agents} agents do not fit {rows} rows")
    # Canonical orientation: lane B on row 0, wall on row rows-2, lane A on
    # the last row driving from column 0.  Mirrored afterwards.
    wall = rows - 2
    a_row = rows - 1
    gap = CROSSING_DISTANCE
    lo = rng.randint(1, 2)
    hi = rng.randint(cols - 3, cols - 2)
    free_rows = list(range(1, wall))
    hide_row = rng.choice(free_rows)
    enter = gap - 1                       # the tick lane A would reach the gap
    clear = enter + CROSSING_TICKS

    grid = [["."] * cols for _ in range(rows)]
    for c in range(lo, hi + 1):
        if c != gap:
            grid[wall][c] = "#"

    def straight(row, forward):
        cells = [(row, c) for c in range(cols)]
        return cells if forward else cells[::-1]

    routes = [("A", straight(a_row, True)), ("B", straight(0, rng.random() < 0.5))]
    if agents == 3:
        free_rows.remove(hide_row)
        routes.append(("B", straight(rng.choice(free_rows), rng.random() < 0.5)))
    path, hide = (a_row, gap), (hide_row, gap)

    flip_rows = rng.random() < 0.5
    flip_cols = rng.random() < 0.5
    if flip_rows:
        grid.reverse()
    if flip_cols:
        grid = [row[::-1] for row in grid]

    def fmt(cell):
        r, c = cell
        return f"{rows - 1 - r if flip_rows else r},{cols - 1 - c if flip_cols else c}"

    lines = [
        f"name = {name}",
        "paradigm = LACO",
        f"seed = {rng.randrange(1000)}",
        f"m = {m}",
        "rho = 0.3",
        "l_comm_fraction = 0.10",
        "cell_size_m = 10",
        "tick_budget = 200",
    ]
    lines += ["grid = " + "".join(row) for row in grid]
    for aid, (lane, route) in enumerate(routes):
        lines.append(f"agent = {aid} {lane} {fmt(route[0])}")
    for aid, (_, route) in enumerate(routes):
        lines.append(f"route = {aid} " + " ".join(fmt(cell) for cell in route))
    lines.append(
        f"hazard = lane=A path={fmt(path)} hide={fmt(hide)} appear=0 enter={enter} clear={clear}"
    )
    return "\n".join(lines) + "\n"


def generate(seed: int, shapes) -> list:
    """[(name, text)] for each (rows, cols, agents, m) shape, seeded by ``seed``."""
    rng = random.Random(seed)
    layouts = []
    for i, (rows, cols, agents, m) in enumerate(shapes):
        name = f"gen{i}_{rows}x{cols}_a{agents}_m{m}"
        layouts.append((name, layout_text(rng, name, rows, cols, agents, m)))
    return layouts
