"""Desk-scale witnesses for fixed-point continua of parametrized families.

The parameter range is cut into grid cells; on each cell the fixed points
of psi(t, .) are enclosed jointly for every t in the cell (the parameter
enters localization as an interval), giving slabs in (t, x) space.

A slab that the Hansen-Sengupta test proves (`localize_fixed_points`;
Hansen & Sengupta 1981; Neumaier 1990, chapter 5) comes with a
uniqueness box U: for every t of its cell, U holds exactly one fixed
point x(t), which lies in the slab and is continuous in t.  Two such
slabs of consecutive cells glue when one slab's box lies in the other's
U: at the shared t the two fixed points then both lie in that U, so they
are equal and the two branches join continuously.  A chain of
glued slabs from the t = a side to the t = b side is therefore a proof
of a continuous branch of fixed points across the parameter range, and
the witness reports it `proven`.

When no glued chain exists, a breadth-first search looks for a chain of
slabs overlapping as point sets instead.  Such a chain is evidence of
the guaranteed connected branch, not a proof of connectedness, and is
labelled accordingly (`proven` false).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque

from . import jsonout
from .degree import BoundaryZeroError, fixed_point_index
from .geometry import RectDomain
from .interval import Box, Interval, sub_down, sub_up
from .localize import localize_fixed_points
from .mapdsl import MapSpec


class Slab:
    __slots__ = ("id", "cell", "t", "box", "status", "unique")

    def __init__(self, id: int, cell: int, t: Interval, box: Box, status: str,
                 unique: "Box | None"):
        self.id = id
        self.cell = cell
        self.t = t
        self.box = box
        self.status = status
        self.unique = unique  # see Enclosure.unique


class ContinuumWitness:
    __slots__ = ("t_grid", "slabs", "chain", "max_t_reached", "exhausted", "start_index",
                 "proven")

    def __init__(self, t_grid: tuple, slabs: list, chain: list, max_t_reached: float,
                 exhausted: bool, start_index: "int | None", proven: bool):
        self.t_grid = t_grid
        self.slabs = slabs
        self.chain = chain  # slab ids, or empty
        self.max_t_reached = max_t_reached
        self.exhausted = exhausted
        self.start_index = start_index
        self.proven = proven  # the chain is glued: a proof of a continuous branch

    @property
    def complete(self) -> bool:
        """Whether the chain reaches the t = b side: a chain is found only
        when it does."""
        return bool(self.chain)

    def chain_slabs(self):
        by_id = {s.id: s for s in self.slabs}
        return [by_id[i] for i in self.chain]

    def to_json_dict(self):
        return {
            "complete": self.complete,
            "proven": self.proven,
            "cells": len(self.t_grid) - 1,
            "chain": [
                {"t": [s.t.lo, s.t.hi], "box": s.box.bounds()} for s in self.chain_slabs()
            ],
            "max_t_reached": self.max_t_reached,
            "slabs": len(self.slabs),
            "exhausted": self.exhausted,
            "start_index": self.start_index,
        }

    def to_json(self):
        return jsonout.dumps(self.to_json_dict())


def trace_continuum(psi: MapSpec, t_range, x_box: Box, grid: int = 16,
                    tol: float = 1e-3, budget_per_cell: int = 200_000,
                    check_start_index: bool = False) -> ContinuumWitness:
    """Trace fixed-point enclosures of psi(t, .) across the parameter range
    t_range, a pair (a, b) of numbers.

    Returns a witness whose chain, when complete, projects onto the whole
    parameter interval; it is `proven` when its slabs glue (see the module
    docstring).  When some cell has no surviving enclosure the chain
    necessarily breaks there and max_t_reached reports how far the
    connected component of the t = a side extends.
    """
    if not psi.has_param:
        raise ValueError("trace_continuum needs a parametrized map (param t)")
    if grid < 1:
        raise ValueError("grid must be at least 1")
    a, b = map(float, t_range)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("parameter range must be finite")
    if not a < b:
        raise ValueError("parameter range must have positive width")
    if not math.isfinite(b - a):
        raise ValueError("parameter range is wider than the float range")

    # The last point is b itself: a + (b - a) can round below b.  Where
    # (b - a) * j overflows, the width is scaled by j / grid instead.
    t_grid = tuple(_grid_point(a, b - a, j, grid) for j in range(grid)) + (b,)
    rect = RectDomain(x_box)
    slabs = []
    exhausted = False
    per_cell = []
    for cell in range(grid):
        t_iv = Interval(t_grid[cell], t_grid[cell + 1])
        res = localize_fixed_points(psi, rect, tol, budget=budget_per_cell, t=t_iv)
        exhausted = exhausted or res.exhausted
        cell_slabs = []
        for enc in res.enclosures:
            slab = Slab(len(slabs), cell, t_iv, enc.box, enc.status, enc.unique)
            slabs.append(slab)
            cell_slabs.append(slab)
        per_cell.append(cell_slabs)

    start_index = None
    if check_start_index and psi.dim in (1, 2):
        try:
            start_index = fixed_point_index(psi.at(a), rect).value
        except BoundaryZeroError:
            start_index = None

    # Glued edges join consecutive-cell slabs; adjacency joins same-cell
    # slabs touching in x and consecutive-cell slabs intersecting in x
    # (they share the dividing t value).  Glued slabs intersect, so their
    # pairs are among the latter.
    glued = {s.id: [] for s in slabs}
    adjacency = {s.id: [] for s in slabs}
    for cell in range(grid):
        group = per_cell[cell]
        pairs = list(_touching_pairs(group))
        if cell + 1 < grid:
            across = list(_touching_pairs(group, per_cell[cell + 1]))
            for u, v in across:
                if _glue(u, v):
                    glued[u.id].append(v.id)
            pairs += across
        for u, v in pairs:
            adjacency[u.id].append(v.id)
            adjacency[v.id].append(u.id)
    for ids in adjacency.values():
        ids.sort()

    starts = [s.id for s in per_cell[0]] if per_cell else []
    proven_starts = [sid for sid in starts if slabs[sid].unique is not None]
    chain, _seen = _search(slabs, glued, proven_starts, grid - 1)
    proven = bool(chain)
    if not proven:
        chain, seen = _search(slabs, adjacency, starts, grid - 1)
    max_t = b if chain else max([a] + [slabs[sid].t.hi for sid in seen])
    return ContinuumWitness(t_grid, slabs, chain, max_t, exhausted, start_index, proven)


def _grid_point(a: float, width: float, j: int, grid: int) -> float:
    span = width * j
    return a + (span / grid if math.isfinite(span) else width * (j / grid))


def _glue(u, v) -> bool:
    """Whether slabs u and v of consecutive cells are both proven unique
    and one's box lies in the other's uniqueness box."""
    return (u.unique is not None and v.unique is not None
            and (u.box.is_subset(v.unique) or v.box.is_subset(u.unique)))


def _search(slabs, edges, starts, goal_cell):
    """Breadth-first search along edges from the start slab ids to a slab
    of goal_cell.  Returns (chain of slab ids, or [], the ids reached)."""
    parent = {}
    seen = set(starts)
    queue = deque(starts)
    while queue:
        sid = queue.popleft()
        if slabs[sid].cell == goal_cell:
            chain = [sid]
            while chain[-1] in parent:
                chain.append(parent[chain[-1]])
            chain.reverse()
            return chain, seen
        for nxt in edges[sid]:
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = sid
                queue.append(nxt)
    return [], seen


def _lower_end(slab) -> float:
    return slab.box.coords[0].lo


def _touching_pairs(us, vs=None):
    """Every pair (u, v), u from us and v from vs, whose boxes intersect
    (touching counts); with vs omitted, every such pair of distinct slabs
    of us, once, as u.id < v.id.

    A sweep on axis 0 over vs sorted by lower end: with w the widest v on
    axis 0, a v that meets u has its lower end in [u.lo - w, u.hi]; that
    window is rounded outward, so it never drops a candidate.  Only
    candidates get the full box test.
    """
    same = vs is None
    vs = sorted(us if same else vs, key=_lower_end)
    los = [_lower_end(v) for v in vs]
    w = max((sub_up(v.box.coords[0].hi, v.box.coords[0].lo) for v in vs), default=0.0)
    for u in us:
        x = u.box.coords[0]
        for v in vs[bisect_left(los, sub_down(x.lo, w)):bisect_right(los, x.hi)]:
            if (not same or u.id < v.id) and u.box.intersects(v.box):
                yield u, v
