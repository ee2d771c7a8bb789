"""Desk-scale witnesses for fixed-point continua of parametrized families.

The parameter range is cut into grid cells; on each cell the fixed points
of psi(t, .) are enclosed jointly for every t in the cell (the parameter
enters localization as an interval), giving slabs in (t, x) space.

A slab that the Krawczyk test proves (`localize_fixed_points`) comes
with a uniqueness box U: for every t of its cell, U holds exactly one
fixed point x(t), which lies in the slab and is continuous in t.  Two
such slabs of consecutive cells glue when one slab's box lies in the
other's U: at the shared t the two fixed points then both lie in that U,
so they are equal and the two branches join continuously.  A chain of
glued slabs from the t = a side to the t = b side is therefore a proof
of a continuous branch of fixed points across the parameter range, and
the witness reports it `proven`.

When no glued chain exists, a breadth-first search looks for a chain of
slabs overlapping as point sets instead.  Such a chain is evidence of
the guaranteed connected branch, not a proof of connectedness, and is
labelled accordingly (`proven` false).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

from .degree import BoundaryZeroError, fixed_point_index
from .geometry import RectDomain
from .interval import Box, Interval, sub_down, sub_up
from .localize import localize_fixed_points
from .mapdsl import MapSpec


@dataclass(frozen=True)
class Slab:
    id: int
    cell: int
    t: Interval
    box: Box
    status: str
    unique: "Box | None" = None  # see Enclosure.unique

    def to_json_dict(self):
        return {
            "id": self.id,
            "cell": self.cell,
            "t": [self.t.lo, self.t.hi],
            "box": self.box.bounds(),
            "status": self.status,
        }


@dataclass
class ContinuumWitness:
    t_grid: tuple
    slabs: list
    chain: list  # slab ids, or empty
    complete: bool
    max_t_reached: float
    exhausted: bool = False
    start_index: "int | None" = None
    proven: bool = False  # the chain is glued: a proof of a continuous branch

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
        return json.dumps(self.to_json_dict(), indent=2)


def trace_continuum(psi: MapSpec, t_range, x_box: Box, grid: int = 16,
                    tol: float = 1e-3, budget_per_cell: int = 200_000,
                    check_start_index: bool = False) -> ContinuumWitness:
    """Trace fixed-point enclosures of psi(t, .) across the parameter range.

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
    a, b = (t_range.lo, t_range.hi) if isinstance(t_range, Interval) else map(float, t_range)
    if not a < b:
        raise ValueError("parameter range must have positive width")

    # The last point is b itself: a + (b - a) can round below b.
    t_grid = tuple(a + (b - a) * j / grid for j in range(grid)) + (b,)
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
            start_index = fixed_point_index(psi.bind_interval(Interval(a)), rect).value
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
    if chain:
        return ContinuumWitness(t_grid, slabs, chain, True, b, exhausted, start_index,
                                proven=True)
    chain, seen = _search(slabs, adjacency, starts, grid - 1)
    if chain:
        return ContinuumWitness(t_grid, slabs, chain, True, b, exhausted, start_index)
    max_t = a
    for sid in seen:
        max_t = max(max_t, slabs[sid].t.hi)
    return ContinuumWitness(t_grid, slabs, [], False, max_t, exhausted, start_index)


def _glue(u, v) -> bool:
    """Whether slabs u and v of consecutive cells are both Krawczyk-proven
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
    of us, once.

    A sweep on axis 0 over vs sorted by lower end.  Within one list, the
    slabs after u that can meet u are those whose lower end is at most
    u's upper end.  Across lists, with w the widest v on axis 0, a v that
    meets u has its lower end in [u.lo - w, u.hi]; that window is rounded
    outward, so it never drops a candidate.  Only candidates get the full
    box test.
    """
    same = vs is None
    vs = sorted(us if same else vs, key=_lower_end)
    los = [_lower_end(v) for v in vs]
    if same:
        for i, u in enumerate(vs):
            for v in vs[i + 1:bisect_right(los, u.box.coords[0].hi)]:
                if u.box.intersects(v.box):
                    yield u, v
        return
    w = max((sub_up(v.box.coords[0].hi, v.box.coords[0].lo) for v in vs), default=0.0)
    for u in us:
        x = u.box.coords[0]
        for v in vs[bisect_left(los, sub_down(x.lo, w)):bisect_right(los, x.hi)]:
            if u.box.intersects(v.box):
                yield u, v
