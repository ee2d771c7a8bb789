import json
import math
import random

import pytest
from corpus import branch_point, random_planted_branch_family
from oracles import residual_inf

from fpcert import catalog, continuation
from fpcert.cli import main
from fpcert.continuation import Slab, _glue, _touching_pairs, trace_continuum
from fpcert.interval import Box, Interval
from fpcert.localize import PROVEN, Enclosure
from fpcert.mapdsl import parse_map


def xbox():
    return Box.from_bounds([(-1, 2)])


def test_linear_family_complete_chain():
    psi = parse_map("dim 1\nparam t\nmap g1 = (x1 + t)/2\n")
    wit = trace_continuum(psi, (0, 1), xbox(), grid=16, tol=1e-3)
    assert wit.complete
    chain = wit.chain_slabs()
    # chain follows x = t: every element's box hugs its parameter interval
    for slab in chain:
        c = slab.box.coords[0]
        assert c.lo <= slab.t.hi + 2e-3 and c.hi >= slab.t.lo - 2e-3
    cells = {slab.cell for slab in chain}
    assert cells == set(range(16))  # t-projection covers [0, 1]
    assert chain[0].t.lo == 0.0 and chain[-1].t.hi == 1.0


def test_constant_family():
    psi = parse_map("dim 1\nparam t\nmap g1 = t\n")
    wit = trace_continuum(psi, (0, 1), xbox(), grid=16, tol=1e-3)
    assert wit.complete


def test_translation_family_breaks_immediately():
    psi = parse_map("dim 1\nparam t\nmap g1 = x1 + 1\n")
    wit = trace_continuum(psi, (0, 1), xbox(), grid=8, tol=1e-3)
    assert not wit.complete
    assert wit.max_t_reached == 0.0
    assert wit.chain == []


def test_chain_overlap_invariant():
    psi = parse_map("dim 1\nparam t\nmap g1 = (x1 + t)/2\n")
    wit = trace_continuum(psi, (0, 1), xbox(), grid=8, tol=1e-3)
    chain = wit.chain_slabs()
    for s1, s2 in zip(chain, chain[1:]):
        assert abs(s1.cell - s2.cell) <= 1
        assert s1.box.intersects(s2.box)
        # overlap as point sets in (t, x): t ranges meet too
        assert s1.t.intersects(s2.t)


def test_witness_soundness_residuals():
    # sanity, not rigor: each chain element's enclosure midpoint is a near
    # fixed point for some parameter inside the slab's own t-interval
    psi = parse_map("dim 1\nparam t\nmap g1 = (x1 + t)/2\n")
    tol = 1e-3
    wit = trace_continuum(psi, (0, 1), xbox(), grid=16, tol=tol)
    for slab in wit.chain_slabs():
        x_mid = slab.box.midpoint()
        best = min(
            max(abs(g - x) for g, x in zip(psi.eval_real(x_mid, t=t), x_mid))
            for t in (slab.t.lo + k * (slab.t.hi - slab.t.lo) / 32 for k in range(33))
        )
        assert best <= 10 * tol


def test_grid_ends_at_the_range_end():
    # a + (b - a) * 16 / 16 rounds to 0.8999999999999999 for (0.2, 0.9).
    psi = parse_map("dim 1\nparam t\nmap g1 = (x1 + t)/2\n")
    wit = trace_continuum(psi, (0.2, 0.9), xbox(), grid=16, tol=1e-3)
    assert wit.t_grid[-1] == 0.9
    assert wit.complete and wit.max_t_reached == 0.9
    assert wit.chain_slabs()[-1].t.hi == 0.9
    assert max(s.t.hi for s in wit.slabs) == 0.9


@pytest.mark.parametrize("grid", [4, 7])
def test_grid_of_a_range_whose_width_times_j_overflows(grid):
    # b - a is finite, but (b - a) * j overflows for j >= 2.
    a, b = -6e307, 6e307
    psi = parse_map("dim 1\nparam t\nmap g1 = (x1 + t)/2\n")
    ts = trace_continuum(psi, (a, b), xbox(), grid=grid, tol=1e-3).t_grid
    assert len(ts) == grid + 1 and ts[0] == a and ts[-1] == b
    assert all(math.isfinite(t) for t in ts)
    assert all(s < t for s, t in zip(ts, ts[1:])), ts


def test_grid_refinement_monotone():
    for src in (
        "dim 1\nparam t\nmap g1 = (x1 + t)/2\n",
        "dim 1\nparam t\nmap g1 = t\n",
    ):
        psi = parse_map(src)
        for grid in (4, 8):
            assert trace_continuum(psi, (0, 1), xbox(), grid=grid, tol=1e-3).complete
            assert trace_continuum(psi, (0, 1), xbox(), grid=2 * grid, tol=1e-3).complete


def test_start_index_check():
    psi = parse_map("dim 1\nparam t\nmap g1 = (x1 + t)/2\n")
    wit = trace_continuum(psi, (0, 1), xbox(), grid=4, tol=1e-3,
                          check_start_index=True)
    assert wit.start_index == 1


def test_start_index_check_in_2d_takes_the_winding_walk():
    # Id - psi(0, .) = (t - x1, x2/2) at t = 0 turns once clockwise.
    psi = parse_map("dim 2\nparam t\nmap g1 = 2*x1 - t\nmap g2 = x2/2\n")
    wit = trace_continuum(psi, (0, 1), Box.from_bounds([(-1, 2), (-1, 1)]), grid=4,
                          tol=1e-2, check_start_index=True)
    assert wit.proven and wit.start_index == -1


def test_start_index_is_none_where_the_start_map_raises():
    # 1/t divides by [0, 0] at the start of the range.
    psi = parse_map("dim 1\nparam t\nmap g1 = x1/2 + 1/t\n")
    wit = trace_continuum(psi, (0, 1), xbox(), grid=4, tol=1e-2, check_start_index=True)
    assert wit.start_index is None


def test_cli_trace_reports_the_start_index(capsys):
    assert main(["trace", "@trace-linear", "--check-start-index", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["start_index"] == 1


@pytest.mark.parametrize("entry_id, proven", [
    ("trace-linear", True), ("trace-constant", True), ("trace-translation", False)])
def test_catalog_families_report_proven_branches(capsys, entry_id, proven):
    argv = ["trace", "@" + entry_id]
    for key, value in catalog.CATALOG[entry_id].kwargs.items():
        argv += [f"--{key}", str(value)]
    assert main(argv + ["--format", "json"]) == (0 if proven else 1)
    payload = json.loads(capsys.readouterr().out)
    assert payload["proven"] is proven and payload["complete"] is proven
    main(argv)
    assert f"proven: {proven}" in capsys.readouterr().out.splitlines()


def test_proven_chain_is_one_proven_slab_per_cell():
    # x = t moves 1/16 across each cell: its proven slabs are that wide,
    # far above tol, and each lies in the next one's uniqueness box.
    psi = parse_map("dim 1\nparam t\nmap g1 = (x1 + t)/2\n")
    wit = trace_continuum(psi, (0, 1), xbox(), grid=16, tol=1e-3)
    assert wit.proven and len(wit.slabs) == 16
    chain = wit.chain_slabs()
    assert [s.cell for s in chain] == list(range(16))
    assert all(s.status == PROVEN and s.box.is_subset(s.unique) for s in chain)
    assert all(_glue(u, v) for u, v in zip(chain, chain[1:]))
    assert all(s.box.width > 0.06 for s in chain)


def test_fold_family_has_no_proven_branch():
    # x = x^2 + t - 1/4 has the two fixed points (1 +- sqrt(2 - 4t))/2,
    # which meet at the fold t = 1/2 and vanish past it.
    psi = parse_map("dim 1\nparam t\nmap g1 = x1*x1 + t - 0.25\n")
    wit = trace_continuum(psi, (0, 1), xbox(), grid=16, tol=1e-3)
    assert not wit.complete and not wit.proven
    assert wit.max_t_reached == 0.5625
    assert wit.to_json_dict()["proven"] is False


def test_planted_branches_lie_in_proven_slabs():
    rng = random.Random(2024)
    for k in range(24):
        m, coeffs, box = random_planted_branch_family(rng, 1 + k % 2)
        grid = 8 if k % 3 else 16
        wit = trace_continuum(m, (0, 1), box, grid=grid, tol=1e-3 if m.dim == 1 else 0.05)
        assert wit.proven and wit.complete, m.to_source()
        for cell in range(grid):
            proven = [s for s in wit.slabs if s.cell == cell and s.status == PROVEN]
            assert len(proven) == 1, (m.to_source(), cell)
            slab = proven[0]
            assert wit.chain_slabs()[cell] is slab
            for j in range(9):
                t = slab.t.lo + j * (slab.t.hi - slab.t.lo) / 8
                p = branch_point(coeffs, t)
                assert residual_inf(m, p, t) <= 1e-12
                # The literals are decimals: the float branch may sit an ulp off.
                assert all(c.lo - 1e-12 <= v <= c.hi + 1e-12
                           for c, v in zip(slab.box.coords, p)), (m.to_source(), t)


def test_shrunk_uniqueness_boxes_break_the_glue(monkeypatch):
    psi = parse_map("dim 1\nparam t\nmap g1 = (x1 + t)/2\n")
    u, v = trace_continuum(psi, (0, 1), xbox(), grid=4, tol=1e-3).chain_slabs()[:2]
    assert _glue(u, v)
    # Off the neighbour's enclosure, each box proves nothing about it.
    u_cut, v_cut = (Slab(s.id, s.cell, s.t, s.box, s.status, s.box) for s in (u, v))
    assert _glue(u_cut, v) or _glue(u, v_cut)
    assert not _glue(u_cut, v_cut)
    assert not _glue(Slab(u.id, u.cell, u.t, u.box, u.status, None), v)

    localize = continuation.localize_fixed_points

    def shrunk(*args, **kwargs):
        res = localize(*args, **kwargs)
        res.enclosures = [Enclosure(e.box, e.status, e.residual,
                                    None if e.unique is None else e.box)
                          for e in res.enclosures]
        return res

    monkeypatch.setattr(continuation, "localize_fixed_points", shrunk)
    wit = trace_continuum(psi, (0, 1), xbox(), grid=4, tol=1e-3)
    assert wit.complete and not wit.proven


def test_requires_parametrized_map():
    with pytest.raises(ValueError):
        trace_continuum(parse_map("dim 1\nmap g1 = x1\n"), (0, 1), xbox())


@pytest.mark.parametrize("t_range, grid, message", [
    ((0, 1), 0, "grid must be at least 1"),
    ((0.5, 0.5), 4, "parameter range must have positive width"),
    ((1, 0), 4, "parameter range must have positive width"),
])
def test_refuses_an_empty_grid_or_range(t_range, grid, message):
    psi = parse_map("dim 1\nparam t\nmap g1 = (x1 + t)/2\n")
    with pytest.raises(ValueError) as exc:
        trace_continuum(psi, t_range, xbox(), grid=grid)
    assert str(exc.value) == message


def _random_slabs(rng, dim, n, first_id, cuts):
    """n slabs whose box corners are drawn from a few shared cut values, so
    faces coincide and lower corners repeat; one slab is wide, as a cell's
    unprocessed root is when its budget runs out."""
    slabs = []
    for k in range(n):
        bounds = []
        for _ in range(dim):
            i = rng.randrange(len(cuts) - 1)
            j = min(len(cuts) - 1, i + rng.choice((1, 1, 2, 3)))
            bounds.append((cuts[i], cuts[j]))
        if k == 0:
            bounds[0] = (cuts[0], cuts[-1])
        slabs.append(Slab(first_id + k, 0, Interval(0.0), Box.from_bounds(bounds), "CANDIDATE",
                          None))
    rng.shuffle(slabs)
    return slabs


def test_sweep_links_exactly_the_intersecting_pairs():
    rng = random.Random(12)
    touching = equal_corners = 0
    for case in range(300):
        dim = rng.choice((1, 2, 3))
        if case % 2:
            cuts = sorted({round(rng.uniform(-2.0, 2.0), 3) for _ in range(12)})
        else:
            cuts = sorted({rng.uniform(-2.0, 2.0) for _ in range(12)})
        us = _random_slabs(rng, dim, rng.randrange(0, 25), 0, cuts)
        vs = _random_slabs(rng, dim, rng.randrange(0, 25), 100, cuts)
        same = list(_touching_pairs(us))
        assert len(same) == len({frozenset((u.id, v.id)) for u, v in same})
        assert {frozenset((u.id, v.id)) for u, v in same} == {
            frozenset((u.id, v.id)) for u in us for v in us
            if u.id < v.id and u.box.intersects(v.box)
        }
        across = [(u.id, v.id) for u, v in _touching_pairs(us, vs)]
        assert sorted(across) == sorted(
            (u.id, v.id) for u in us for v in vs if u.box.intersects(v.box)
        )
        for u, v in same:
            touching += any(a.hi == b.lo or b.hi == a.lo
                            for a, b in zip(u.box.coords, v.box.coords))
            equal_corners += u.box.coords[0].lo == v.box.coords[0].lo
    assert touching > 100 and equal_corners > 100


def test_sweep_window_is_rounded_outward():
    # fl(u.lo - fl(v.hi - v.lo)) lies above v.lo here, so a window rounded
    # to nearest would miss v, which touches u at 35.18...
    v = Slab(0, 0, Interval(0.0), Box.from_bounds([(-4.83958426667953e-12, 35.18167389270949)]),
             "CANDIDATE", None)
    u = Slab(1, 1, Interval(0.0), Box.from_bounds([(35.18167389270949, 40.0)]), "CANDIDATE",
             None)
    assert [(a.id, b.id) for a, b in _touching_pairs([u], [v])] == [(1, 0)]
