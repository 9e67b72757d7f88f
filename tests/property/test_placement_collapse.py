"""Symmetry collapse under a coster priced by placement.

``TopologyCoster`` prices a communicator by
``network.placement_key(participants)`` and never reads the root or the
cid (``placement_invariant``).  The collapsed macro engine runs it when
the family enumerates its communicators, every equivalence class sits
on one placement key (checked up front, before a program is built) and
every communicator the probe observes is a declared one (checked en
route).  The tier conformance harness (``test_conformance.py``) draws
collapsed == per-rank on the torus and the switched cluster for every
row, and its table of fixed runs pins it on a ``Torus3D`` for SUMMA,
for HSUMMA and block-cyclic SUMMA over every group grid of 32 ranks
and for a hierarchy with a trivial top level.  Here, the placement
contracts of the families that enumerate their communicators:

* **Classes of one family on different placements** are priced apart
  and still collapse.
* **Refusals are named and cheap.**  A class split across placements
  stays per rank under its own reason without building the collapsed
  engine; a declaration whose members do not match the program breaks
  en route and falls back to the same numbers.
* **The probe shrinks to one row plus one group of columns** for
  HSUMMA and hierarchical cyclic with ``J > 1``: ``t + (t/J)(s-1)``
  ranks.
"""

import dataclasses
import functools

import pytest

from repro.core.cyclic import run_cyclic
from repro.core.hsumma import run_hsumma
from repro.core.summa import run_summa
from repro.simulator.costers import MicroDesCoster, TopologyCoster
from repro.network.model import HockneyParams
from repro.network.torus import Torus3D
from repro.network.tree import SwitchedCluster
from repro.payloads import PhantomArray
from repro.platforms.bluegene import BGP_PARAMS, bluegene_p
from repro.platforms.grid5000 import grid5000_graphene
from repro.simulator import collapse
from repro.simulator.backends import MacroBackend
from repro.simulator.collapse import summa_symmetry
from tests.pins import assert_identical

GAMMA = 1e-10
SPLIT = "a communicator class spans several placements"

#: BG/P VN-mode tori (four ranks a node) and a one-rank-a-node torus.
TORI = [bluegene_p(p).network(p) for p in (16, 32, 64)] + [
    Torus3D((4, 4, 2), BGP_PARAMS)]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _run_pair(runner, net, symmetry, bcast):
    """``runner`` on a per-rank and on a collapsible macro backend, both
    priced by their own ``TopologyCoster``; the two sims and the
    collapsible backend's report."""
    ref = MacroBackend(net, coster=TopologyCoster(net, bcast))
    col = MacroBackend(net, coster=TopologyCoster(net, bcast),
                       symmetry=symmetry)
    _, sim_ref = runner(network=net, backend=ref)
    _, sim_col = runner(network=net, backend=col)
    return sim_ref, sim_col, col.collapse_report


def test_classes_of_one_family_on_different_placements_are_priced_apart():
    # Three nodes a switch under a 6x4 grid: rows 0, 1 and 2 meet the
    # switch boundaries in three ways and rows 3-5 repeat them, so the
    # inner-row classes ii = i mod 3 each sit on one placement of their
    # own.  A duration memo keyed on the size alone would price all
    # three alike.
    net = SwitchedCluster(nnodes=24, nodes_per_switch=3,
                          params=HockneyParams(alpha=1e-4, beta=1e-9))
    sym = summa_symmetry(6, 4, (2, 3), (1, 4))
    placements = sym.placed(net).placements
    keys = {pkey for (child, _), (pkey, _) in placements.items() if child == 4}
    assert len(keys) == 3
    sim_ref, sim_col, report = _run_pair(
        lambda **kw: run_hsumma(
            PhantomArray((24, 48)), PhantomArray((48, 24)), grid=(6, 4),
            groups=(2, 1), outer_block=2, gamma=GAMMA, **kw),
        net, sym, "binomial")
    assert report["mode"] == "collapsed", report
    assert_identical(sim_col, sim_ref)


class TestRefusals:

    def test_grid5000_rows_on_several_placements_are_refused_up_front(
            self, monkeypatch):
        # 128 ranks, 20 nodes a switch: the 16-wide grid rows straddle
        # switch boundaries in four different ways.
        built = []
        monkeypatch.setattr(
            collapse.CollapsedMacroEngine, "__init__",
            lambda self, *a, **kw: built.append(1))
        net = grid5000_graphene(128).network(128)
        assert TopologyCoster(net, "vandegeijn").placement_invariant
        A = PhantomArray((128, 128))
        sim_ref, sim, report = _run_pair(
            lambda **kw: run_summa(A, A, grid=(8, 16), block=8, gamma=GAMMA,
                                   **kw),
            net, summa_symmetry(8, 16), "vandegeijn")
        assert report == {"mode": "per-rank", "reason": SPLIT}
        assert built == []
        assert_identical(sim, sim_ref)

    def test_the_micro_des_coster_stays_per_rank_off_uniform_networks(self):
        # It reads the root on a topology, so it is not placement
        # invariant, whatever the placements.
        net = TORI[0]
        col = MacroBackend(net, coster=MicroDesCoster(net, "binomial"),
                           symmetry=summa_symmetry(4, 4))
        A = PhantomArray((16, 16))
        run_summa(A, A, grid=(4, 4), block=4, network=net, backend=col,
                  gamma=GAMMA)
        assert col.collapse_report == {
            "mode": "per-rank",
            "reason": "coster depends on participant identity"}

    def test_undeclared_communicators_keep_a_placement_coster_per_rank(self):
        net = TORI[0]
        sym = dataclasses.replace(summa_symmetry(4, 4), communicators=None)
        col = MacroBackend(net, coster=TopologyCoster(net), symmetry=sym)
        A = PhantomArray((16, 16))
        run_summa(A, A, grid=(4, 4), block=4, network=net, backend=col,
                  gamma=GAMMA)
        assert col.collapse_report["reason"] == (
            "coster depends on participant identity")

    @pytest.mark.parametrize("family", ["summa", "hsumma"])
    def test_misordered_members_break_en_route_with_the_same_numbers(
            self, family):
        # Reversed member tuples still put every class on one placement
        # key, so the up-front check passes; the program's communicators
        # are not the declared ones, and the probe notices.
        net = TORI[2]
        A, B = PhantomArray((64, 128)), PhantomArray((128, 64))
        if family == "summa":
            sym = summa_symmetry(8, 8)
            runner = functools.partial(run_summa, A, B, grid=(8, 8), block=4,
                                       gamma=GAMMA)
        else:
            sym = summa_symmetry(8, 8, (2, 4), (4, 2))
            runner = functools.partial(
                run_hsumma, A, B, grid=(8, 8), groups=(2, 4), outer_block=8,
                inner_block=4, gamma=GAMMA)
        declared = sym.communicators
        misordered = dataclasses.replace(sym, communicators=lambda: (
            (ckey, members[::-1]) for ckey, members in declared()))
        assert misordered.placed(net) is not None
        sim_ref, sim_col, report = _run_pair(runner, net, misordered,
                                             "binomial")
        assert report["mode"] == "per-rank"
        assert "is not one the symmetry declares" in report["reason"]
        assert_identical(sim_col, sim_ref)


SWEEP = [(s, t, I, J) for s in (2, 4, 8) for t in (2, 4, 8)
         for I in _divisors(s) for J in _divisors(t)]


def _probed(s, t, I, J):
    """One grid row plus ``t/J`` columns when ``J > 1``; otherwise, as
    before, ``s/I`` whole rows plus column 0 (a cross when ``I = 1``)."""
    if J > 1:
        return t + (t // J) * (s - 1)
    rows = s // I if I > 1 else 1
    return rows * t + s - rows


@pytest.mark.parametrize("family", ["hsumma", "cyclic"])
def test_one_row_and_one_group_of_columns_are_probed(family):
    macro = {"params": HockneyParams(alpha=1e-4, beta=1e-9),
             "gamma": GAMMA, "backend": "macro"}
    for s, t, I, J in SWEEP:
        if family == "hsumma":
            _, sim = run_hsumma(
                PhantomArray((s * t, 2 * s * t)),
                PhantomArray((2 * s * t, s * t)),
                grid=(s, t), groups=(I, J), outer_block=2, **macro)
        else:
            _, sim = run_cyclic(
                PhantomArray((s, s * t)), PhantomArray((s * t, t)),
                grid=(s, t), nb=1, groups=(I, J), **macro)
        assert sim.collapse == {
            "mode": "collapsed", "probed": _probed(s, t, I, J),
            "ranks": s * t}, (s, t, I, J)
