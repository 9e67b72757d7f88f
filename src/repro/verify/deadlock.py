"""Deadlock diagnosis: from "it stopped" to *why* it stopped.

The engine's quiescence check names the blocked ranks; this module
turns that into a wait-for graph (who is waiting on whom, derived from
the recorder's unmatched-operation state), extracts a minimal blocking
cycle when one exists, and falls back to orphaned-wait chains (a rank
waiting on a peer that already finished — the signature of a dropped
send or receive) when the stall is acyclic.
"""

from __future__ import annotations

from typing import Any

from repro.errors import DeadlockError
from repro.simulator.requests import (
    CollectiveRequest,
    RecvRequest,
    RequestHandle,
    SendRecvRequest,
    SendRequest,
)
from repro.verify.recorder import Recorder
from repro.verify.verdict import Finding


def diagnose_deadlock(exc: DeadlockError, recorder: Recorder) -> Finding:
    """Build the structured ``deadlock`` finding for a quiesced run."""
    recorder.reconstruct_matching()
    blocked = dict(exc.blocked)
    pending = recorder.pending_ops()
    edges: dict[int, tuple[int, ...]] = {}
    waits: dict[int, str] = {}
    for rank in sorted(blocked):
        request = pending.get(rank)
        peers = _edges_for(rank, request, recorder)
        if not peers:
            peer = blocked[rank].get("peer")
            if peer is not None:
                peers = (peer,)
        edges[rank] = peers
        waits[rank] = _describe_wait(rank, request, blocked[rank], recorder)

    cycle = _shortest_cycle(edges)
    detail: dict[str, Any] = {
        "blocked": {str(r): dict(blocked[r], on=waits[r])
                    for r in sorted(blocked)},
        "wait_for": {str(r): list(p) for r, p in edges.items()},
    }

    if cycle:
        detail["cycle"] = cycle
        arrows = " -> ".join(str(r) for r in cycle + [cycle[0]])
        legs = "; ".join(waits[r] for r in cycle)
        return Finding(
            "deadlock", "error",
            f"blocking cycle {arrows}: {legs}",
            tuple(cycle),
            detail,
        )

    orphans = _orphan_waits(edges, set(blocked), recorder)
    if orphans:
        detail["orphans"] = [[r, p] for r, p in orphans]
        r, p = orphans[0]
        state = "finished" if recorder.ranks[p].finished else "not blocked"
        hint = (f"rank {r} waits on rank {p}, which {state} — "
                "likely a dropped or mis-addressed send/recv")
    else:
        hint = "no blocking cycle found; see per-rank pending operations"
    legs = "; ".join(waits[r] for r in sorted(blocked)[:6])
    more = "" if len(blocked) <= 6 else f" (+{len(blocked) - 6} more)"
    return Finding(
        "deadlock", "error",
        f"{len(blocked)} rank(s) stalled without a cycle: {hint} "
        f"[{legs}{more}]",
        tuple(sorted(blocked)),
        detail,
    )


def _edges_for(rank: int, request: Any, recorder: Recorder) -> tuple[int, ...]:
    """World ranks ``rank`` is transitively waiting on, from its pending
    request.  At quiescence every matched transfer has completed, so a
    still-blocked operation is necessarily unmatched — the edge target
    is simply the operation's peer."""
    if request is None:
        return ()
    cls = request.__class__
    if cls is SendRequest:
        return (request.dst,)
    if cls is RecvRequest:
        return (request.src,)
    if cls is SendRecvRequest:
        return _fused_edges(rank, request, recorder)
    if cls is RequestHandle:
        return _handle_edges(rank, (request,), recorder)
    if cls is tuple and len(request) == 2:
        a, b = request
        if a.__class__ is RequestHandle and b.__class__ is RequestHandle:
            return _handle_edges(rank, (a, b), recorder)
        return ()
    if cls is CollectiveRequest:
        key = (request.cid, request.seq)
        group = recorder.collectives.get(key)
        if group is not None:
            return tuple(group.missing)
        return ()
    return ()


def _fused_edges(rank: int, request: SendRecvRequest,
                 recorder: Recorder) -> tuple[int, ...]:
    peers = []
    chan = recorder.channels.get((rank, request.dst, request.sendtag))
    if chan is not None and chan.sends and not chan.sends[-1].matched:
        peers.append(request.dst)
    chan = recorder.channels.get((request.src, rank, request.recvtag))
    if chan is not None and chan.recvs and not chan.recvs[-1].matched:
        peers.append(request.src)
    return tuple(peers)


def _handle_edges(rank: int, handles: tuple, recorder: Recorder
                  ) -> tuple[int, ...]:
    peers = []
    for handle in handles:
        if getattr(handle, "done", False):
            continue
        op = recorder.op_for_handle(rank, handle)
        if op is not None and not op.matched:
            peers.append(op.peer)
    return tuple(peers)


def _describe_wait(rank: int, request: Any, info: dict,
                   recorder: Recorder) -> str:
    if request is not None:
        if request.__class__ is RequestHandle:
            op = recorder.op_for_handle(rank, request)
            if op is not None:
                return f"rank {rank} waits on {op.describe()[len(f'rank {rank}: '):]}"
        return f"rank {rank} blocked in {request!r}"
    return f"rank {rank} blocked in {info.get('repr', '?')}"


def _shortest_cycle(edges: dict[int, tuple[int, ...]]) -> list[int]:
    """Shortest directed cycle through the wait-for graph (BFS from each
    node; graphs here have at most a few thousand nodes and out-degree
    of 1-2, so this stays cheap)."""
    best: list[int] = []
    for start in edges:
        # BFS for a path start -> ... -> start.
        parents: dict[int, int] = {}
        frontier = [start]
        seen = {start}
        found = False
        while frontier and not found:
            nxt = []
            for node in frontier:
                for peer in edges.get(node, ()):
                    if peer == start:
                        # Reconstruct start -> ... -> node, cycle closes.
                        path = [node]
                        while path[-1] != start:
                            path.append(parents[path[-1]])
                        path.reverse()
                        if not best or len(path) < len(best):
                            best = path
                        found = True
                        break
                    if peer not in seen and peer in edges:
                        seen.add(peer)
                        parents[peer] = node
                        nxt.append(peer)
                if found:
                    break
            frontier = nxt
        if len(best) == 2:
            break  # no shorter cycle exists in a graph without self-loops
    # Canonicalise: start the cycle at its smallest rank.
    if best:
        pivot = best.index(min(best))
        best = best[pivot:] + best[:pivot]
    return best


def _orphan_waits(edges: dict[int, tuple[int, ...]], blocked: set[int],
                  recorder: Recorder) -> list[tuple[int, int]]:
    """(waiter, target) pairs where the target is not itself blocked."""
    orphans = []
    for rank in sorted(edges):
        for peer in edges[rank]:
            if peer not in blocked and 0 <= peer < recorder.nranks:
                orphans.append((rank, peer))
    return orphans
