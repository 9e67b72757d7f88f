"""Structural communication checks over a recorded run.

Each check has a stable id (the key a test or CI gate greps for).  The
classification policy encodes one library idiom explicitly: the
fault-tolerant broadcast *deliberately* posts backup isends that are
never waited on and mostly never matched (see
:mod:`repro.collectives.ft`), so never-waited nonblocking leftovers are
**warnings** (``leaked-send`` / ``leaked-recv`` / ``unwaited-handle``)
while leftovers the program synchronised on — a blocking send that
eagerly completed into the void, a wait that can never return — are
**errors** (``unmatched-send`` / ``unmatched-recv``).
"""

from __future__ import annotations

from repro.collectives import COLLECTIVES, SIGNATURE
from repro.verify.recorder import CollectiveGroup, OpRecord, Recorder
from repro.verify.verdict import Finding

#: Check id -> one-line description (the catalogue documented in
#: ``docs/verification.md`` and printed by ``repro verify --list``).
CHECKS: dict[str, str] = {
    "self-send": "a rank posted a blocking send to itself (cannot match)",
    "unmatched-send": "a message was sent (and the sender released) but "
                      "no receive ever consumed it",
    "unmatched-recv": "a receive was posted but no send ever arrived",
    "leaked-send": "a nonblocking send was never matched and never waited "
                   "on (intentional for backup traffic; otherwise a leak)",
    "leaked-recv": "a nonblocking receive was never matched and never "
                   "waited on",
    "unwaited-handle": "a nonblocking operation completed but its handle "
                       "was never waited on",
    "recv-timeout": "a timed receive expired without matching",
    "collective-op-mismatch": "ranks called different operations for the "
                              "same collective slot",
    "collective-root-mismatch": "ranks disagree on the root of a rooted "
                                "collective",
    "collective-arg-mismatch": "ranks disagree on algorithm/segment "
                               "arguments of a collective",
    "collective-comm-mismatch": "ranks announced the same collective slot "
                                "with different memberships",
    "collective-payload-mismatch": "reduction contributions differ in size "
                                   "across ranks",
    "collective-incomplete": "some declared participants never reached a "
                             "collective call",
    "deadlock": "a blocking cycle (or orphaned wait) stopped the run",
    "nondeterminism": "results changed under a legally perturbed delivery "
                      "schedule",
    "rank-failure": "a rank died from an injected fail-stop fault",
    "run-error": "the run raised before completing",
    "collapse-congruence": "the symmetry-collapsed macro engine either "
                           "fell back per-rank or produced stats that "
                           "differ from the per-rank engine's",
}

#: How many example operations a rolled-up finding quotes in detail.
_EXAMPLES = 4


def run_structural_checks(recorder: Recorder,
                          outcome: str = "clean") -> list[Finding]:
    """Evaluate every structural check against a recorded run.

    ``outcome`` is how the run ended: ``"clean"`` (ran to completion),
    ``"deadlock"`` (engine quiescence), or ``"error"`` (some other
    exception).  On ``"error"`` the leftover-operation and
    completeness checks are suppressed — an aborted run legitimately
    strands operations mid-flight, and the run-level finding already
    fails the verdict.
    """
    findings: list[Finding] = []
    for check, message, ranks, detail in recorder.immediate:
        findings.append(Finding(check, "error", message, ranks, detail))

    recorder.reconstruct_matching()

    for key, group in sorted(recorder.collectives.items(),
                             key=lambda kv: (repr(kv[0][0]), kv[0][1])):
        findings.extend(_check_collective(group, outcome))

    if outcome != "error":
        findings.extend(_check_leftovers(recorder))
    findings.extend(_check_timeouts(recorder))
    return findings


def checks_run(outcome: str = "clean") -> tuple[str, ...]:
    """The check ids a structural pass evaluates for ``outcome``."""
    skipped = set()
    if outcome == "error":
        skipped = {"unmatched-send", "unmatched-recv", "leaked-send",
                   "leaked-recv", "unwaited-handle", "collective-incomplete"}
    return tuple(c for c in CHECKS if c not in skipped)


# -- leftover point-to-point operations ------------------------------------


def _check_leftovers(recorder: Recorder) -> list[Finding]:
    buckets: dict[str, list[OpRecord]] = {}
    for chan in recorder.channels.values():
        for op in chan.sends:
            if op.matched:
                if not op.blocking and op.handle is not None and not op.waited:
                    buckets.setdefault("unwaited-handle", []).append(op)
                continue
            if op.blocking or op.waited:
                buckets.setdefault("unmatched-send", []).append(op)
            else:
                buckets.setdefault("leaked-send", []).append(op)
        for op in chan.recvs:
            if op.timed_out or op.matched:
                if (op.matched and not op.blocking and op.handle is not None
                        and not op.waited):
                    buckets.setdefault("unwaited-handle", []).append(op)
                continue
            if op.blocking or op.waited:
                buckets.setdefault("unmatched-recv", []).append(op)
            else:
                buckets.setdefault("leaked-recv", []).append(op)

    severity = {"unmatched-send": "error", "unmatched-recv": "error",
                "leaked-send": "warning", "leaked-recv": "warning",
                "unwaited-handle": "warning"}
    findings = []
    for check in ("unmatched-send", "unmatched-recv", "leaked-send",
                  "leaked-recv", "unwaited-handle"):
        ops = buckets.get(check)
        if ops:
            findings.append(_rollup(check, severity[check], ops))
    return findings


def _posted(op: OpRecord) -> tuple[int, int]:
    """Where ``op`` stands in its rank's program: the order a finding
    lists its examples in, whatever order the run met the channels."""
    return op.rank, op.index


def _rollup(check: str, severity: str, ops: list[OpRecord]) -> Finding:
    ops.sort(key=_posted)
    ranks = tuple(sorted({op.rank for op in ops}))
    examples = [op.describe() for op in ops[:_EXAMPLES]]
    noun = CHECKS[check].split(" (")[0]
    message = f"{len(ops)} operation(s): {noun}"
    if len(ops) == 1:
        message = f"{ops[0].describe()}: {noun}"
    return Finding(check, severity, message, ranks, {
        "count": len(ops),
        "examples": examples,
        "pending": sum(1 for op in ops if not op.resumed),
    })


def _check_timeouts(recorder: Recorder) -> list[Finding]:
    expired = [op for chan in recorder.channels.values()
               for op in chan.recvs if op.timed_out]
    if not expired:
        return []
    expired.sort(key=_posted)
    ranks = tuple(sorted({op.rank for op in expired}))
    return [Finding(
        "recv-timeout", "warning",
        f"{len(expired)} timed receive(s) expired without matching "
        "(expected under fault injection; suspicious otherwise)",
        ranks,
        {"count": len(expired),
         "examples": [op.describe() for op in expired[:_EXAMPLES]]},
    )]


# -- collective consistency -------------------------------------------------


def _check_collective(group: CollectiveGroup, outcome: str) -> list[Finding]:
    findings: list[Finding] = []
    first_rank = group.order[0]
    first = group.by_rank[first_rank]
    slot = {"cid": repr(group.cid), "seq": group.seq, "op": first.op}

    for field, check in SIGNATURE:
        expected = getattr(first, field)
        for rank in group.order[1:]:
            observed = getattr(group.by_rank[rank], field)
            if observed != expected:
                findings.append(Finding(
                    check, "error",
                    f"collective {first.op} (cid={group.cid!r}, "
                    f"seq={group.seq}): rank {rank} announced "
                    f"{field}={observed!r} but rank {first_rank} announced "
                    f"{expected!r}",
                    (first_rank, rank),
                    dict(slot, field=field, expected=repr(expected),
                         observed=repr(observed)),
                ))
                break  # one finding per field is enough

    if COLLECTIVES[first.op].uniform:
        sizes = {r: group.by_rank[r].nbytes for r in group.order}
        if len(set(sizes.values())) > 1:
            findings.append(Finding(
                "collective-payload-mismatch", "error",
                f"collective {first.op} (cid={group.cid!r}, "
                f"seq={group.seq}): contribution sizes differ across ranks "
                f"({_size_summary(sizes)})",
                tuple(sorted(sizes)),
                dict(slot, sizes={str(r): n for r, n in sizes.items()}),
            ))

    if outcome != "error":
        missing = group.missing
        if missing:
            findings.append(Finding(
                "collective-incomplete", "error",
                f"collective {first.op} (cid={group.cid!r}, "
                f"seq={group.seq}): rank(s) "
                f"{sorted(missing)} never made the call "
                f"({len(group.by_rank)}/{len(group.participants)} announced)",
                tuple(sorted(missing)),
                dict(slot, missing=sorted(missing),
                     announced=sorted(group.by_rank)),
            ))
    return findings


def _size_summary(sizes: dict[int, int]) -> str:
    pairs = sorted(sizes.items())
    shown = ", ".join(f"rank {r}: {n}B" for r, n in pairs[:_EXAMPLES])
    if len(pairs) > _EXAMPLES:
        shown += f", +{len(pairs) - _EXAMPLES} more"
    return shown


def finding_for_exception(exc: BaseException) -> Finding | None:
    """Map a run-ending library exception to its finding, if it has one.

    The deadlock case is handled separately (by the diagnoser, which
    produces a richer finding than the exception alone could).
    """
    from repro.errors import (
        CollectiveMismatchError,
        DeadlockError,
        RankFailure,
        ReproError,
    )

    if isinstance(exc, CollectiveMismatchError):
        return Finding(
            exc.check, "error", str(exc), (),
            {"cid": repr(exc.cid), "seq": exc.seq,
             "expected": {k: repr(v) for k, v in exc.expected.items()},
             "observed": {k: repr(v) for k, v in exc.observed.items()},
             "source": "communicator early validation"},
        )
    if isinstance(exc, RankFailure):
        return Finding(
            "rank-failure", "error", str(exc), (exc.rank,),
            {"rank": exc.rank, "time": exc.time, "reason": exc.reason},
        )
    if isinstance(exc, DeadlockError):
        return None  # the diagnoser owns this case
    if isinstance(exc, ReproError):
        return Finding(
            "run-error", "error",
            f"{type(exc).__name__}: {exc}", (),
            {"exception": type(exc).__name__},
        )
    return None
