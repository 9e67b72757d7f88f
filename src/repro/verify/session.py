"""Verification sessions: wire the recorder and checks into a run.

:func:`run_verified` is the one entry point runners use.  With
``verify=None`` it is exactly ``resolve_backend(...).run(programs)`` —
no wrapper, no recorder, bit-identical traces and timings.  With
verification enabled it wraps every rank program, runs the structural
checks at finalize, optionally reruns the program under K perturbed
delivery schedules (:mod:`repro.verify.schedules`), and attaches the
resulting :class:`~repro.verify.verdict.Verdict` to
``SimResult.verdict`` — or to the exception, when the run dies.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable

from repro.errors import (
    ConfigurationError,
    DeadlockError,
    ReproError,
    VerificationError,
)
from repro.simulator.tracing import SimResult
from repro.util.validation import require_positive
from repro.verify.checks import (
    checks_run,
    finding_for_exception,
    run_structural_checks,
)
from repro.verify.deadlock import diagnose_deadlock
from repro.verify.recorder import Recorder
from repro.verify.verdict import Finding, Verdict


@dataclasses.dataclass(frozen=True)
class VerifyOptions:
    """Configuration of one verification pass.

    Attributes
    ----------
    schedules:
        Number of perturbed delivery schedules the determinism harness
        reruns the program under (0 disables the rerun pass; structural
        checks still run).
    strict:
        Raise :class:`~repro.errors.VerificationError` when the verdict
        is not clean, instead of only attaching it to the result.
    seed:
        Base seed of the schedule jitter (schedule ``k`` uses
        ``seed + 1 + k``).
    amplitude:
        Relative wire-time jitter amplitude, finite and positive (each
        edge's transfer time is scaled by a fixed factor in
        ``[1, 1 + amplitude)``).
    """

    schedules: int = 2
    strict: bool = False
    seed: int = 0
    amplitude: float = 0.05

    def __post_init__(self) -> None:
        if (isinstance(self.schedules, bool)
                or not isinstance(self.schedules, int) or self.schedules < 0):
            raise ConfigurationError(
                f"verify schedules must be an int >= 0, got {self.schedules!r}"
            )
        require_positive(self.amplitude, "amplitude")


def coerce_verify(verify: Any) -> VerifyOptions | None:
    """Normalise the ``verify=`` kwarg every runner accepts.

    ``None``/``False`` -> off; ``True`` -> defaults; a
    :class:`VerifyOptions` passes through; a dict is keyword arguments
    for one.
    """
    if verify is None or verify is False:
        return None
    if verify is True:
        return VerifyOptions()
    if isinstance(verify, VerifyOptions):
        return verify
    if isinstance(verify, dict):
        return VerifyOptions(**verify)
    raise ConfigurationError(
        f"verify must be None, a bool, a dict or VerifyOptions; "
        f"got {verify!r}"
    )


class VerifySession:
    """Owns the recorder and verdict of one verified run."""

    def __init__(self, options: VerifyOptions, nranks: int):
        self.options = options
        self.recorder = Recorder(nranks)
        self.meta: dict[str, Any] = {}

    def wrap_programs(self, programs: Iterable) -> list:
        return [self.recorder.wrap(rank, gen)
                for rank, gen in enumerate(programs)]

    def execute(self, engine: Any, programs: Iterable) -> SimResult:
        """Run ``programs`` (wrapped) on ``engine``.

        On a library exception the verdict is finalized from what was
        observed up to the failure, attached to the exception as
        ``exc.verdict``, and the exception re-raised — so even a
        deadlocked run yields the structured diagnosis.
        """
        wrapped = self.wrap_programs(programs)
        # Replay, never step: the recorder credits a replayed
        # broadcast's legs from its schedule (Engine._observed).
        engine._observed = True
        try:
            return engine.run(wrapped)
        except DeadlockError as exc:
            exc.verdict = self.finalize(outcome="deadlock", exc=exc)
            raise
        except ReproError as exc:
            exc.verdict = self.finalize(outcome="error", exc=exc)
            raise
        finally:
            del engine._observed  # a prebuilt engine goes back as it came

    def finalize(self, outcome: str = "clean",
                 exc: BaseException | None = None,
                 schedule_findings: Iterable[Finding] = ()) -> Verdict:
        findings: list[Finding] = []
        if exc is not None:
            if isinstance(exc, DeadlockError):
                findings.append(diagnose_deadlock(exc, self.recorder))
            else:
                mapped = finding_for_exception(exc)
                if mapped is not None:
                    findings.append(mapped)
        findings.extend(run_structural_checks(self.recorder, outcome))
        findings.extend(schedule_findings)
        meta = dict(self.meta)
        meta["outcome"] = outcome
        meta["observed_ops"] = self.recorder.total_ops()
        meta["observed_collectives"] = len(self.recorder.collectives)
        return Verdict(
            findings=findings,
            nranks=self.recorder.nranks,
            checks=checks_run(outcome),
            meta=meta,
        )


def run_verified(
    make_programs: Callable[[], Iterable],
    *,
    verify: Any,
    backend: Any,
    network: Any,
    contention: bool = False,
    collect_trace: bool = False,
    eager_threshold: int = 0,
    faults: Any = None,
    symmetry: Any = None,
    meta: dict | None = None,
) -> SimResult:
    """Execute a rank-program set, optionally under verification.

    ``make_programs`` must return a *fresh* list of rank generators on
    every call — the determinism pass calls it once per schedule.
    ``backend``, ``contention``, ``collect_trace``, ``eager_threshold``,
    ``faults`` and ``symmetry`` go to
    :func:`repro.simulator.backends.resolve_backend` unchanged (a macro
    run that needs its own coster passes a prebuilt
    ``MacroBackend(coster=...)`` as ``backend``).  ``symmetry`` enables
    the macro backend's symmetry-collapsed fast path (bit-identical, see
    :mod:`repro.simulator.collapse`), which engages only on the
    unverified path — the recorder must observe every rank, so a
    verified run always steps per rank.

    With ``verify=None`` this is exactly
    ``resolve_backend(...).run(make_programs())`` (modulo the collapse
    fast path, which is bit-identical by construction); nothing is
    wrapped or recorded and the run reproduces the pre-verifier code
    path.
    """
    from repro.simulator.backends import resolve_backend
    from repro.simulator.engine import Engine

    def build(net: Any, with_faults: Any) -> Any:
        return resolve_backend(
            backend, net,
            contention=contention, collect_trace=collect_trace,
            eager_threshold=eager_threshold,
            faults=with_faults, symmetry=symmetry,
        )

    opts = coerce_verify(verify)
    if opts is None:
        engine = build(network, faults)
        collapse = getattr(engine, "run_with_factory", None)
        if collapse is not None:
            sim = collapse(make_programs)
        else:
            sim = engine.run(make_programs())
        sim.collapse = getattr(engine, "collapse_report", None)
        return sim

    engine = build(network, faults)
    programs = list(make_programs())
    session = VerifySession(opts, len(programs))
    if meta:
        session.meta.update(meta)
    sim = session.execute(engine, programs)
    # The recorder must observe every rank, so verified runs never take
    # the collapse fast path — but the report (with its fallback reason)
    # still surfaces, both on the result and in the verdict meta.
    sim.collapse = getattr(engine, "collapse_report", None)
    if sim.collapse is not None:
        session.meta["collapse"] = sim.collapse

    schedule_findings: list[Finding] = []
    if opts.schedules:
        if isinstance(backend, Engine):
            # A prebuilt engine is bound to its own network; there is
            # no way to rebuild it around a jittered one.
            session.meta["schedules_skipped"] = (
                "prebuilt engine backend cannot be rebuilt with a "
                "jittered network"
            )
        else:
            from repro.verify.schedules import check_schedules

            def rerun(net: Any) -> Any:
                # Faults off: drops/degradation only move virtual time,
                # never numerics, so the fault-free rerun must still
                # reproduce the baseline bit-for-bit.  Nothing watches
                # it, so it replays and steps as an unverified run does.
                return build(net, None).run(make_programs()).return_values

            schedule_findings = check_schedules(
                rerun, network,
                schedules=opts.schedules,
                seed=opts.seed,
                amplitude=opts.amplitude,
                baseline=sim.return_values,
                label="return values",
            )
            session.meta["schedules"] = opts.schedules

    verdict = session.finalize(outcome="clean",
                               schedule_findings=schedule_findings)
    sim.verdict = verdict
    if opts.strict and not verdict.ok:
        raise VerificationError(verdict)
    return sim
