"""The verification corpus: every shipped algorithm as a runnable case.

Each :class:`CorpusCase` wraps one runner in a small, fast
configuration and executes it with the verifier enabled.  The corpus is
what ``hsumma verify`` and the CI verify job run: it asserts that the
whole algorithm zoo — SUMMA, HSUMMA (two-level and multilevel), the
overlap schedules, block-cyclic, Cannon, Fox, the 3-D and 2.5D
algorithms, heterogeneous 1-D SUMMA, the LU/QR factorizations, and the
segmented broadcast family (pipelined tree, 4-color ring,
hyper-systolic ring) — passes every structural check and the
K-schedule determinism harness.  The ``*-collapsed`` cases pin the
symmetry-collapsed macro engine's congruence contract instead
(collapse engages and replays the per-rank engine bit-identically);
they run without the recorder, which is a collapse blocker by design.

The sizes are deliberately tiny (tens of rows, single-digit grids):
the verifier checks communication *structure*, which does not depend on
matrix size, and the corpus must stay cheap enough to run on every CI
push.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.verify.session import VerifyOptions, coerce_verify
from repro.verify.verdict import Verdict


@dataclasses.dataclass(frozen=True)
class CorpusCase:
    """One verifiable configuration of a shipped algorithm."""

    name: str
    run: Callable[[Any], Verdict]
    description: str = ""


def _matrices(n: int = 24, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _multiply_case(name: str, description: str, **kwargs: Any) -> CorpusCase:
    def run(verify: Any) -> Verdict:
        from repro.core.api import multiply

        A, B = _matrices()
        result = multiply(A, B, verify=verify, **kwargs)
        return result.sim.verdict

    return CorpusCase(name=name, run=run, description=description)


def _multilevel_case() -> CorpusCase:
    def run(verify: Any) -> Verdict:
        from repro.core.hsumma import run_hsumma_multilevel

        A, B = _matrices(32)
        _, sim = run_hsumma_multilevel(
            A, B, grid=(4, 4), row_factors=(2, 2), col_factors=(2, 2),
            blocks=(8, 4), verify=verify,
        )
        return sim.verdict

    return CorpusCase(
        name="hsumma-multilevel",
        run=run,
        description="two-level hierarchy (2x2 groups) on a 4x4 grid",
    )


def _hetero_case() -> CorpusCase:
    def run(verify: Any) -> Verdict:
        from repro.hetero.summa1d import run_hetero_summa1d

        A, B = _matrices()
        _, sim = run_hetero_summa1d(
            A, B, speeds=[1.0, 2.0, 1.0, 4.0], block=6, groups=2,
            verify=verify,
        )
        return sim.verdict

    return CorpusCase(
        name="hetero-summa1d",
        run=run,
        description="heterogeneous 1-D SUMMA, grouped broadcasts",
    )


def _lu_case() -> CorpusCase:
    def run(verify: Any) -> Verdict:
        from repro.factorization.lu import run_block_lu

        A, _ = _matrices()
        M = A @ A.T + A.shape[0] * np.eye(A.shape[0])
        _, _, sim = run_block_lu(M, grid=(2, 2), block=6, groups=(2, 2),
                                 verify=verify)
        return sim.verdict

    return CorpusCase(name="lu", run=run,
                      description="hierarchical block LU on a 2x2 grid")


def _qr_case() -> CorpusCase:
    def run(verify: Any) -> Verdict:
        from repro.factorization.qr import run_block_qr

        A, _ = _matrices()
        _, sim = run_block_qr(A, grid=(2, 2), block=6, verify=verify)
        return sim.verdict

    return CorpusCase(name="qr", run=run,
                      description="blocked Householder QR on a 2x2 grid")


def _collapsed_case(name: str, description: str, family_name: str,
                    **shape: Any) -> CorpusCase:
    """Run one table family through the symmetry-collapsed macro engine
    and through the per-rank engine, and render the congruence
    contract — collapse actually engaged, per-rank stats
    bit-identical — as a verdict.

    These cases do not use the message recorder (collapse and
    verification are mutually exclusive by design: the recorder must
    watch every rank, which is a collapse blocker); the structural
    property they pin is the congruence itself.
    """
    def run(verify: Any) -> Verdict:
        from repro.core.launch import Shape, family, launch
        from repro.network.homogeneous import HomogeneousNetwork
        from repro.network.model import HockneyParams
        from repro.payloads import PhantomArray
        from repro.simulator.backends import MacroBackend
        from repro.verify.verdict import Finding

        n = 24
        A, B = PhantomArray((n, n)), PhantomArray((n, n))
        row = family(family_name)
        _, cfg = row.configure(n, n, n, Shape(**shape))
        nranks = row.layout(cfg).nranks
        net = HomogeneousNetwork(nranks, HockneyParams(1e-4, 1e-9))
        col = MacroBackend(net, symmetry=row.symmetry(cfg))
        _, sim_col = launch(row, cfg, A, B, network=net, gamma=1e-10,
                            backend=col)
        ref = MacroBackend(net)
        _, sim_ref = launch(row, cfg, A, B, network=net, gamma=1e-10,
                            backend=ref)

        findings = []
        report = col.collapse_report or {}
        if report.get("mode") != "collapsed":
            findings.append(Finding(
                check="collapse-congruence", severity="error",
                message=f"collapse did not engage: {report!r}",
                detail=dict(report),
            ))
        diverged = [
            a.rank for a, b in zip(sim_col.stats, sim_ref.stats)
            if (a.clock, a.comm_time, a.compute_time,
                a.messages_sent, a.bytes_sent)
            != (b.clock, b.comm_time, b.compute_time,
                b.messages_sent, b.bytes_sent)
        ]
        if diverged:
            findings.append(Finding(
                check="collapse-congruence", severity="error",
                message=f"{len(diverged)} rank(s) diverged from the "
                        "per-rank engine",
                ranks=tuple(diverged[:8]),
            ))
        if not findings:
            findings.append(Finding(
                check="collapse-congruence", severity="info",
                message=f"probed {report.get('probed')} of "
                        f"{report.get('ranks')} ranks, bit-identical",
                detail=dict(report),
            ))
        clean = not any(f.severity == "error" for f in findings)
        # observed_ops counts the congruence comparisons: one five-field
        # stat record per rank, collapsed vs per-rank.
        return Verdict(findings=findings, nranks=nranks,
                       checks=("collapse-congruence",),
                       meta={"backend": "macro+collapse",
                             "runner": family_name,
                             "outcome": "clean" if clean else "error",
                             "observed_ops": len(sim_ref.stats)})

    return CorpusCase(name=name, run=run, description=description)


def _ft_bcast_case() -> CorpusCase:
    def run(verify: Any) -> Verdict:
        from repro.simulator.runtime import run_spmd

        def program(ctx):
            def gen():
                payload = np.arange(8.0) if ctx.world.rank == 0 else None
                out = yield from ctx.world.bcast(payload, root=0)
                total = yield from ctx.world.allreduce(float(out.sum()))
                return total
            return gen()

        sim = run_spmd(program, 4, verify=verify)
        return sim.verdict

    return CorpusCase(
        name="spmd-collectives",
        run=run,
        description="plain run_spmd program mixing bcast and allreduce",
    )


def _pipelined_spmd_case(name: str, algorithm: str, nranks: int,
                         segments: int, description: str) -> CorpusCase:
    """A bare segmented-family broadcast on an awkward (odd/prime) comm
    size: the verifier must see clean matching and K-schedule
    determinism from the pre-posted stage receives and the
    fire-and-forget forwards."""
    def run(verify: Any) -> Verdict:
        from repro.simulator.runtime import run_spmd

        def program(ctx):
            def gen():
                ctx.options = ctx.options.replace(bcast_segments=segments)
                payload = np.arange(30.0) if ctx.world.rank == 1 else None
                out = yield from ctx.world.bcast(payload, root=1,
                                                 algorithm=algorithm)
                total = yield from ctx.world.allreduce(float(out.sum()))
                return total
            return gen()

        sim = run_spmd(program, nranks, verify=verify)
        return sim.verdict

    return CorpusCase(name=name, run=run, description=description)


#: Each table family's tiny cases: family -> (case name, description,
#: ``multiply`` arguments) rows.  A :data:`~repro.core.launch.FAMILIES`
#: row without an entry gets one case at its defaults on four ranks.
_FAMILY_CASES: dict[str, tuple[tuple[str, str, dict], ...]] = {
    "summa": (
        ("summa", "pivot-broadcast SUMMA on a 2x2 grid", dict(nprocs=4)),
        ("summa-overlap", "SUMMA with one-step lookahead",
         dict(nprocs=4, overlap=True)),
        ("summa-segmented",
         "SUMMA over the pipelined binary-tree broadcast, depth 3",
         dict(nprocs=4, bcast="segmented", bcast_segments=3)),
    ),
    "hsumma": (
        ("hsumma", "two-level HSUMMA on a 2x2 grid", dict(nprocs=4)),
        ("hsumma-overlap", "HSUMMA with one-step lookahead",
         dict(nprocs=4, overlap=True)),
    ),
    "cyclic": (("cyclic", "block-cyclic SUMMA", dict(nprocs=4, block=6)),),
    "cannon": (("cannon", "Cannon's shift algorithm", dict(nprocs=4)),),
    "fox": (("fox", "Fox's broadcast-roll algorithm", dict(nprocs=4)),),
    "3d": (("dns3d", "3-D (DNS) algorithm on a 2x2x2 mesh", dict(nprocs=8)),),
    "2.5d": (("25d", "2.5D algorithm, replication 2",
              dict(nprocs=8, replication=2)),),
}

#: The families with a ``*-collapsed`` congruence case: family -> (case
#: name, description, shape fields).
_COLLAPSED_CASES: dict[str, tuple[str, str, dict]] = {
    "cannon": ("cannon-collapsed",
               "Cannon through the torus-shift-collapsed macro engine, "
               "bit-identical to per-rank", dict(nprocs=16)),
    "3d": ("dns3d-collapsed",
           "DNS 3-D through the flag-class-collapsed macro engine on a "
           "4x4x4 mesh, bit-identical to per-rank", dict(nprocs=64)),
    "2.5d": ("25d-collapsed",
             "2.5D through the layer-collapsed macro engine (q=4, c=2), "
             "bit-identical to per-rank", dict(nprocs=32, replication=2)),
}

#: The order reports print the shipped cases in; the cases of a family
#: registered later follow.
_ORDER = (
    "summa", "hsumma", "hsumma-multilevel", "summa-overlap",
    "hsumma-overlap", "cyclic", "cannon", "fox", "dns3d", "25d",
    "cannon-collapsed", "dns3d-collapsed", "25d-collapsed",
    "hetero-summa1d", "lu", "qr", "spmd-collectives", "summa-segmented",
    "spmd-fourcolor", "spmd-hypersystolic",
)


def build_corpus() -> list[CorpusCase]:
    """The full corpus, in the order reports print it: the table
    families' cases generated from :data:`~repro.core.launch.FAMILIES`,
    and the variants without a row listed by hand."""
    from repro.core.launch import FAMILIES, family

    cases = [
        _multilevel_case(), _hetero_case(), _lu_case(), _qr_case(),
        _ft_bcast_case(),
        _pipelined_spmd_case(
            "spmd-fourcolor", "fourcolor", 5, 2,
            "4-color bidirectional ring multicast on 5 ranks, root 1",
        ),
        _pipelined_spmd_case(
            "spmd-hypersystolic", "hypersystolic", 7, 3,
            "hyper-systolic ring broadcast on 7 ranks, root 1",
        ),
    ]
    for name in FAMILIES:
        default = ((name, f"{family(name).display} at its defaults on four "
                    "ranks", dict(nprocs=4)),)
        cases += [_multiply_case(case, text, algorithm=name, **kwargs)
                  for case, text, kwargs in _FAMILY_CASES.get(name, default)]
        if name in _COLLAPSED_CASES:
            case, text, shape = _COLLAPSED_CASES[name]
            cases.append(_collapsed_case(case, text, name, **shape))
    return sorted(cases, key=lambda c: _ORDER.index(c.name)
                  if c.name in _ORDER else len(_ORDER))


def run_corpus(
    names: Iterable[str] | None = None,
    *,
    verify: Any = True,
) -> list[tuple[CorpusCase, Verdict]]:
    """Run (a subset of) the corpus; returns ``(case, verdict)`` pairs.

    ``verify`` accepts anything :func:`repro.verify.coerce_verify`
    does; the default enables the standard checks plus the two-schedule
    determinism pass.
    """
    options = coerce_verify(verify) or VerifyOptions()
    corpus = build_corpus()
    if names is not None:
        wanted = set(names)
        unknown = wanted - {case.name for case in corpus}
        if unknown:
            known = ", ".join(case.name for case in corpus)
            raise ConfigurationError(
                f"unknown corpus case(s) {sorted(unknown)}; known: {known}"
            )
        corpus = [case for case in corpus if case.name in wanted]
    return [(case, case.run(options)) for case in corpus]
