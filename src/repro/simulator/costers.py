"""Collective costers: the oracles that price a whole collective.

The macro backend (:class:`repro.simulator.backends.MacroBackend`)
satisfies every collective a rank program issues from one of these
instead of expanding it into messages, and the predictor
(:mod:`repro.simulator.predictor`) composes their prices along a
declared chain.  A collective is priced by what it is — op, algorithm,
participants, root, size, pipeline depth — never by the communicator
that issued it:

* :class:`AnalyticCoster` — closed-form Hockney costs (homogeneous
  networks; exactly what the full DES produces there, see the
  cross-validation tests);
* :class:`MicroDesCoster` — run just one collective's message schedule
  through a small engine on the real topology (exact, memoised);
* :class:`TopologyCoster` — closed-form ``L/W`` shape with
  per-communicator effective ``alpha``/``beta`` taken as the mean
  pairwise link cost among participants (fast topology sensitivity for
  the 16384-rank torus sweeps; this is what re-creates the paper's
  Figure-8 zigzags).

:func:`default_coster` is the one a backend uses when given none.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Sequence

from repro.collectives import COLLECTIVES, ROOT
from repro.costs import collective_time as collective_cost
from repro.errors import ConfigurationError
from repro.mpi.comm import CollectiveOptions, MpiContext
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams, Network
from repro.network.subnet import SubNetwork
from repro.payloads import PhantomArray
from repro.simulator.engine import Engine


class CollectiveCoster(ABC):
    """Cost oracle for one collective among explicit world ranks.

    The macro backend and the predictor query :meth:`collective_time`
    for every collective they price; :meth:`bcast_time` is the
    broadcast-only entry point for direct callers, priced through
    :meth:`collective_time` under the coster's own algorithm.

    ``participant_invariant`` declares that :meth:`collective_time`
    depends only on ``(op, algorithm, len(participants), nbytes,
    segments)`` — never on *which* world ranks participate or which is
    root.  The symmetry-collapsed macro path and the predictor rely on
    it (see ``docs/cost_model.md``); costers that price by topology
    position must leave it False.

    ``placement_invariant`` declares the weaker promise of a coster
    that prices by position: :meth:`collective_time` depends only on
    ``(op, algorithm, self.network.placement_key(participants),
    nbytes, segments)`` — never on the root.  The collapsed macro path
    accepts such a coster for a family that enumerates its
    communicators, once every equivalence class is shown to sit on one
    placement; the predictor does not.
    """

    participant_invariant: bool = False
    placement_invariant: bool = False

    @abstractmethod
    def bcast_time(
        self, participants: Sequence[int], root_index: int, nbytes: int
    ) -> float:
        """Seconds for a broadcast of ``nbytes`` among ``participants``
        (world ranks) rooted at ``participants[root_index]``."""

    @abstractmethod
    def collective_time(
        self,
        op: str,
        algorithm: str | None,
        participants: Sequence[int],
        root_index: int,
        nbytes: int,
        *,
        segments: int | None = None,
    ) -> float:
        """Seconds for one collective.

        ``nbytes`` follows the op's size convention (its row in
        :data:`repro.collectives.COLLECTIVES`); ``algorithm`` None
        means the coster's own.
        """


class AnalyticCoster(CollectiveCoster):
    """Closed-form Hockney cost; topology-blind (homogeneous networks)."""

    participant_invariant = True

    def __init__(
        self,
        params: HockneyParams,
        algorithm: str = "binomial",
    ):
        self.params = params
        self.algorithm = algorithm

    def bcast_time(
        self, participants: Sequence[int], root_index: int, nbytes: int
    ) -> float:
        return self.collective_time(
            "bcast", self.algorithm, participants, root_index, nbytes)

    def collective_time(
        self,
        op: str,
        algorithm: str | None,
        participants: Sequence[int],
        root_index: int,
        nbytes: int,
        *,
        segments: int | None = None,
    ) -> float:
        return collective_cost(
            op,
            algorithm or self.algorithm,
            nbytes,
            len(participants),
            self.params,
            segments=segments,
        )


class MicroDesCoster(CollectiveCoster):
    """Exact per-collective cost by simulating its message schedule on
    the real topology.  Results are memoised on ``(op, algorithm,
    segments, network.placement_key(participants), root, nbytes)``:
    one simulation per placement class (see
    :meth:`repro.network.model.Network.placement_key`), however many
    communicators sit on the machine that way.  ``calls`` counts
    non-trivial :meth:`collective_time` queries, ``simulations`` the
    ones that ran an engine."""

    def __init__(
        self,
        network: Network,
        algorithm: str = "binomial",
        *,
        contention: bool = False,
    ):
        self.network = network
        self.algorithm = algorithm
        self.contention = contention
        self._memo: dict = {}
        self.calls = 0
        self.simulations = 0
        # On a uniform network position is irrelevant — the placement
        # key is the participant count and any root is root 0 — which
        # is exactly the invariance contract.
        self.participant_invariant = isinstance(network, HomogeneousNetwork)

    def bcast_time(
        self, participants: Sequence[int], root_index: int, nbytes: int
    ) -> float:
        return self.collective_time(
            "bcast", self.algorithm, participants, root_index, nbytes)

    def collective_time(
        self,
        op: str,
        algorithm: str | None,
        participants: Sequence[int],
        root_index: int,
        nbytes: int,
        *,
        segments: int | None = None,
    ) -> float:
        participants = tuple(participants)
        if len(participants) <= 1:
            return 0.0
        if op == "bcast":
            algorithm = algorithm or self.algorithm
        self.calls += 1
        root = 0 if self.participant_invariant else root_index
        key = (op, algorithm, segments,
               self.network.placement_key(participants), root, nbytes)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self.simulations += 1
        t = self._simulate(op, algorithm, participants, root, nbytes, segments)
        self._memo[key] = t
        return t

    def _simulate(
        self,
        op: str,
        algorithm: str | None,
        participants: tuple[int, ...],
        root: int,
        nbytes: int,
        segments: int | None,
    ) -> float:
        row = COLLECTIVES.get(op)
        if row is None:
            raise ConfigurationError(
                f"micro-DES coster cannot simulate op {op!r}"
            )
        subnet = SubNetwork(self.network, participants)
        n = len(participants)
        kwargs: dict = {"bcast_segments": segments}
        if algorithm is not None:
            row.algorithm(algorithm)  # refuses a name the row lacks
            if op == "bcast":
                kwargs["bcast"] = algorithm
        options = CollectiveOptions(**kwargs)

        def stand_in(rank: int):
            """``rank``'s payload: phantom bytes of the size convention."""
            if row.size == ROOT and rank != root:
                return None
            if row.to == "each":
                # The root's payload is one part per rank.
                base, extra = divmod(nbytes, n)
                return [
                    PhantomArray((base + (1 if i < extra else 0),),
                                 itemsize=1)
                    for i in range(n)
                ]
            return PhantomArray((nbytes,), itemsize=1)

        def program(ctx: MpiContext):
            args = () if row.size is None else (stand_in(ctx.rank),)
            if row.rooted:
                args += (root,)
            yield from getattr(ctx.world, op)(*args)

        programs = [
            program(MpiContext(r, n, options=options)) for r in range(n)
        ]
        sim = Engine(subnet, contention=self.contention).run(programs)
        return sim.total_time


class TopologyCoster(CollectiveCoster):
    """``L/W``-form cost with effective parameters per communicator.

    ``alpha_eff`` / ``beta_eff`` are the mean pairwise zero-byte latency
    and per-byte slope among the participants on the real topology, so
    a group whose members straddle the torus pays more than a compact
    one — cheap topology sensitivity at 16384 ranks.

    The parameters are memoised on ``network.placement_key`` and the
    root is never read, so the coster is ``placement_invariant``: a
    SUMMA/HSUMMA/cyclic sweep whose communicator classes each sit on
    one placement runs the symmetry-collapsed macro engine.
    """

    placement_invariant = True

    #: Pairs sampled per communicator before falling back to all pairs.
    MAX_PAIR_SAMPLES = 512
    #: Probe size for estimating the per-byte slope.
    PROBE_BYTES = 1 << 20

    def __init__(self, network: Network, algorithm: str = "binomial"):
        self.network = network
        self.algorithm = algorithm
        self._memo: dict[Hashable, HockneyParams] = {}

    def _effective_params(self, participants: tuple[int, ...]) -> HockneyParams:
        key = self.network.placement_key(participants)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        pairs = self._pairs(participants)
        total_alpha = 0.0
        total_full = 0.0
        for a, b in pairs:
            total_alpha += self.network.transfer_time(a, b, 0)
            total_full += self.network.transfer_time(a, b, self.PROBE_BYTES)
        npairs = len(pairs)
        alpha = total_alpha / npairs
        beta = (total_full - total_alpha) / (npairs * self.PROBE_BYTES)
        params = HockneyParams(alpha=max(alpha, 1e-30), beta=max(beta, 1e-30))
        self._memo[key] = params
        return params

    def _pairs(self, participants: tuple[int, ...]) -> list[tuple[int, int]]:
        n = len(participants)
        all_pairs = n * (n - 1)
        if all_pairs <= self.MAX_PAIR_SAMPLES:
            return [
                (a, b) for a in participants for b in participants if a != b
            ]
        # Deterministic sample of MAX_PAIR_SAMPLES *distinct* ordered
        # pairs, spread evenly over the pair lattice.  Enumerate the
        # lattice as q in [0, all_pairs): q = a_idx*(n-1) + b_off, where
        # b_off skips the diagonal.  Taking q = floor(i*all_pairs/M) for
        # i in [0, M) gives strictly increasing q (since all_pairs > M),
        # hence distinct pairs with uniform coverage of senders and
        # receivers.
        pairs = []
        for i in range(self.MAX_PAIR_SAMPLES):
            q = (i * all_pairs) // self.MAX_PAIR_SAMPLES
            a_idx, b_off = divmod(q, n - 1)
            b_idx = b_off if b_off < a_idx else b_off + 1
            pairs.append((participants[a_idx], participants[b_idx]))
        return pairs

    def bcast_time(
        self, participants: Sequence[int], root_index: int, nbytes: int
    ) -> float:
        return self.collective_time(
            "bcast", self.algorithm, participants, root_index, nbytes)

    def collective_time(
        self,
        op: str,
        algorithm: str | None,
        participants: Sequence[int],
        root_index: int,
        nbytes: int,
        *,
        segments: int | None = None,
    ) -> float:
        participants = tuple(participants)
        if len(participants) <= 1:
            return 0.0
        params = self._effective_params(participants)
        return collective_cost(
            op,
            algorithm or self.algorithm,
            nbytes,
            len(participants),
            params,
            segments=segments,
        )


def default_coster(network: Network, *, contention: bool) -> CollectiveCoster:
    """The analytic closed forms on a plain homogeneous network, else
    the micro-DES oracle (exact per-collective simulation, memoised)."""
    if isinstance(network, HomogeneousNetwork):
        return AnalyticCoster(network.params)
    return MicroDesCoster(network, contention=contention)
