"""Abstract network model and the Hockney point-to-point cost.

The paper's entire analysis (Section IV) is built on Hockney's model:
sending ``m`` bytes between two processors costs ``alpha + m * beta``
where ``alpha`` is latency and ``beta`` the reciprocal bandwidth.  A
:class:`Network` generalises this per rank pair so that topology-aware
models (the BlueGene/P torus, a switched cluster) can charge different
costs for near and far pairs, and can expose the physical links a
message occupies so the simulator can optionally model contention.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from typing import Hashable, Sequence

from repro.errors import TopologyError
from repro.util.validation import require_positive


@dataclasses.dataclass(frozen=True)
class HockneyParams:
    """Parameters of the Hockney model ``T(m) = alpha + m * beta``.

    Attributes
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Reciprocal bandwidth in seconds per byte.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        require_positive(self.alpha, "alpha")
        require_positive(self.beta, "beta")

    def transfer_time(self, nbytes: float) -> float:
        """Time to move ``nbytes`` across one such link."""
        if nbytes < 0:
            raise TopologyError(f"message size must be >= 0, got {nbytes}")
        return self.alpha + nbytes * self.beta

    @property
    def bandwidth(self) -> float:
        """Bandwidth in bytes/second (1 / beta)."""
        return 1.0 / self.beta

    @classmethod
    def from_bandwidth(cls, alpha: float, bandwidth_bytes_per_s: float) -> "HockneyParams":
        """Build params from a bandwidth instead of its reciprocal."""
        require_positive(bandwidth_bytes_per_s, "bandwidth")
        return cls(alpha=alpha, beta=1.0 / bandwidth_bytes_per_s)


# A link identifier is any hashable token; the simulator only compares
# them for equality when serialising contended transfers.
LinkClaim = Hashable


class Network(ABC):
    """Cost model for point-to-point transfers between ``nranks`` ranks.

    Subclasses must be *pure*: :meth:`transfer_time` may not mutate any
    state, because both the full discrete-event simulator and the fast
    step model call it, possibly many times for the same pair.
    """

    def __init__(self, nranks: int) -> None:
        if nranks <= 0:
            raise TopologyError(f"network needs nranks >= 1, got {nranks}")
        self._nranks = nranks

    @property
    def nranks(self) -> int:
        """Number of addressable ranks."""
        return self._nranks

    def _check_pair(self, src: int, dst: int) -> None:
        if not (0 <= src < self._nranks and 0 <= dst < self._nranks):
            raise TopologyError(
                f"rank pair ({src}, {dst}) out of range for {self._nranks} ranks"
            )

    @abstractmethod
    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        """Seconds for a message of ``nbytes`` from ``src`` to ``dst``.

        ``src == dst`` must cost zero: algorithms freely 'send to self'
        when a root already holds data.
        """

    def links(self, src: int, dst: int) -> Sequence[LinkClaim]:
        """Physical links a transfer occupies (for contention modelling).

        The default claims a single dedicated pseudo-link per ordered
        pair, i.e. no sharing; topology models override this with the
        real route.
        """
        self._check_pair(src, dst)
        if src == dst:
            return ()
        return ((src, dst),)

    def hops(self, src: int, dst: int) -> int:
        """Number of network hops between the ranks (0 if co-located)."""
        self._check_pair(src, dst)
        return 0 if src == dst else 1

    def placement_key(self, ranks: Sequence[int]) -> Hashable:
        """What of ``ranks`` the costs of traffic among them depend on.

        Contract: two tuples of distinct ranks (a communicator's
        members, in order) with equal keys have bit-equal
        ``transfer_time(a[i], a[j], n)`` for every ``i, j, n`` and
        :meth:`links` claims that differ only by one consistent
        relabelling — so anything simulated on one tuple (contended or
        not) holds for the other, and costers memoise on the key.  The
        default is the tuple itself, which is always sound; a topology
        overrides it with whatever its costs actually read.
        """
        return tuple(ranks)
