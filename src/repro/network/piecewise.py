"""Piecewise-linear (multi-regime) point-to-point cost model.

Real MPI point-to-point times are not one straight line: the eager,
rendezvous and segmented-large-message protocols each have their own
latency/slope, producing the well-known piecewise-linear ping-pong
curves.  :class:`PiecewiseHockney` models that: a sorted list of
``(max_bytes, HockneyParams)`` regimes, the first regime whose bound
covers the message supplying the cost.  Continuity is *not* enforced —
real protocol switches jump — but monotonicity in the message size is
validated so models stay physical.

Use with :class:`PiecewiseNetwork` (homogeneous all-pairs) or embed the
regime lookup in a custom topology.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import TopologyError
from repro.network.model import HockneyParams, Network
from repro.util.validation import require_finite


class PiecewiseHockney:
    """Sorted message-size regimes, each with its own Hockney line."""

    def __init__(self, regimes: Sequence[tuple[float, HockneyParams]]):
        if not regimes:
            raise TopologyError("need at least one regime")
        bounds = [b for b, _ in regimes]
        for bound in bounds:
            # Every comparison with NaN is false: it would pass the
            # order and monotonicity checks below.
            require_finite(bound, "regime bound", inf_ok=True)
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise TopologyError(
                f"regime bounds must be strictly increasing, got {bounds}"
            )
        if bounds[-1] != float("inf"):
            raise TopologyError("last regime bound must be inf")
        self.regimes = [(float(b), p) for b, p in regimes]
        self._validate_monotonic()

    def _validate_monotonic(self) -> None:
        # Spot-check that cost never decreases when the size grows
        # across each regime boundary (jumps up are fine, down are not).
        for (bound, params), (_nb, nparams) in zip(
            self.regimes, self.regimes[1:]
        ):
            if bound == float("inf"):
                continue
            at_boundary = params.transfer_time(bound)
            just_after = nparams.transfer_time(bound + 1)
            if just_after < at_boundary - 1e-15:
                raise TopologyError(
                    f"cost drops across the {bound}-byte boundary "
                    f"({at_boundary:.3g}s -> {just_after:.3g}s); "
                    "regimes must be monotone in message size"
                )

    def params_for(self, nbytes: float) -> HockneyParams:
        """The regime covering a message of ``nbytes``."""
        if nbytes < 0:
            raise TopologyError(f"message size must be >= 0, got {nbytes}")
        for bound, params in self.regimes:
            if nbytes <= bound:
                return params
        raise AssertionError("unreachable: last bound is inf")

    def transfer_time(self, nbytes: float) -> float:
        return self.params_for(nbytes).transfer_time(nbytes)

    @classmethod
    def mpi_like(
        cls,
        alpha: float,
        beta: float,
        *,
        eager_bytes: int = 4096,
        large_bytes: int = 1 << 20,
    ) -> "PiecewiseHockney":
        """A typical MPI three-regime curve built around base
        parameters: eager messages pay half the latency; very large
        messages pay an extra rendezvous-handshake latency on the same
        wire bandwidth."""
        return cls([
            (float(eager_bytes), HockneyParams(alpha * 0.5, beta)),
            (float(large_bytes), HockneyParams(alpha, beta)),
            (float("inf"), HockneyParams(alpha * 3.0, beta)),
        ])


class PiecewiseNetwork(Network):
    """Fully-connected homogeneous network with a piecewise cost."""

    def __init__(self, nranks: int, model: PiecewiseHockney):
        super().__init__(nranks)
        self.model = model

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        self._check_pair(src, dst)
        if src == dst:
            return 0.0
        return self.model.transfer_time(nbytes)
