"""Deterministic discrete-event simulator for SPMD message-passing programs.

Rank programs are Python *generators*: every potentially-blocking
operation is expressed by yielding a request object and receiving the
result back at the resumption point.  The engine advances per-rank
virtual clocks, matches sends with receives MPI-style, charges each
transfer its network cost (Hockney model via :mod:`repro.network`), and
accounts communication vs computation time per rank — the two
quantities the paper reports separately.

Most users never touch this package directly: :mod:`repro.mpi` wraps it
in a communicator API and :func:`repro.simulator.runtime.run_spmd` is
the entry point.
"""

from repro.simulator.requests import (
    ComputeRequest,
    IRecvRequest,
    ISendRequest,
    RecvRequest,
    RequestHandle,
    SendRecvRequest,
    SendRequest,
    payload_nbytes,
)
from repro.simulator.spans import (
    Span,
    SpanCloseRequest,
    SpanOpenRequest,
    iter_spans,
    phase_of,
)
from repro.simulator.tracing import RankStats, SimResult, TransferRecord
from repro.simulator.engine import Engine
from repro.simulator.runtime import run_spmd

__all__ = [
    "ComputeRequest",
    "Engine",
    "IRecvRequest",
    "ISendRequest",
    "RankStats",
    "RecvRequest",
    "RequestHandle",
    "SendRecvRequest",
    "SendRequest",
    "SimResult",
    "Span",
    "SpanCloseRequest",
    "SpanOpenRequest",
    "TransferRecord",
    "iter_spans",
    "payload_nbytes",
    "phase_of",
    "run_spmd",
]
