"""Job specifications and arrival processes for the stream simulator.

A *job* is one multiply request: square ``n x n`` matrices on ``p``
ranks, arriving at a virtual time.  Streams come from two sources:

* :func:`poisson_stream` — a seeded Poisson arrival process over a
  small catalogue of job sizes (a synthetic "heavy traffic" workload
  for the schedulers);
* a JSONL trace file (:func:`load_trace` / :func:`dump_trace`), one
  job per line — ``{"jid": 0, "arrival": 0.0, "n": 512, "p": 16}`` —
  so real request logs can be replayed.

Both are deterministic: the Poisson stream in its seed, the trace in
its bytes.  Together with a deterministic scheduler this makes whole
stream simulations reproducible in (seed, trace, scheduler), which the
property tests pin.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import ConfigurationError

#: Default size catalogue for synthetic streams: (n, p) pairs mixing
#: small interactive jobs with large batch jobs, so head-of-line
#: blocking is observable under FIFO.
DEFAULT_SIZES: tuple[tuple[int, int], ...] = (
    (256, 4),
    (384, 4),
    (512, 16),
    (768, 16),
    (1024, 64),
)


#: The family an unpinned job runs under FIFO/EASY.
DEFAULT_ALGORITHM = "summa"


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One multiply request in a stream.

    Parameters
    ----------
    jid:
        Stream-unique job id (ties in arrival time break by submission
        order, which the trace fixes).
    arrival:
        Virtual submission time in seconds.
    n, p:
        Problem size (``n x n`` float64 matrices) and requested rank
        count.
    algorithm:
        Optional algorithm pin (``"summa"`` or ``"hsumma"``).  ``None``
        leaves the choice to the scheduler (FIFO/EASY default to SUMMA;
        the planner-informed scheduler picks per plan).
    """

    jid: int
    arrival: float
    n: int
    p: int
    algorithm: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.arrival < math.inf:
            raise ConfigurationError(
                f"job {self.jid}: arrival must be finite and >= 0, "
                f"got {self.arrival}"
            )
        if self.n < 1 or self.p < 1:
            raise ConfigurationError(
                f"job {self.jid}: need n >= 1 and p >= 1, "
                f"got n={self.n}, p={self.p}"
            )
        if self.algorithm not in (None, "summa", "hsumma"):
            raise ConfigurationError(
                f"job {self.jid}: algorithm must be 'summa', 'hsumma' or "
                f"None, got {self.algorithm!r}"
            )

    def to_dict(self) -> dict:
        out = {"jid": self.jid, "arrival": self.arrival,
               "n": self.n, "p": self.p}
        if self.algorithm is not None:
            out["algorithm"] = self.algorithm
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        unknown = set(d) - {"jid", "arrival", "n", "p", "algorithm"}
        if unknown:
            raise ConfigurationError(
                f"trace record has unknown fields {sorted(unknown)}: {d}"
            )
        try:
            return cls(jid=int(d["jid"]), arrival=float(d["arrival"]),
                       n=int(d["n"]), p=int(d["p"]),
                       algorithm=d.get("algorithm"))
        except KeyError as exc:
            raise ConfigurationError(
                f"trace record missing field {exc.args[0]!r}: {d}"
            ) from None


def validate_stream(jobs: Sequence[JobSpec]) -> list[JobSpec]:
    """Check jids are unique and return the jobs sorted by (arrival, jid)."""
    seen: set[int] = set()
    for job in jobs:
        if job.jid in seen:
            raise ConfigurationError(f"duplicate job id {job.jid} in stream")
        seen.add(job.jid)
    return sorted(jobs, key=lambda j: (j.arrival, j.jid))


def poisson_stream(
    njobs: int,
    *,
    rate: float,
    seed: int,
    sizes: Sequence[tuple[int, int]] = DEFAULT_SIZES,
    weights: Sequence[float] | None = None,
) -> list[JobSpec]:
    """Seeded Poisson arrivals over a catalogue of ``(n, p)`` sizes.

    Inter-arrival gaps are ``Exp(rate)`` (so ``rate`` is jobs per
    virtual second); each job's size is drawn uniformly from ``sizes``
    unless ``weights`` biases the draw.  Deterministic in ``seed``.
    """
    if njobs < 1:
        raise ConfigurationError(f"need njobs >= 1, got {njobs}")
    if not 0 < rate < math.inf:
        raise ConfigurationError(f"arrival rate must be finite and > 0, "
                                 f"got {rate}")
    if not sizes:
        raise ConfigurationError("size catalogue must be non-empty")
    if weights is not None and len(weights) != len(sizes):
        raise ConfigurationError(
            f"{len(weights)} weights for {len(sizes)} sizes"
        )
    rng = random.Random(seed)
    t = 0.0
    out = []
    for jid in range(njobs):
        t += rng.expovariate(rate)
        if weights is None:
            n, p = sizes[rng.randrange(len(sizes))]
        else:
            n, p = rng.choices(sizes, weights=weights)[0]
        out.append(JobSpec(jid=jid, arrival=t, n=n, p=p))
    return out


def dumps_trace(jobs: Iterable[JobSpec]) -> str:
    """Serialise a stream to JSONL (one job per line, jid order kept)."""
    return "".join(json.dumps(j.to_dict(), sort_keys=True) + "\n"
                   for j in jobs)


def loads_trace(text: str) -> list[JobSpec]:
    """Parse a JSONL trace; validates ids and sorts by (arrival, jid)."""
    jobs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"trace line {lineno} is not valid JSON: {exc}"
            ) from None
        if not isinstance(record, dict):
            raise ConfigurationError(
                f"trace line {lineno} must be a JSON object, got {record!r}"
            )
        jobs.append(JobSpec.from_dict(record))
    if not jobs:
        raise ConfigurationError("trace contains no jobs")
    return validate_stream(jobs)


def dump_trace(jobs: Iterable[JobSpec], path: str | Path) -> None:
    """Write a JSONL trace file."""
    Path(path).write_text(dumps_trace(jobs))


def load_trace(path: str | Path) -> list[JobSpec]:
    """Read a JSONL trace file."""
    return loads_trace(Path(path).read_text())
