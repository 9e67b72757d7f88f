"""Plan-service query and result types.

A :class:`PlanQuery` is what a user asks ("multiply two n x n float64
matrices on p ranks of this machine — what should I run?"); a
:class:`Plan` is the answer (algorithm, parameters, predicted time,
and the gap to the communication lower bound).  Both round-trip
through plain JSON dicts so plans can live in the content-hash cache
and cross the CLI boundary.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any, Mapping

from repro.errors import ConfigurationError

#: Supported dtypes and their element sizes in bytes.
DTYPE_ITEMSIZE = {
    "float64": 8,
    "float32": 4,
    "float16": 2,
    "complex64": 8,
    "complex128": 16,
}

#: Named platform presets the planner can resolve network parameters
#: from (same registry the sweep harness uses).
PLATFORM_NAMES = ("grid5000-graphene", "bluegene-p", "exascale-2012")


def _platform_factory(name: str):
    from repro.platforms.bluegene import bluegene_p
    from repro.platforms.exa import exascale_2012
    from repro.platforms.grid5000 import grid5000_graphene

    factories = {
        "grid5000-graphene": grid5000_graphene,
        "bluegene-p": bluegene_p,
        "exascale-2012": exascale_2012,
    }
    try:
        return factories[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown platform {name!r}; choose from {PLATFORM_NAMES} "
            "or pass alpha/beta/gamma explicitly"
        ) from None


def _finite(name: str, value: float, *, zero_ok: bool = False) -> float:
    """``value`` as a finite float, > 0 (>= 0 under ``zero_ok``), with
    one spelling per number (``1`` is ``1.0``, ``-0.0`` is ``0.0``) so
    equal queries share one cache key.  ``not x > 0`` rejects NaN too."""
    value = float(value)
    if not (value >= 0 if zero_ok else value > 0) or not math.isfinite(value):
        raise ConfigurationError(
            f"{name} must be finite and {'>= 0' if zero_ok else '> 0'}, "
            f"got {value!r}"
        )
    return value or 0.0  # -0.0 is falsy


@dataclasses.dataclass(frozen=True)
class PlanQuery:
    """One planning request.

    Parameters
    ----------
    n, p:
        Problem size (``n x n`` matrices) and rank count.
    dtype:
        Element type (sets the per-element byte size).
    platform:
        Optional named preset (:data:`PLATFORM_NAMES`) supplying
        ``alpha``/``beta``/``gamma`` and the default broadcast; any of
        those passed explicitly override the preset.
    alpha, beta:
        Hockney latency (s) and reciprocal bandwidth (s/byte).
    gamma:
        Seconds per flop per rank (0 prices communication only).
    memory_bytes:
        Optional per-rank memory budget; candidates whose footprint
        exceeds it are discarded, and the budget tightens the
        memory-dependent lower bound.
    faults:
        Optional fault-profile spec (``repro.faults`` mini-language).
        Plans for faulty environments restrict broadcasts to the
        fault-tolerant binomial family.
    """

    n: int
    p: int
    dtype: str = "float64"
    platform: str | None = None
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    memory_bytes: float | None = None
    faults: str | None = None

    def resolve(self) -> "ResolvedQuery":
        """Fill defaults (platform presets, library defaults) and
        validate; the result carries concrete numbers only."""
        if self.n < 1 or self.p < 1:
            raise ConfigurationError(
                f"need n >= 1 and p >= 1; got n={self.n}, p={self.p}"
            )
        itemsize = DTYPE_ITEMSIZE.get(self.dtype)
        if itemsize is None:
            raise ConfigurationError(
                f"unknown dtype {self.dtype!r}; choose from "
                f"{sorted(DTYPE_ITEMSIZE)}"
            )
        alpha, beta, gamma = self.alpha, self.beta, self.gamma
        bcast_default = "binomial"
        if self.platform is not None:
            plat = _platform_factory(self.platform)(self.p)
            alpha = plat.params.alpha if alpha is None else alpha
            beta = plat.params.beta if beta is None else beta
            gamma = plat.gamma if gamma is None else gamma
            bcast_default = plat.options.bcast
        if alpha is None or beta is None:
            from repro.simulator.runtime import DEFAULT_PARAMS

            alpha = DEFAULT_PARAMS.alpha if alpha is None else alpha
            beta = DEFAULT_PARAMS.beta if beta is None else beta
        alpha = _finite("alpha", alpha)
        beta = _finite("beta", beta)
        gamma = _finite("gamma", 0.0 if gamma is None else gamma,
                        zero_ok=True)
        memory_elements = None
        if self.memory_bytes is not None:
            memory_elements = _finite("memory_bytes",
                                      self.memory_bytes) / itemsize
        faulty = bool(self.faults and self.faults.strip())
        if faulty:
            # Validate the spec eagerly so a typo fails the query, not
            # some later run that consumes the plan.
            from repro.faults import parse_fault_spec

            parse_fault_spec(self.faults, seed=0)
        return ResolvedQuery(
            n=self.n, p=self.p, itemsize=itemsize, alpha=alpha, beta=beta,
            gamma=gamma, memory_elements=memory_elements, faulty=faulty,
            faults=self.faults if faulty else None,
            bcast_default=bcast_default,
        )


#: Every resolved field that can influence the chosen plan, and nothing
#: else: two PlanQueries resolving to the same numbers share one cache
#: entry.  ``faults`` is the profile, not just ``faulty``: the plan
#: reports it as ``params["fault_profile"]``.
CANONICAL_FIELDS = ("n", "p", "itemsize", "alpha", "beta", "gamma",
                    "memory_elements", "faults")


@dataclasses.dataclass(frozen=True)
class ResolvedQuery:
    """A :class:`PlanQuery` with every default filled in.

    ``beta`` is per *byte* (what the simulator charges);
    :attr:`beta_element` converts to the analytic models' per-element
    convention.
    """

    n: int
    p: int
    itemsize: int
    alpha: float
    beta: float
    gamma: float
    memory_elements: float | None
    faulty: bool
    faults: str | None
    bcast_default: str

    @property
    def beta_element(self) -> float:
        return self.beta * self.itemsize

    @functools.cached_property
    def key(self) -> tuple[Any, ...]:
        """The :data:`CANONICAL_FIELDS` values: the in-process memo key
        (one hash, no JSON)."""
        return tuple(getattr(self, name) for name in CANONICAL_FIELDS)

    def canonical(self) -> dict[str, Any]:
        """The JSON spec that keys the on-disk plan cache: the same
        fields as :attr:`key`, by name."""
        return dict(zip(CANONICAL_FIELDS, self.key))


@dataclasses.dataclass(frozen=True)
class Plan:
    """The planner's answer for one query.

    ``predicted_time`` (= ``comm_time + compute_time``) is the
    refinement stage's number and ``backend`` the backend that replays
    it through the family's runner: ``"predictor"``; ``"macro"`` for a
    segmented-family broadcast, which ``backend="predictor"`` refuses
    by policy (see
    :func:`repro.simulator.predictor.refuse_pipelined`) and
    ``backend="macro"`` reproduces bit-for-bit; or ``"closed-form"``
    under ``refine="none"``.  ``closed_form_time`` is the ranking-stage
    estimate.  ``lower_bound_gap`` is ``predicted_time /
    lower_bound_time`` — how far the plan sits above the communication
    lower bound floor (Ballard/Demmel/Holtz; see ``docs/planner.md``).

    ``advisory["25d"]`` reports the best 2.5D replication candidate —
    at refinement fidelity when its layer grid tiles ``n`` (it then
    also competed for the plan itself), else flagged
    ``closed_form_only``.
    """

    algorithm: str
    params: dict[str, Any]
    predicted_time: float
    comm_time: float
    compute_time: float
    closed_form_time: float
    backend: str
    lower_bound_time: float
    lower_bound_gap: float
    query: dict[str, Any]
    candidates: int = 0
    advisory: dict[str, Any] = dataclasses.field(default_factory=dict)
    from_cache: bool = False

    def to_dict(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        out.pop("from_cache")
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, Any], *, from_cache: bool = False) -> "Plan":
        fields = {f.name for f in dataclasses.fields(cls)} - {"from_cache"}
        return cls(from_cache=from_cache,
                   **{k: d[k] for k in fields})

    def summary(self) -> str:
        """Human-readable one-plan report (the CLI's text output)."""
        q = self.query
        lines = [
            f"plan: {self.algorithm} on {q['p']} ranks "
            f"(n={q['n']}, itemsize={q['itemsize']})",
        ]
        grid = self.params.get("grid")
        if grid:
            lines.append(f"  grid         {grid[0]}x{grid[1]}")
        for key in ("groups", "group_grid", "block", "inner_block",
                    "bcast", "outer_bcast", "segments", "replication"):
            if key in self.params and self.params[key] is not None:
                lines.append(f"  {key:<12} {self.params[key]}")
        gap = (f"{self.lower_bound_gap:.2f}x"
               if math.isfinite(self.lower_bound_gap) else "inf")
        lines += [
            f"  predicted    {self.predicted_time:.6g}s = "
            f"comm {self.comm_time:.6g}s + compute {self.compute_time:.6g}s "
            f"[{self.backend}]",
            f"  lower bound  {self.lower_bound_time:.6g}s "
            f"(gap {gap} above the memory-"
            f"{'dependent' if q.get('memory_elements') else 'independent'} "
            "floor)",
            f"  searched     {self.candidates} candidates"
            + (" (cache hit)" if self.from_cache else ""),
        ]
        adv = self.advisory.get("25d")
        if adv and "predicted_time" in adv:
            lines.append(
                f"  advisory     2.5D replication c={adv['replication']} "
                f"predicts {adv['predicted_time']:.6g}s = "
                f"comm {adv['comm_time']:.6g}s + "
                f"compute {adv['compute_time']:.6g}s [{adv['backend']}]"
            )
        elif adv:
            # The layer grid q = sqrt(p/c) does not tile n: this
            # variant never entered the refined competition, so only
            # its ranking closed form is known.
            lines.append(
                f"  advisory     2.5D replication c={adv['replication']} "
                f"prices at {adv['closed_form_time']:.6g}s on the closed "
                "forms (layer grid does not tile n; validate with "
                "multiply(algorithm='2.5d') under the DES backend)"
            )
        return "\n".join(lines)
