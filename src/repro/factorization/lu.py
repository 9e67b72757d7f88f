"""Right-looking block LU factorization (no pivoting) on a 2-D grid.

``A = L @ U`` with unit-lower ``L``; tiles of size ``b x b`` are
block-cyclically distributed over the ``s x t`` grid (the ScaLAPACK
layout).  Per step ``k`` of ``K = n/b``:

1. the owner of tile ``(k, k)`` factors it (``~2/3 b^3`` flops) and
   broadcasts ``U_kk`` down its grid column / ``L_kk`` along its row;
2. the column panel owners compute ``L_ik = A_ik U_kk^{-1}`` and the
   row panel owners ``U_kj = L_kk^{-1} A_kj`` (``b^3`` flops per tile);
3. the ``L`` panel is broadcast along grid rows and the ``U`` panel
   down grid columns — the same pivot-column/pivot-row pattern as
   SUMMA, and the place the paper's hierarchy plugs in;
4. every rank updates its trailing tiles ``A_ij -= L_ik U_kj``.

``hierarchical=True`` routes the panel broadcasts of step 3 through the
two-phase between-groups/within-group scheme ("HLU"), cutting the
latency factor exactly as HSUMMA does for multiplication.

No pivoting: the algorithm is meant for the communication study, and
tests feed it diagonally dominant matrices where pivoting is
unnecessary.  Phantom mode works as for the multiplication kernels.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Generator

import numpy as np
import scipy.linalg

from repro.core.launch import AlgorithmSpec, launch
from repro.errors import ConfigurationError
from repro.mpi.cart import CartComm, group_levels
from repro.mpi.comm import MpiContext
from repro.payloads import PhantomArray
from repro.simulator.tracing import SimResult
from repro.util.validation import require, require_divides

Gen = Generator[Any, Any, Any]


@dataclasses.dataclass(frozen=True)
class LuConfig:
    """Parameters of a block LU run.

    ``n x n`` matrix, tile size ``b``, grid ``s x t``, optional group
    grid ``I x J`` for hierarchical panel broadcasts.
    """

    n: int
    b: int
    s: int
    t: int
    I: int = 1
    J: int = 1

    def __post_init__(self) -> None:
        require(self.n > 0 and self.b > 0, f"need n, b > 0; got {self.n}, {self.b}")
        require_divides(self.b, self.n, "LU: tile size into matrix size")
        require(self.s > 0 and self.t > 0,
                f"grid dims must be positive: {self.s}x{self.t}")
        require_divides(self.I, self.s, "LU: group rows into grid rows")
        require_divides(self.J, self.t, "LU: group cols into grid cols")

    @property
    def nblocks(self) -> int:
        return self.n // self.b

    @property
    def hierarchical(self) -> bool:
        return self.I * self.J > 1


def _getrf_nopiv(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unpivoted LU of a small square block: A = L @ U, unit diag L."""
    lu = a.copy()
    m = lu.shape[0]
    for k in range(m - 1):
        piv = lu[k, k]
        if piv == 0:
            raise ConfigurationError(
                "zero pivot in unpivoted LU; feed a diagonally dominant matrix"
            )
        lu[k + 1 :, k] /= piv
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    L = np.tril(lu, -1) + np.eye(m)
    U = np.triu(lu)
    return L, U


def panel_grid(ctx: MpiContext, cfg: LuConfig) -> CartComm:
    """The rank's grid; its ``bcast_row`` / ``bcast_col`` carry the
    panel broadcasts, two-phase through the group hierarchy when
    ``cfg`` configures one, flat otherwise."""
    return CartComm(ctx.world, cfg.s, cfg.t,
                    *group_levels(cfg.s, cfg.t, cfg.I, cfg.J))


def lu_program(
    ctx: MpiContext,
    tiles: dict[tuple[int, int], Any],
    cfg: LuConfig,
) -> Gen:
    """Per-rank block-LU generator.

    ``tiles`` maps global tile coordinates ``(bi, bj)`` (only those this
    rank owns) to ``b x b`` arrays (or phantoms).  Returns the tiles
    dict holding ``L`` strictly below the diagonal, ``U`` on and above,
    with the diagonal tiles packed as ``(L_kk, U_kk)`` pairs.
    """
    grid = panel_grid(ctx, cfg)
    i, j = grid.row, grid.col
    b = cfg.b
    K = cfg.nblocks
    phantom = any(isinstance(v, PhantomArray) for v in tiles.values())

    def my_rows_below(k: int) -> list[int]:
        """Global tile-row indices > k owned by my grid row."""
        return [bi for bi in range(k + 1, K) if bi % cfg.s == i]

    def my_cols_right(k: int) -> list[int]:
        return [bj for bj in range(k + 1, K) if bj % cfg.t == j]

    for k in range(K):
        owner_row, owner_col = k % cfg.s, k % cfg.t

        # 1. Factor the diagonal tile on its owner.
        diag = None
        if i == owner_row and j == owner_col:
            akk = tiles[(k, k)]
            yield from ctx.compute_flops((2.0 / 3.0) * b**3)
            if phantom:
                lkk = ukk = PhantomArray((b, b))
            else:
                lkk, ukk = _getrf_nopiv(akk)
            tiles[(k, k)] = (lkk, ukk)
            diag = (lkk, ukk)
        # U_kk to the column panel (down owner_col's grid column);
        # L_kk to the row panel (along owner_row's grid row).
        if j == owner_col:
            got = yield from grid.col_comm.bcast(
                None if diag is None else diag[1], root=owner_row
            )
            ukk = got
        if i == owner_row:
            got = yield from grid.row_comm.bcast(
                None if diag is None else diag[0], root=owner_col
            )
            lkk = got

        # 2. Panel solves.
        l_panel: dict[int, Any] = {}
        if j == owner_col:
            for bi in my_rows_below(k):
                yield from ctx.compute_flops(float(b**3))
                if phantom:
                    l_panel[bi] = PhantomArray((b, b))
                else:
                    l_panel[bi] = scipy.linalg.solve_triangular(
                        ukk.T, tiles[(bi, k)].T, lower=True
                    ).T
                tiles[(bi, k)] = l_panel[bi]
        u_panel: dict[int, Any] = {}
        if i == owner_row:
            for bj in my_cols_right(k):
                yield from ctx.compute_flops(float(b**3))
                if phantom:
                    u_panel[bj] = PhantomArray((b, b))
                else:
                    u_panel[bj] = scipy.linalg.solve_triangular(
                        lkk, tiles[(k, bj)], lower=True, unit_diagonal=True
                    )
                tiles[(k, bj)] = u_panel[bj]

        # 3. Panel broadcasts (the SUMMA-like phase; hierarchical here).
        # Panels travel as one stacked array; the tile indices are
        # derivable on every receiver (row-comm peers share the grid
        # row i, col-comm peers share the grid column j), which keeps
        # the payloads segmentable for scatter-allgather broadcasts.
        l_indices = my_rows_below(k)
        l_stack = None
        if j == owner_col:
            if phantom:
                l_stack = PhantomArray((len(l_indices) * b, b))
            elif l_indices:
                l_stack = np.vstack([l_panel[bi] for bi in l_indices])
            else:
                l_stack = np.empty((0, b))
        l_stack = yield from grid.bcast_row(l_stack, owner_col)
        if phantom:
            l_panel = {bi: PhantomArray((b, b)) for bi in l_indices}
        else:
            l_panel = {
                bi: l_stack[q * b : (q + 1) * b]
                for q, bi in enumerate(l_indices)
            }

        u_indices = my_cols_right(k)
        u_stack = None
        if i == owner_row:
            if phantom:
                u_stack = PhantomArray((b, len(u_indices) * b))
            elif u_indices:
                u_stack = np.hstack([u_panel[bj] for bj in u_indices])
            else:
                u_stack = np.empty((b, 0))
        u_stack = yield from grid.bcast_col(u_stack, owner_row)
        if phantom:
            u_panel = {bj: PhantomArray((b, b)) for bj in u_indices}
        else:
            u_panel = {
                bj: u_stack[:, q * b : (q + 1) * b]
                for q, bj in enumerate(u_indices)
            }

        # 4. Trailing update on my tiles.
        for bi in my_rows_below(k):
            lik = l_panel.get(bi)
            if lik is None:
                continue
            for bj in my_cols_right(k):
                ukj = u_panel.get(bj)
                if ukj is None:
                    continue
                yield from ctx.compute_flops(2.0 * b**3)
                if not phantom:
                    tiles[(bi, bj)] = tiles[(bi, bj)] - lik @ ukj
    return tiles


class TileCyclicLayout:
    """``b x b`` tiles of a square matrix dealt cyclically over the
    ``s x t`` grid (tile ``(bi, bj)`` lives on rank ``(bi % s) * t +
    bj % t``).  Each rank program is handed a fresh dict of the tiles it
    owns and returns one; ``gather(n, b, tiles)`` turns the returned
    ``((bi, bj), tile)`` pairs — ``None`` in scale mode — into the
    kernel's result."""

    def __init__(self, cfg: LuConfig, gather: Callable[[int, int, Any], Any]):
        self.cfg = cfg
        self.s, self.t = cfg.s, cfg.t
        self.nranks = cfg.s * cfg.t
        self.gather = gather

    def deal(self, A: Any) -> Callable[[int], tuple[dict]]:
        cfg, b = self.cfg, self.cfg.b
        phantom = isinstance(A, PhantomArray)
        data = None if phantom else np.asarray(A, dtype=float)
        per_rank: list[dict[tuple[int, int], Any]] = [
            {} for _ in range(self.nranks)]
        for bi in range(cfg.nblocks):
            for bj in range(cfg.nblocks):
                owned = per_rank[(bi % cfg.s) * cfg.t + bj % cfg.t]
                if phantom:
                    owned[(bi, bj)] = PhantomArray((b, b))
                else:
                    owned[(bi, bj)] = data[bi * b:(bi + 1) * b,
                                           bj * b:(bj + 1) * b].copy()
        # Programs update their dict in place, and a verified run builds
        # the programs once per schedule.
        return lambda rank: (dict(per_rank[rank]),)

    def assemble(self, inputs: tuple, return_values: list) -> Any:
        (A,) = inputs
        if isinstance(A, PhantomArray):
            return self.gather(self.cfg.n, self.cfg.b, None)
        return self.gather(
            self.cfg.n, self.cfg.b,
            (item for tiles in return_values for item in tiles.items()))


def _gather_factors(n: int, b: int, tiles: Any) -> tuple[Any, Any]:
    if tiles is None:
        return PhantomArray((n, n)), PhantomArray((n, n))
    L = np.zeros((n, n))
    U = np.zeros((n, n))
    for (bi, bj), tile in tiles:
        block = (slice(bi * b, (bi + 1) * b), slice(bj * b, (bj + 1) * b))
        if bi == bj:
            L[block], U[block] = tile
        elif bi > bj:
            L[block] = tile
        else:
            U[block] = tile
    return L, U


def _square_config(A: Any, kernel: str, grid: tuple[int, int], block: int,
                   groups: tuple[int, int]) -> LuConfig:
    if A.shape[0] != A.shape[1]:
        raise ConfigurationError(
            f"{kernel} needs a square matrix, got {A.shape}")
    (s, t), (I, J) = grid, groups
    return LuConfig(n=A.shape[0], b=block, s=s, t=t, I=I, J=J)


BLOCK_LU = AlgorithmSpec(
    name="lu",
    display="a block LU factorisation",
    program=lu_program,
    layout=lambda cfg: TileCyclicLayout(cfg, _gather_factors),
    refusal=(
        "data-dependent panel ownership",
        "the trailing-update schedule shrinks with the elimination "
        "front, so each rank's broadcast participation depends on "
        "the step index and has no per-step closed form",
        "backend='macro' for scale runs, backend='des' for data",
    ),
)


def run_block_lu(
    A: Any,
    *,
    grid: tuple[int, int],
    block: int,
    groups: tuple[int, int] = (1, 1),
    **run: Any,
) -> tuple[Any, Any, SimResult]:
    """Factor ``A = L @ U`` on a simulated platform.

    Returns ``(L, U, SimResult)`` — concrete triangular factors in data
    mode, phantoms in scale mode.  ``groups=(I, J)`` switches the panel
    broadcasts to the hierarchical scheme.  ``**run`` are the shared
    run options documented on :func:`repro.core.launch.launch`.
    """
    cfg = _square_config(A, "LU", grid, block, groups)
    (L, U), sim = launch(BLOCK_LU, cfg, A, **run)
    return L, U, sim
