"""The 3-D (DNS / Agarwal et al.) algorithm.

``p = q^3`` ranks arranged as a ``q x q x q`` mesh.  Input matrices
start block-distributed on the front layer ``k = 0``; the algorithm

1. routes ``A``'s tile ``(i, j)`` from ``(i, j, 0)`` to ``(i, j, j)``
   and broadcasts it along the ``j`` axis — so every ``(i, *, k)``
   holds ``A_{i,k}``;
2. symmetrically routes ``B``'s tile ``(i, j)`` to ``(i, j, i)`` and
   broadcasts along the ``i`` axis — so every ``(*, j, k)`` holds
   ``B_{k,j}``;
3. multiplies locally: layer ``k`` computes ``A_{i,k} @ B_{k,j}``;
4. reduces along ``k`` back to the front layer.

This trades a factor ``p^(1/3)`` of extra memory for ``p^(1/6)`` less
communication — the memory blow-up the paper argues rules it out at
scale (100 extra matrix copies on a million cores).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.blocks.ops import local_gemm_acc, zeros_like_result
from repro.core.launch import (
    AlgorithmSpec,
    collapse,
    launch,
    product_dims,
    Shape,
    square_layout,
    square_side,
)
from repro.errors import ConfigurationError
from repro.mpi.comm import MpiContext
from repro.simulator.predictor import SquareGridConfig, predict_dns3d
from repro.simulator.tracing import SimResult

Gen = Generator[Any, Any, Any]

TAG_ROUTE_A = 10
TAG_ROUTE_B = 11


def _cube_root(p: int) -> int:
    q = round(p ** (1.0 / 3.0))
    for cand in (q - 1, q, q + 1):
        if cand > 0 and cand**3 == p:
            return cand
    raise ConfigurationError(f"3D algorithm needs a cubic rank count, got {p}")


def dns3d_program(
    ctx: MpiContext, a_tile: Any, b_tile: Any, cfg: SquareGridConfig
) -> Gen:
    """Per-rank 3-D algorithm generator.

    ``a_tile``/``b_tile`` are this rank's front-layer tiles (``None``
    off the front layer).  Returns the C tile on the front layer,
    ``None`` elsewhere.
    """
    q = cfg.q
    world = ctx.world
    rank = world.rank
    # Rank r = (i * q + j) * q + k.
    k = rank % q
    j = (rank // q) % q
    i = rank // (q * q)

    def rank_of(ii: int, jj: int, kk: int) -> int:
        return (ii * q + jj) * q + kk

    # Axis communicators (collective construction on every rank).
    j_axis = world.split_by(lambda r: (r // (q * q)) * q + r % q,
                            key_of=lambda r: (r // q) % q)  # varying j
    i_axis = world.split_by(lambda r: ((r // q) % q) * q + r % q,
                            key_of=lambda r: r // (q * q))  # varying i
    k_axis = world.split_by(lambda r: r // q,
                            key_of=lambda r: r % q)  # varying k

    # 1. Route A(i,j): (i,j,0) -> (i,j,j), then broadcast over j axis.
    if k == 0 and j != 0:
        yield from world.send(a_tile, rank_of(i, j, j), tag=TAG_ROUTE_A)
        a_held = None
    elif k == j:
        if j != 0:
            a_held = yield from world.recv(rank_of(i, j, 0), tag=TAG_ROUTE_A)
        else:
            a_held = a_tile
    else:
        a_held = None
    # On the j axis (fixed i, k): root is the rank with j == k.
    a_held = yield from j_axis.bcast(a_held, root=k)

    # 2. Route B(i,j): (i,j,0) -> (i,j,i), then broadcast over i axis.
    if k == 0 and i != 0:
        yield from world.send(b_tile, rank_of(i, j, i), tag=TAG_ROUTE_B)
        b_held = None
    elif k == i:
        if i != 0:
            b_held = yield from world.recv(rank_of(i, j, 0), tag=TAG_ROUTE_B)
        else:
            b_held = b_tile
    else:
        b_held = None
    b_held = yield from i_axis.bcast(b_held, root=k)

    # 3. Local multiply: this rank now has A_{i,k} and B_{k,j}.
    c_partial = zeros_like_result(a_held, b_held)
    c_partial = yield from local_gemm_acc(ctx, c_partial, a_held, b_held)

    # 4. Reduce along k to the front layer.
    c_tile = yield from k_axis.reduce(c_partial, root=0)
    return c_tile if k == 0 else None


def run_dns3d(
    A: Any,
    B: Any,
    *,
    nprocs: int,
    **run: Any,
) -> tuple[Any, SimResult]:
    """Multiply ``A @ B`` with the 3-D algorithm on ``nprocs = q^3``
    ranks.  ``**run`` are the shared run options documented on
    :func:`repro.core.launch.launch`."""
    _, cfg = _configure(*product_dims(A, B), Shape(nprocs=nprocs))
    return launch(DNS3D, cfg, A, B, **run)


def _configure(m: int, l: int, n: int,
               shape: Shape) -> tuple[Shape, SquareGridConfig]:
    """The grid is the mesh's ``q x q`` front face, ``q`` the cube root
    of the rank count."""
    shape = shape.resolve("3d", l, grid_of=lambda p: (_cube_root(p),) * 2)
    q = square_side("the 3-D algorithm's front face", shape)
    return shape, SquareGridConfig(m=m, l=l, n=n, q=q, c=q)


DNS3D = AlgorithmSpec(
    name="3d",
    display="the 3-D (DNS) algorithm",
    program=dns3d_program,
    layout=square_layout,
    symmetry=lambda cfg: collapse().dns3d_symmetry(cfg.q),
    predict=predict_dns3d,
    configure=_configure,
)
