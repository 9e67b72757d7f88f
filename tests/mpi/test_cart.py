"""Unit tests for the Cartesian grid communicator."""

import pytest

from repro.errors import CommunicatorError
from repro.mpi.cart import CartComm
from repro.simulator import run_spmd


class TestCartComm:
    def test_coords_row_major(self):
        def prog(ctx):
            grid = CartComm(ctx.world, 2, 3)
            return (grid.row, grid.col)
            yield  # pragma: no cover

        res = run_spmd(prog, 6)
        assert res.return_values == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_size_mismatch(self):
        def prog(ctx):
            CartComm(ctx.world, 2, 2)
            return None
            yield  # pragma: no cover

        with pytest.raises(CommunicatorError):
            run_spmd(prog, 6)

    def test_rank_at_wraps(self):
        def prog(ctx):
            grid = CartComm(ctx.world, 2, 3)
            return (grid.rank_at(-1, 0), grid.rank_at(0, 3), grid.rank_at(2, 4))
            yield  # pragma: no cover

        res = run_spmd(prog, 6)
        assert res.return_values[0] == (3, 0, 1)

    def test_coords_inverse_of_rank_at(self):
        def prog(ctx):
            grid = CartComm(ctx.world, 3, 4)
            out = []
            for i in range(3):
                for j in range(4):
                    out.append(grid.coords(grid.rank_at(i, j)) == (i, j))
            return all(out)
            yield  # pragma: no cover

        res = run_spmd(prog, 12)
        assert all(res.return_values)

    def test_row_and_col_comms(self):
        # The flat grid, and a 4x4 grid split into 2x2 groups of 2x2.
        for s, t, levels in ((2, 3, ()), (4, 4, ((2, 2), (2, 2)))):
            def prog(ctx):
                grid = CartComm(ctx.world, s, t, *levels)
                rows = yield from grid.row_comm.allgather(ctx.rank)
                cols = yield from grid.col_comm.allgather(ctx.rank)
                # Each broadcast walks every level from its owner.
                along = []
                for owner in range(t):
                    mine = (grid.row, owner) if grid.col == owner else None
                    along.append((yield from grid.bcast_row(mine, owner)))
                down = []
                for owner in range(s):
                    mine = (owner, grid.col) if grid.row == owner else None
                    down.append((yield from grid.bcast_col(mine, owner)))
                return rows, cols, along, down

            res = run_spmd(prog, s * t)
            for rank, got in enumerate(res.return_values):
                i, j = divmod(rank, t)
                # E.g. rank 4 of the 2x3 grid: row mates {3,4,5}, col
                # mates {1,4}.
                assert got == ([i * t + c for c in range(t)],
                               [r * t + j for r in range(s)],
                               [(i, owner) for owner in range(t)],
                               [(owner, j) for owner in range(s)])

    def test_row_comm_rank_is_col(self):
        def prog(ctx):
            grid = CartComm(ctx.world, 2, 3)
            return (grid.row_comm.rank == grid.col,
                    grid.col_comm.rank == grid.row)
            yield  # pragma: no cover

        res = run_spmd(prog, 6)
        assert all(a and b for a, b in res.return_values)

    def test_coords_bounds(self):
        def prog(ctx):
            grid = CartComm(ctx.world, 2, 2)
            try:
                grid.coords(4)
            except CommunicatorError:
                return "raised"
            return "no"
            yield  # pragma: no cover

        res = run_spmd(prog, 4)
        assert res.return_values[0] == "raised"
