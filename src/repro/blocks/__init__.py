"""Distributed dense matrices: distributions, local tiles, verification.

The paper distributes square matrices over the 2-D processor grid by
*block* (checkerboard) distribution and names *block-cyclic* as future
work; both are implemented here.  Local tiles are either real numpy
arrays or :class:`~repro.payloads.PhantomArray` husks, and the tile
operations in :mod:`repro.blocks.ops` are generic over both so every
algorithm runs unchanged in data mode and in scale (phantom) mode.
"""

from repro.blocks.distribution import BlockCyclicDistribution, BlockDistribution
from repro.blocks.ops import gemm_flops, local_gemm_acc, slice_cols, slice_rows, zeros_like_result
from repro.blocks.verify import max_abs_error, relative_error

__all__ = [
    "BlockDistribution",
    "BlockCyclicDistribution",
    "gemm_flops",
    "local_gemm_acc",
    "slice_cols",
    "slice_rows",
    "zeros_like_result",
    "max_abs_error",
    "relative_error",
]
