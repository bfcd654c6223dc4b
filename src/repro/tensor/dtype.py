"""bfloat16 emulation and mixed-precision helpers.

NumPy has no native bfloat16, so we emulate it the way the hardware
defines it: a bf16 value is a float32 whose bottom 16 mantissa bits are
zero.  :func:`to_bf16` rounds a float array to the nearest representable
bf16 (round-to-nearest-even, as A100/MI250X tensor cores do) and returns
it as float32, which NumPy can then compute with.  Training "in bf16"
means rounding operands through this function at the same points a mixed
precision framework would (matmul inputs and outputs), while keeping
master weights and optimizer state in float32 — exactly the paper's
bf16/fp32 recipe (Section VI-A).
"""

from __future__ import annotations

import numpy as np

__all__ = ["to_bf16"]

#: Machine epsilon of bfloat16 (7 explicit mantissa bits => spacing of
#: 2**-7 at 1.0); the max relative rounding error is half this.
BF16_EPS = 2.0 ** -7


def to_bf16(x: np.ndarray | float) -> np.ndarray:
    """Round ``x`` to bfloat16 precision, returned as float32.

    Uses round-to-nearest-even on the 16 truncated mantissa bits,
    matching IEEE-754 conversion semantics and GPU tensor-core behaviour.
    NaNs and infinities pass through unchanged (their exponent field is
    preserved by the masking).
    """
    x32 = np.ascontiguousarray(x, dtype=np.float32)
    bits = x32.view(np.uint32)
    # Round half to even: add 0x7FFF plus the LSB of the retained part.
    rounded = (bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))) & np.uint32(
        0xFFFF0000
    )
    # NaN payloads must stay NaN: the rounding above can only carry into
    # the exponent for finite values, turning them into the next binade
    # or inf, which is correct round-to-nearest behaviour.  A NaN input
    # keeps a nonzero mantissa top bit, so it stays NaN.
    out = rounded.view(np.float32)
    if np.isnan(x32).any():
        out = np.where(np.isnan(x32), np.float32(np.nan), out)
    return out.reshape(np.shape(x))
