"""Exact integer GEMM on a float64 BLAS kernel.

NumPy has no BLAS kernel for integer matrices: ``int64 @ int64`` runs a
naive loop.  The analog path only ever multiplies small integer codes
(8-bit inputs and weights), so each of its GEMMs runs as one float64 BLAS
GEMM instead.  That is exact whenever ``k * max|a| * max|b| < 2**53``:
every product and every partial sum is then an integer float64 holds
exactly, in any summation order, so the result is bit-identical to the
``int64`` path.  For 8-bit codes on a 1024-row tile the largest sum is
``1024 * 255 * 255 = 66,585,600``, far below ``2**53``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

#: Integers up to this magnitude are exact in float64.
EXACT_LIMIT = 1 << 53


def _abs_bound(arr: np.ndarray) -> int:
    """Largest magnitude in ``arr`` (0 when empty), as a Python int."""
    if arr.size == 0:
        return 0
    lo, hi = arr.min(), arr.max()
    if arr.dtype.kind == "f":
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("integer GEMM operands must be finite")
        return math.ceil(max(-float(lo), float(hi)))
    return max(-int(lo), int(hi))


def exact_int_matmul(
    a: np.ndarray,
    b: np.ndarray,
    a_bound: Optional[int] = None,
    b_bound: Optional[int] = None,
) -> np.ndarray:
    """``a @ b`` of integer-valued operands as one exact float64 GEMM.

    Parameters
    ----------
    a, b:
        Operands of shape (m, k) and (k, n) holding integers (any integer
        or float dtype).
    a_bound, b_bound:
        Known bounds on ``|a|`` and ``|b|``, for operands the caller has
        already range-checked; measured from the data when omitted.

    Returns
    -------
    The (m, n) float64 product, equal to ``(a.astype(int64) @
    b.astype(int64)).astype(float)`` (zeros are ``+0.0``).

    Raises
    ------
    ValueError
        When ``k * a_bound * b_bound`` reaches ``2**53``, so that a partial
        sum might not be exact in float64.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    k = a.shape[-1]
    if a_bound is None:
        a_bound = _abs_bound(a)
    if b_bound is None:
        b_bound = _abs_bound(b)
    if k * a_bound * b_bound >= EXACT_LIMIT:
        raise ValueError(
            f"integer GEMM not exact in float64: k={k}, |a|<={a_bound}, "
            f"|b|<={b_bound} allow sums of 2**53 or more"
        )
    out = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
    # A sum of negative-zero products is -0.0; the integer path gives +0.0.
    out += 0.0
    return out
