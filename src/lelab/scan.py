"""Vectorized region scan over a (p, q) window (the stability-map data).

Every cell of a resolution x resolution lattice is classified with one of
three codes:

    0  below the Sobolev hyperbola (no radial solutions),
    1  on/above the hyperbola but below the critical curve (no stable
       radial solutions),
    2  on or above the critical curve (the stable region; empty for
       N <= 10 once restricted to the super-Sobolev set).

Cells with q > p are mirrored to (q, p): both margins are symmetric under
the exchange.  Sub-Sobolev cells take code 0 even where the raw curve
margin happens to be positive (the spurious sliver near alpha = N-2 where
K1 K2 -> 0 lies below the hyperbola and does not belong to the curve).

``scan_codes`` evaluates the lattice in blocks of whole rows, about
``_BLOCK_CELLS`` cells each.  The kernel makes some forty float64
temporaries.  Over a whole 400^2 lattice each holds 1.28 MB, above glibc's
default mmap threshold, so the allocator maps and page-faults each afresh;
a block's hold 64 KiB.  Every cell is computed elementwise, so the codes do
not depend on the block size, but the time does: blocks of 8192 cells
halve the kernel's time per 400^2 scan of the benchmark's map workload,
and blocks of 32k cells (256 KiB temporaries) are as slow as the whole
lattice.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exponents import _TOL_CURVE, _curve_floor, check_dimension, curve_margins
from .options import _is_finite

__all__ = ["ScanResult", "scan_codes", "region_codes"]

_BLOCK_CELLS = 8192  # cells per block of rows in ``scan_codes``


@dataclass(frozen=True)
class ScanResult:
    p: np.ndarray
    q: np.ndarray
    codes: np.ndarray  # (resolution, resolution), [i, j] ~ (p_i, q_j)
    counts: tuple  # cells with code 0, 1 and 2

    def cell_count(self) -> int:
        return int(self.codes.size)


def region_codes(p: np.ndarray, q: np.ndarray, N: int) -> np.ndarray:
    """Vectorized region code for arrays of exponent pairs (broadcast), in
    ``classify``'s bands (``exponents._curve_floor``)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    hi = np.maximum(p, q)
    lo = np.minimum(p, q)
    if np.any(lo < 1.0):
        raise DomainError("scan window must satisfy p, q >= 1")
    # p q = 1 (alpha = inf) divides by zero and p q overflows on wide
    # windows (margin nan): such cells fail the validity mask or the band
    with np.errstate(all="ignore"):
        sob, margin, k1k2, alpha = curve_margins(hi, lo, N)
        on_or_above = (alpha < N - 2.0) & (
            margin >= _curve_floor(k1k2, np.maximum))
    super_sob = sob >= -_TOL_CURVE
    codes = np.zeros(np.broadcast(p, q).shape, dtype=np.int8)
    codes[super_sob] = 1
    codes[super_sob & on_or_above] = 2
    return codes


def scan_codes(N: int, window, resolution: int) -> ScanResult:
    """Region codes on a resolution^2 lattice over the given window."""
    N = check_dimension(N, 1)
    # a bool or a value no finite double holds reads nan, which is refused
    p_min, p_max, q_min, q_max = (float(x) if _is_finite(x) else math.nan
                                  for x in window)
    if not (1.0 <= p_min < p_max and 1.0 <= q_min < q_max):
        raise DomainError("window must satisfy 1 <= min < max < inf on both axes")
    if not (isinstance(resolution, numbers.Integral)
            and not isinstance(resolution, bool) and resolution >= 1):
        raise DomainError(f"resolution must be an integer >= 1, got {resolution!r:.40}")
    p = np.linspace(p_min, p_max, resolution) if resolution > 1 else np.array([p_min])
    q = np.linspace(q_min, q_max, resolution) if resolution > 1 else np.array([q_min])
    codes = np.empty((resolution, resolution), dtype=np.int8)
    counts = np.zeros(3, dtype=np.int64)
    rows = max(1, _BLOCK_CELLS // q.size)
    for i in range(0, resolution, rows):
        block = codes[i:i + rows]
        block[...] = region_codes(p[i:i + rows, None], q[None, :], N)
        counts += np.bincount(block.ravel(), minlength=3)
    return ScanResult(p=p, q=q, codes=codes, counts=tuple(counts.tolist()))
