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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exponents import curve_margins

__all__ = ["ScanResult", "scan_codes", "region_codes"]


@dataclass(frozen=True)
class ScanResult:
    N: int
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    resolution: int
    p: np.ndarray
    q: np.ndarray
    codes: np.ndarray  # (resolution, resolution), [i, j] ~ (p_i, q_j)
    tol_curve: float

    def cell_count(self) -> int:
        return int(self.codes.size)


def region_codes(p: np.ndarray, q: np.ndarray, N: int,
                 tol_curve: float = 1e-9) -> np.ndarray:
    """Vectorized region code for arrays of exponent pairs (broadcast)."""
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
            margin >= -tol_curve * np.maximum(1.0, k1k2))
    super_sob = sob >= -tol_curve
    codes = np.zeros(np.broadcast(p, q).shape, dtype=np.int8)
    codes[super_sob] = 1
    codes[super_sob & on_or_above] = 2
    return codes


def scan_codes(N: int, window, resolution: int,
               tol_curve: float = 1e-9) -> ScanResult:
    """Region codes on a resolution^2 lattice over the given window."""
    if int(N) != N or N < 1:
        raise DomainError("integer N >= 1 required")
    p_min, p_max, q_min, q_max = map(float, window)
    if not (1.0 <= p_min < p_max and 1.0 <= q_min < q_max):
        raise DomainError("window must satisfy 1 <= min < max on both axes")
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    p = np.linspace(p_min, p_max, resolution) if resolution > 1 else np.array([p_min])
    q = np.linspace(q_min, q_max, resolution) if resolution > 1 else np.array([q_min])
    codes = region_codes(p[:, None], q[None, :], N, tol_curve)
    return ScanResult(
        N=int(N), p_min=p_min, p_max=p_max, q_min=q_min, q_max=q_max,
        resolution=int(resolution), p=p, q=q, codes=codes,
        tol_curve=tol_curve,
    )
