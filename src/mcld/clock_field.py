"""Deterministic lazy exponential clocks that drive every simulation.

A :class:`ClockField` is a pure function from ``(seed, domain, indices)`` to
unit-rate exponential values.  Pair clocks govern edge arrivals (the edge
``{i, j}`` appears once ``t * m_i * m_j`` exceeds the pair clock) and vertex
clocks govern lightning strikes.  Because values depend only on the seed and
the queried indices, any two runs sharing a seed see identical clocks on
whatever index sets they touch; that is what makes coupled comparisons
between different initial states exact rather than merely distributional.

PRF construction (fixed; documented so outputs are bit-reproducible):

* ``mix64`` is the splitmix64 finalizer, operating mod 2**64::

      z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
      z ^= z >> 27;  z *= 0x94D049BB133111EB
      z ^= z >> 31

* pair clock, unordered indices canonicalized to ``i < j`` (1-based)::

      h = mix64(mix64(mix64(seed ^ 0xC2B2AE3D27D4EB4F) ^ i) ^ j)

* vertex clock::

      h = mix64(mix64(seed ^ 0x165667B19E3779F9) ^ i)

* replica derivation (``child(k)``)::

      seed_k = mix64(mix64(seed ^ 0x27D4EB2F165667C5) ^ k)

* uniform variate from the high 52 bits, offset half a lattice step so it
  lies strictly inside (0, 1) (both lattice endpoints are exactly
  representable doubles), then the inverse exponential CDF::

      u  = ((h >> 12) + 0.5) * 2**-52
      xi = -log1p(-u)

The integer layer is exact on any platform; the float layer uses IEEE-754
double operations and ``log1p``.

Edge enumeration (:func:`edge_arrivals`) walks the pairs in tiles of
consecutive rows, hashing each tile as one broadcast so that the row prefix
``mix64(mix64(seed ^ D) ^ i)`` is computed once per row and each pair costs
one ``mix64``.  Masses are non-increasing, so row ``i``'s largest threshold
is ``t * (m_i * m_{i+1})``; pairs whose hash lies above that threshold on the
lattice are rejected in integer arithmetic, and the survivors go through the
same float tests, in the same row-major order, as a plain all-pairs scan.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInput

__all__ = [
    "ClockField",
    "edge_arrivals",
    "strike_arrivals",
    "pair_count",
    "pair_index_decode",
]

_PAIR_DOMAIN = np.uint64(0xC2B2AE3D27D4EB4F)
_VERTEX_DOMAIN = np.uint64(0x165667B19E3779F9)
_CHILD_DOMAIN = np.uint64(0x27D4EB2F165667C5)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S12 = np.uint64(12)
_U52 = 2.0 ** -52
_LOW12 = np.uint64(0xFFF)

# pairs hashed per row tile of edge_arrivals; of 2**12 .. 2**18, 2**15
# measured fastest at both support 512 and support 4096
_TILE_PAIRS = 1 << 15


def _mix64(z: np.ndarray) -> np.ndarray:
    # uint64 array arithmetic wraps mod 2**64 silently; scalars would warn,
    # so every caller passes arrays (possibly length 1).
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _to_unit_exp(h: np.ndarray) -> np.ndarray:
    u = ((h >> _S12).astype(np.float64) + 0.5) * _U52
    return -np.log1p(-u)


class ClockField:
    """Stateless family of Exp(1) clocks keyed on a 64-bit seed."""

    __slots__ = ("seed", "_seed_u64", "_corrupt", "_corrupt_counter")

    def __init__(self, seed: int, _corrupt: bool = False):
        self.seed = int(seed)
        self._seed_u64 = np.uint64(self.seed % (1 << 64))
        # test hook: when corrupted, a hidden query counter leaks into the
        # hash, violating purity so that coupled runs diverge
        self._corrupt = bool(_corrupt)
        self._corrupt_counter = 0

    def __repr__(self) -> str:
        return f"ClockField(seed={self.seed})"

    def child(self, k: int) -> "ClockField":
        """Derived field for replica ``k``; independent of the parent's clocks."""
        base = np.array([self._seed_u64 ^ _CHILD_DOMAIN], dtype=np.uint64)
        h = _mix64(_mix64(base) ^ np.uint64(int(k) % (1 << 64)))
        return ClockField(int(h[0]), _corrupt=self._corrupt)

    def _finalize(self, h: np.ndarray) -> np.ndarray:
        if self._corrupt:
            k = self._corrupt_counter
            self._corrupt_counter += h.size
            salt = _mix64(np.arange(k, k + h.size, dtype=np.uint64))
            h = h ^ salt.reshape(h.shape)
        return h

    def _pair_hash(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Pair hashes for broadcastable uint64 index arrays ``i`` and ``j``.

        Returns an array of the broadcast shape of ``i`` and ``j``.  The row
        prefix depends on ``i`` alone, so ``i`` of shape (R, 1) against ``j``
        of shape (1, C) mixes R prefixes and R * C pairs.
        """
        base = np.array([self._seed_u64 ^ _PAIR_DOMAIN], dtype=np.uint64)
        h = _mix64(_mix64(_mix64(base) ^ i) ^ j)
        return self._finalize(h)

    def _vertex_hash(self, i: np.ndarray) -> np.ndarray:
        base = np.array([self._seed_u64 ^ _VERTEX_DOMAIN], dtype=np.uint64)
        h = _mix64(_mix64(base) ^ i)
        return self._finalize(h)

    def pair_exps(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Exp(1) values for index arrays already canonicalized to i < j."""
        return _to_unit_exp(self._pair_hash(i.astype(np.uint64), j.astype(np.uint64)))

    def vertex_exps(self, i: np.ndarray) -> np.ndarray:
        return _to_unit_exp(self._vertex_hash(i.astype(np.uint64)))


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index_decode(e: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the row-major enumeration of pairs (i, j), 1 <= i < j <= n.

    Pair (i, j) has linear index base(i) + (j - i - 1) with
    base(i) = (i - 1) * (2n - i) / 2.  The float solve for i is followed by
    an exact integer fix-up, so the decode is correct for any n with
    pair_count(n) < 2**53.
    """
    e = e.astype(np.int64)
    twon = 2 * n - 1
    i = ((twon - np.sqrt(twon * twon - 8.0 * e)) / 2.0).astype(np.int64) + 1
    i = np.clip(i, 1, n - 1)

    def base(ii: np.ndarray) -> np.ndarray:
        return (ii - 1) * (2 * n - ii) // 2

    # float rounding can be off by one in either direction
    i = np.where(base(i) > e, i - 1, i)
    i = np.where(base(i + 1) <= e, i + 1, i)
    j = e - base(i) + i + 1
    return i, j


def _positive_support(masses: np.ndarray) -> int:
    # masses are non-increasing, so the positive entries form a prefix
    return int(np.searchsorted(-masses, 0.0, side="left"))


def _check_finite_rate(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise InvalidInput(f"{what} is not finite; the clock rates overflow")


def edge_arrivals(
    field: ClockField, masses: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All edges with arrival time <= t: arrays (i, j, time), i < j, 1-based,
    in row-major order.

    The pairs of positive-mass vertices are hashed in tiles of rows
    ``[r0, r1)`` by columns ``(r0, n_pos]``, about ``_TILE_PAIRS`` pairs per
    tile, as one broadcast ``field._pair_hash(rows[:, None], cols[None, :])``.
    Masses are non-increasing, so every pair of row ``i`` has threshold at
    most ``t * (m_i * m_{i+1})``; a hash whose lattice point lies above it
    (clipped below 1, so the bound fits in 64 bits) is rejected without
    leaving the integer domain.  On the survivors with ``j > i`` the float
    tests are those of a plain scan: the cheap filter ``u <= t * m_i * m_j``
    (valid because ``-log1p(-u) >= u``), then ``time <= t``.
    """
    masses = np.asarray(masses, dtype=np.float64)
    n_pos = _positive_support(masses)
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_t: list[np.ndarray] = []
    if n_pos >= 2 and t > 0.0:
        # masses are non-increasing, so m_1 bounds every pair's rate
        m1 = float(masses[0])
        _check_finite_rate(t * (m1 * m1), "t * m_1^2")
        # row i keeps at most the lattice points k = h >> 12 with
        # (k + 0.5) * 2**-52 <= t * (m_i * m_{i+1}), so k <= that bound times
        # 2**52 (astype truncates, a floor on these nonnegative values);
        # clipping below 1 keeps k_max <= 2**52 - 1 and h_max in 64 bits
        row_max = np.minimum(t * (masses[: n_pos - 1] * masses[1:n_pos]), 1.0 - _U52)
        h_max = ((row_max * 2.0 ** 52).astype(np.uint64) << _S12) | _LOW12
        r0 = 1
        while r0 < n_pos:
            width = n_pos - r0
            r1 = min(n_pos, r0 + max(1, _TILE_PAIRS // width))
            rows = np.arange(r0, r1, dtype=np.uint64)
            cols = np.arange(r0 + 1, n_pos + 1, dtype=np.uint64)
            h = field._pair_hash(rows[:, None], cols[None, :])
            flat = np.flatnonzero(h <= h_max[r0 - 1 : r1 - 1, None])
            i, j = np.divmod(flat, width)
            i += r0
            j += r0 + 1
            product = masses[i - 1] * masses[j - 1]
            u = ((h.ravel()[flat] >> _S12).astype(np.float64) + 0.5) * _U52
            rough = (j > i) & (u <= t * product)
            i, j, u, product = i[rough], j[rough], u[rough], product[rough]
            times = -np.log1p(-u) / product
            keep = times <= t
            out_i.append(i[keep])
            out_j.append(j[keep])
            out_t.append(times[keep])
            r0 = r1
    if not out_i:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=np.float64)
    return np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_t)


def strike_arrivals(
    field: ClockField, masses: np.ndarray, lam: float, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """All lightning strikes with time <= t: arrays (vertex, time), 1-based."""
    masses = np.asarray(masses, dtype=np.float64)
    n_pos = _positive_support(masses)
    if n_pos == 0 or lam <= 0.0 or t <= 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    _check_finite_rate(lam * float(masses[0]), "lambda * m_1")
    v = np.arange(1, n_pos + 1, dtype=np.int64)
    times = field.vertex_exps(v) / (lam * masses[:n_pos])
    keep = times <= t
    return v[keep], times[keep]
