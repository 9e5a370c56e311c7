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

Edge enumeration (:func:`edge_arrivals`) hashes the pairs in tiles of
consecutive rows (``ClockField._pair_hits``).  Masses are non-increasing,
so row ``i``'s largest threshold is ``t * (m_i * m_{i+1})``; pairs whose
hash lies above that threshold on the lattice are rejected in integer
arithmetic, and the survivors go through the same float tests, in the same
row-major order, as a plain all-pairs scan.

Two exact facts about ``mix64`` take most of the work out of each pair:

* ``L30(z) = z ^ (z >> 30)`` is linear over GF(2), so the first step of the
  pair's outer ``mix64`` splits as ``L30(p ^ j) = L30(p) ^ L30(j)``, where
  ``p = mix64(mix64(seed ^ D) ^ i)`` is the row prefix.  Both keys are
  computed once per call, one per row and one per column, and a pair costs
  one xor, the two multiplies and the xor-shift by 27 between them, run in
  place on buffers allocated once per call.
* The last step, ``z ^ (z >> 31)``, leaves the top 31 bits of ``z``
  unchanged.  So ``h <= b`` can hold only if ``z <= b | (2**33 - 1)``.  A
  tile is prefiltered against that one scalar, taking for ``b`` the bound of
  its first row (row bounds do not increase), unless the bounds fall by more
  than half across the tile; then each row is prefiltered against its own
  bound.  Only the survivors finish the last step and meet the exact per-row
  bound.

A corrupted field skips the prefilter, so its salt reaches every hash of a
tile, in row-major order, as it would through ``_pair_hash``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInput
from .mass_state import count

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
_S1 = np.uint64(1)
_S12 = np.uint64(12)
_U52 = 2.0 ** -52
_LOW12 = np.uint64(0xFFF)

# pairs hashed per row tile of edge_arrivals; of 2**12 .. 2**18, 2**15
# measured fastest at both support 512 and support 4096.  With the in-place
# kernel, 2**16 ties with it at support 4096 and is 1.6x slower at 512.
_TILE_PAIRS = 1 << 15
# the bits below the 31 that the last step of mix64 leaves unchanged
_LOW33 = np.uint64((1 << 33) - 1)
_ALL64 = np.uint64((1 << 64) - 1)


def _xorshift(z: np.ndarray, s: np.uint64, tmp: np.ndarray | None = None) -> np.ndarray:
    """``z ^ (z >> s)`` in place on ``z``; ``tmp``, when given, takes the shift."""
    return np.bitwise_xor(z, np.right_shift(z, s, out=tmp), out=z)


def _mix_middle(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """The steps of mix64 between its first and last xor-shift, in place."""
    z *= _M1
    _xorshift(z, _S27, tmp)
    z *= _M2
    return z


def _mix64(z: np.ndarray) -> np.ndarray:
    # uint64 array arithmetic wraps mod 2**64 silently; scalars would warn,
    # so every caller passes arrays (possibly length 1).  The first step
    # makes a new array, so the caller's z is never written.
    return _xorshift(_mix_middle(z ^ (z >> _S30)), _S31)


def _to_unit_exp(h: np.ndarray) -> np.ndarray:
    u = ((h >> _S12).astype(np.float64) + 0.5) * _U52
    return -np.log1p(-u)


class ClockField:
    """Stateless family of Exp(1) clocks keyed on a 64-bit seed."""

    __slots__ = ("seed", "_seed_u64", "_corrupt", "_corrupt_counter")

    def __init__(self, seed: int, _corrupt: bool = False):
        self.seed = count(seed, "seed", -math.inf)
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
        h = _mix64(_mix64(base) ^ np.uint64(count(k, "replica index", -math.inf) % (1 << 64)))
        return ClockField(h[0], _corrupt=self._corrupt)

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

    def _pair_hits(
        self, n_pos: int, h_max: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs ``(i, j)`` of labels ``1..n_pos`` whose hash is at most
        ``h_max[i - 1]``: arrays (i, j, hash) in row-major order, which may
        hold pairs with ``j <= i`` too.

        The hashes are those of :meth:`_pair_hash`, computed in tiles of rows
        ``[r0, r1)`` by columns ``(r0, n_pos]``, about ``_TILE_PAIRS`` pairs
        each, as the module docstring sets out.  Needs ``n_pos >= 2``, and
        ``h_max`` must not increase.
        """
        base = np.array([self._seed_u64 ^ _PAIR_DOMAIN], dtype=np.uint64)
        row_key = _xorshift(_mix64(_mix64(base) ^ np.arange(1, n_pos, dtype=np.uint64)), _S30)
        col_key = _xorshift(np.arange(1, n_pos + 1, dtype=np.uint64), _S30)
        # a tile is one row, or at most _TILE_PAIRS pairs with no more rows
        # than columns
        size = max(n_pos - 1, min(_TILE_PAIRS, (n_pos - 1) ** 2))
        # one allocation for both scratch buffers, so that it is not trimmed
        # back to the system and faulted in again on every call
        buf, tmp = np.split(np.empty(2 * size, dtype=np.uint64), 2)
        out_i: list[np.ndarray] = []
        out_j: list[np.ndarray] = []
        out_h: list[np.ndarray] = []
        r0 = 1
        while r0 < n_pos:
            width = n_pos - r0
            r1 = min(n_pos, r0 + max(1, _TILE_PAIRS // width))
            z = buf[: (r1 - r0) * width]
            np.bitwise_xor(
                row_key[r0 - 1 : r1 - 1, None], col_key[None, r0:], out=z.reshape(-1, width)
            )
            _mix_middle(z, tmp[: z.size])
            # the last step keeps the top 31 bits; a corrupted field keeps
            # every hash, so that its salt reaches all of them
            if self._corrupt:
                loose = _ALL64
            elif h_max[r0 - 1] >> _S1 > h_max[r1 - 2]:
                # bounds fall by more than half across the tile: each row
                # meets its own
                loose = (h_max[r0 - 1 : r1 - 1] | _LOW33)[:, None]
            else:
                loose = h_max[r0 - 1] | _LOW33
            flat = np.flatnonzero(z.reshape(-1, width) <= loose)
            h = self._finalize(_xorshift(z[flat], _S31))
            hit = h <= h_max[flat // width + (r0 - 1)]
            i, j = np.divmod(flat[hit], width)
            out_i.append(i + r0)
            out_j.append(j + (r0 + 1))
            out_h.append(h[hit])
            r0 = r1
        return np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_h)

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

    Masses are non-increasing, so every pair of row ``i`` has threshold at
    most ``t * (m_i * m_{i+1})``; the field gives the pairs of positive-mass
    vertices whose hash lattice point is not above it (``field._pair_hits``;
    the bound is clipped below 1, so it fits in 64 bits).  Those with
    ``j > i`` go through the tests of a plain scan: the cheap filter
    ``u <= t * m_i * m_j`` (valid because ``-log1p(-u) >= u``), then
    ``time <= t``.
    """
    masses = np.asarray(masses, dtype=np.float64)
    n_pos = _positive_support(masses)
    if not (n_pos >= 2 and t > 0.0):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=np.float64)
    # masses are non-increasing, so m_1 bounds every pair's rate
    m1 = float(masses[0])
    _check_finite_rate(t * (m1 * m1), "t * m_1^2")
    # row i keeps at most the lattice points k = h >> 12 with
    # (k + 0.5) * 2**-52 <= t * (m_i * m_{i+1}), so k <= that bound times
    # 2**52 (astype truncates, a floor on these nonnegative values);
    # clipping below 1 keeps k_max <= 2**52 - 1 and h_max in 64 bits
    row_max = np.minimum(t * (masses[: n_pos - 1] * masses[1:n_pos]), 1.0 - _U52)
    h_max = ((row_max * 2.0 ** 52).astype(np.uint64) << _S12) | _LOW12
    i, j, h = field._pair_hits(n_pos, h_max)
    product = masses[i - 1] * masses[j - 1]
    u = ((h >> _S12).astype(np.float64) + 0.5) * _U52
    rough = (j > i) & (u <= t * product)
    i, j, u, product = i[rough], j[rough], u[rough], product[rough]
    times = -np.log1p(-u) / product
    keep = times <= t
    return i[keep], j[keep], times[keep]


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
    # a time past the float range, or a rate below it, reads inf: never rings
    with np.errstate(over="ignore", divide="ignore"):
        times = field.vertex_exps(v) / (lam * masses[:n_pos])
    keep = times <= t
    return v[keep], times[keep]
