"""Independent recomputations the benchmark checks the program against.

Everything here is written from the README's specifications in plain
Python, without importing mcld, so a fault in the program's numpy code
cannot hide behind the same fault here.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_PAIR_DOMAIN = 0xC2B2AE3D27D4EB4F
_VERTEX_DOMAIN = 0x165667B19E3779F9
_CHILD_DOMAIN = 0x27D4EB2F165667C5


def mix64(z: int) -> int:
    """The splitmix64 finalizer, mod 2**64."""
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def child_seed(seed: int, k: int) -> int:
    return mix64(mix64((seed & _MASK) ^ _CHILD_DOMAIN) ^ k)


def _unit_exp(h: int) -> float:
    u = ((h >> 12) + 0.5) * 2.0 ** -52
    return -math.log1p(-u)


def pair_exp(seed: int, i: int, j: int) -> float:
    """Exp(1) pair clock for 1-based labels i < j."""
    return _unit_exp(mix64(mix64(mix64((seed & _MASK) ^ _PAIR_DOMAIN) ^ i) ^ j))


def vertex_exp(seed: int, i: int) -> float:
    return _unit_exp(mix64(mix64((seed & _MASK) ^ _VERTEX_DOMAIN) ^ i))


def within_ulps(a: float, b: float, ulps: int) -> bool:
    return abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


def bound_terms(alpha: float, beta: float, t: float, lam: float) -> tuple[float, float]:
    """The two terms of the conditional sandwich-gap bound:
    2*beta*(1 + t*alpha)**2 and 2*t**2*lam*beta*(1 + t*alpha)*alpha**1.5."""
    return (
        2.0 * beta * (1.0 + t * alpha) ** 2,
        2.0 * t * t * lam * beta * (1.0 + t * alpha) * alpha ** 1.5,
    )


def ks_two_sample(a, b) -> float:
    """Sup distance between the empirical CDFs of two nonempty samples."""
    a, b = sorted(a), sorted(b)
    na, nb = len(a), len(b)
    i = j = 0
    best = 0.0
    while i < na or j < nb:
        x = min(a[i] if i < na else math.inf, b[j] if j < nb else math.inf)
        while i < na and a[i] <= x:
            i += 1
        while j < nb and b[j] <= x:
            j += 1
        best = max(best, abs(i / na - j / nb))
    return best
