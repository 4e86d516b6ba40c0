"""Deterministic random sampling.

derive-law's check of its table against the composition, the one
randomized check left, draws from a single 64-bit seed through a
counter-based generator (splitmix64), so any run is byte-for-byte
reproducible on every platform.  The generator is six lines
of integer arithmetic; platform float quirks and library version drift
cannot touch it.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1


class SplitMix64:
    """Counter-based 64-bit generator (splitmix64 mixing function)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (unbiased enough for test sampling)."""
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def rational(self) -> Fraction:
        """Small random rational: numerator in [-9, 9], denominator in [1, 4]."""
        return Fraction(self.randint(-9, 9), self.randint(1, 4))

    def rationals(self, n: int) -> "list[Fraction]":
        return [self.rational() for _ in range(n)]
