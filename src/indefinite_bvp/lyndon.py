"""Exact combinatorics of cyclic binary codes: Moebius function, counts of
aperiodic necklace classes, and Lyndon word generation."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Word:
    """A word over the alphabet ``{0, ..., n-1}``."""

    symbols: tuple
    n: int

    def __post_init__(self):
        if any(not (0 <= x < self.n) for x in self.symbols):
            raise DomainError("symbols must lie in [0, %d)" % self.n)

    def __len__(self):
        return len(self.symbols)


def mobius(l):
    """Moebius function by trial division."""
    if l < 1:
        raise DomainError("mobius is defined for integers >= 1")
    result = 1
    d = 2
    while d * d <= l:
        if l % d == 0:
            l //= d
            if l % d == 0:
                return 0
            result = -result
        d += 1
    if l > 1:
        result = -result
    return result


def _divisors(k):
    small, large = [], []
    d = 1
    while d * d <= k:
        if k % d == 0:
            small.append(d)
            if d != k // d:
                large.append(k // d)
        d += 1
    return small + large[::-1]


def witt_count(n, k):
    """Number of n-ary Lyndon words of length k (exact integer)."""
    if n < 2 or k < 1:
        raise DomainError("need n >= 2 and k >= 1")
    total = sum(mobius(l) * n ** (k // l) for l in _divisors(k))
    assert total % k == 0
    return total // k


def lyndon_words(n, k):
    """All n-ary Lyndon words of length exactly k, in lexicographic order.

    Standard iterative w-extension generation (output-linear time).
    """
    if n < 2 or k < 1:
        raise DomainError("need n >= 2 and k >= 1")
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == k:
            out.append(Word(tuple(w), n))
        # extend periodically up to length k
        while len(w) < k:
            w.append(w[-m])
        # discard trailing maximal symbols
        while w and w[-1] == n - 1:
            w.pop()
    return out


def canonical_rotation(w):
    """Lexicographically minimal rotation of ``w`` and whether ``w`` is
    aperiodic (no proper rotation equals the word itself)."""
    if len(w.symbols) == 0:
        raise DomainError("word must be nonempty")
    syms = w.symbols
    k = len(syms)
    rotations = [syms[i:] + syms[:i] for i in range(k)]
    best = min(rotations)
    aperiodic = all(rotations[i] != syms for i in range(1, k))
    return Word(best, w.n), aperiodic
