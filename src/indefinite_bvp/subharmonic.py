"""Subharmonic solutions with prescribed binary codes.

A kT-periodic solution carries one bit per positivity hump of the weight
over [0, kT]; grouping the bits in blocks of m (one block per period)
turns the code into a word over the alphabet {0,1}^m.  Words equivalent
under cyclic rotation by whole blocks describe time translates of the
same orbit, so the subharmonic classes of order k are counted by Lyndon
words of length k over an alphabet of size 2^m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnclassifiableError
from .lyndon import lyndon_words
from .shooting import adaptive_levels, classify_code, find_periodic_solutions


@dataclass(frozen=True)
class CodeTarget:
    """Prescribed code for a kT-periodic solution.

    ``word`` lists one bit per positivity hump over [0, kT] (m bits per
    period, first hump first), so len(word) = m*k.  ``canonical`` marks
    the lexicographic minimum among rotations by whole m-blocks.
    """

    k: int
    word: tuple
    canonical: bool = False

    def __post_init__(self):
        if self.k < 2:
            raise DomainError("subharmonic targets need k >= 2")
        if len(self.word) % self.k != 0:
            raise DomainError("word length must be a multiple of k")
        if any(b not in (0, 1) for b in self.word):
            raise DomainError("word entries must be bits")
        if not any(self.word):
            raise DomainError("the all-zero word has no positive solution")

    @property
    def m(self):
        return len(self.word) // self.k

    @property
    def word_string(self):
        return "".join(str(b) for b in self.word)

    def block_rotations(self):
        """All rotations of the word by whole m-blocks."""
        m = self.m
        w = list(self.word)
        return [tuple(w[j * m:] + w[:j * m]) for j in range(self.k)]

    def matches(self, code):
        """Whether a record's code realizes this target; a canonical
        target accepts every block rotation, since rotations are time
        translates of one orbit."""
        code = tuple(code)
        return code == tuple(self.word) or \
            (self.canonical and code in self.block_rotations())


def _blocks_to_bits(symbols, m):
    bits = []
    for sym in symbols:
        bits.extend((sym >> (m - 1 - i)) & 1 for i in range(m))
    return tuple(bits)


def enumerate_class_representatives(m, k):
    """Canonical targets for the subharmonic classes of order k.

    One CodeTarget per Lyndon word of length k over the 2^m-letter block
    alphabet; the list length is the Witt number S_{2^m}(k).
    """
    if m < 1 or k < 2:
        raise DomainError("need m >= 1 and k >= 2")
    out = []
    for w in lyndon_words(2 ** m, k):
        word = _blocks_to_bits(w.symbols, m)
        if not any(word):
            continue  # the all-zero letter word encodes no solution
        out.append(CodeTarget(k, word, canonical=True))
    return out


def minimal_period_multiple(rec, p):
    """Smallest divisor l of rec.k with u(t + lT) = u(t) within
    1e-6 * (1 + sup-norm)."""
    k = rec.k
    T = p.period
    traj = rec.trajectory
    t0, _ = traj.span
    tol = 1e-6 * (1.0 + rec.sup_norm)
    for l in range(1, k + 1):
        if k % l != 0:
            continue
        ts = np.linspace(t0, t0 + (k - l) * T, max(257, 128 * k))
        du = traj.eval(ts + l * T)[:, 0] - traj.eval(ts)[:, 0]
        if float(np.max(np.abs(du))) < tol:
            rec.min_period_multiple = l
            return l
    rec.min_period_multiple = k
    return k


def classify_records(recs, p):
    """Classify records in place: a code for each, and the minimal period
    multiple for each periodic one.

    The levels (r, R) are inferred from ``recs``.  A record whose hump
    maximum sits on a level is flagged ``unclassifiable`` and keeps
    ``code`` None.  Returns the levels (None when there are no records).
    """
    if not recs:
        return None
    levels = adaptive_levels(recs, p)
    for rec in recs:
        try:
            classify_code(rec, p, *levels)
        except UnclassifiableError:
            rec.unclassifiable = True
        if rec.boundary == "periodic":
            minimal_period_multiple(rec, p)
    return levels


def coded_records(p, k, sc=None):
    """Classified kT-periodic records of one search, unclassifiable ones
    left out."""
    recs = find_periodic_solutions(p, k, sc)
    classify_records(recs, p)
    return [rec for rec in recs if not rec.unclassifiable]

