"""Exact combinatorics: Moebius values, Witt counts against brute-force
necklace enumeration, and Lyndon word generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indefinite_bvp.errors import DomainError
from indefinite_bvp.lyndon import (Word, canonical_rotation, lyndon_words,
                                   mobius, witt_count)

S2 = {2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30, 9: 56, 10: 99}
S4 = {2: 6, 3: 20, 4: 60, 5: 204, 6: 670, 7: 2340, 8: 8160, 9: 29120,
      10: 104754}


def brute_force_lyndon_count(n, k):
    """Count length-k words over n letters that are strict minima of their
    rotation class, by vectorized base-n rotation arithmetic."""
    v0 = np.arange(n ** k, dtype=np.int64)
    shift = n ** (k - 1)
    rots = []
    v = v0
    for _ in range(k - 1):
        v = (v % shift) * n + v // shift
        rots.append(v)
    if not rots:
        return len(v0)
    other_min = np.min(np.stack(rots), axis=0)
    return int(np.count_nonzero(v0 < other_min))


def is_lyndon(symbols):
    k = len(symbols)
    return all(symbols < symbols[i:] + symbols[:i] for i in range(1, k))


def test_mobius_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0,
                10: 1, 12: 0, 30: -1, 210: 1}
    for l, mu in expected.items():
        assert mobius(l) == mu


def test_mobius_domain():
    with pytest.raises(DomainError):
        mobius(0)


def test_witt_binary_table():
    for k, count in S2.items():
        assert witt_count(2, k) == count


def test_witt_quaternary_table():
    for k, count in S4.items():
        assert witt_count(4, k) == count


def test_witt_equals_brute_force():
    for n in (2, 3, 4):
        for k in range(1, 11):
            assert witt_count(n, k) == brute_force_lyndon_count(n, k)


def test_witt_domain():
    with pytest.raises(DomainError):
        witt_count(1, 3)
    with pytest.raises(DomainError):
        witt_count(2, 0)


def test_lyndon_words_are_lyndon_and_complete():
    for n in (2, 3):
        for k in range(1, 8):
            words = lyndon_words(n, k)
            assert len(words) == witt_count(n, k)
            syms = [w.symbols for w in words]
            assert syms == sorted(syms)
            assert all(is_lyndon(s) for s in syms)


def test_word_validation():
    with pytest.raises(DomainError):
        Word((0, 2), 2)


def test_canonical_rotation():
    w, aperiodic = canonical_rotation(Word((1, 0, 0), 2))
    assert w.symbols == (0, 0, 1) and aperiodic
    w, aperiodic = canonical_rotation(Word((0, 1, 0, 1), 2))
    assert w.symbols == (0, 1, 0, 1) and not aperiodic
    with pytest.raises(DomainError):
        canonical_rotation(Word((), 2))


@given(st.integers(2, 5), st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_witt_matches_brute_force_property(n, k):
    assert witt_count(n, k) == brute_force_lyndon_count(n, k)


@given(st.integers(2, 4), st.integers(1, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_canonical_rotation_invariant(n, k, data):
    symbols = tuple(data.draw(st.integers(0, n - 1)) for _ in range(k))
    base, _ = canonical_rotation(Word(symbols, n))
    for i in range(k):
        rot = symbols[i:] + symbols[:i]
        again, _ = canonical_rotation(Word(rot, n))
        assert again.symbols == base.symbols
