"""Code targets and class enumeration (orbit realization is exercised in
the acceptance suite)."""

import pytest

from indefinite_bvp.errors import DomainError
from indefinite_bvp.lyndon import witt_count
from indefinite_bvp.subharmonic import (CodeTarget, _blocks_to_bits,
                                        enumerate_class_representatives)


def test_code_target_validation():
    with pytest.raises(DomainError):
        CodeTarget(1, (1, 0))          # k must be >= 2
    with pytest.raises(DomainError):
        CodeTarget(2, (1, 0, 1))       # length not a multiple of k
    with pytest.raises(DomainError):
        CodeTarget(2, (1, 2))          # not bits
    with pytest.raises(DomainError):
        CodeTarget(2, (0, 0))          # all-zero word


def test_code_target_blocks():
    tgt = CodeTarget(2, (1, 0, 0, 1))  # m = 2: blocks 10 and 01
    assert tgt.m == 2
    assert tgt.word_string == "1001"
    rots = tgt.block_rotations()
    assert rots == [(1, 0, 0, 1), (0, 1, 1, 0)]


def test_blocks_to_bits_round_trip():
    # the blocks 11, 01, 00 of an m = 2 word are the symbols 3, 1, 0
    tgt = CodeTarget(3, (1, 1, 0, 1, 0, 0))
    assert _blocks_to_bits([3, 1, 0], tgt.m) == tgt.word


def test_enumeration_counts():
    for m in (1, 2):
        for k in (2, 3, 4):
            targets = enumerate_class_representatives(m, k)
            assert len(targets) == witt_count(2 ** m, k)
            for t in targets:
                assert t.canonical
                assert t.k == k and t.m == m
                # canonical means minimal among block rotations
                assert tuple(t.word) == min(t.block_rotations())


def test_enumeration_binary_order_three():
    targets = enumerate_class_representatives(1, 3)
    assert [t.word for t in targets] == [(0, 0, 1), (0, 1, 1)]


def test_enumeration_validation():
    with pytest.raises(DomainError):
        enumerate_class_representatives(0, 3)
    with pytest.raises(DomainError):
        enumerate_class_representatives(1, 1)
