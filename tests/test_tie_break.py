"""Tests for the test oracles' multi-key ``(key…, rank)`` argmin."""

from __future__ import annotations

import numpy as np
import pytest
from tie_break import lexicographic_argmin


class TestLexicographicArgmin:
    def test_single_key_with_rank_tie_break(self):
        keys = [np.array([[1.0, 5.0, 2.0], [1.0, 4.0, 2.0]])]
        ranks = np.array([1, 0])
        # col 0: exact tie -> rank 0 wins (row 1); col 1: row 1 smaller;
        # col 2: exact tie -> rank 0 wins (row 1).
        assert lexicographic_argmin(keys, ranks).tolist() == [1, 1, 1]

    def test_secondary_key_breaks_primary_ties(self):
        primary = np.array([[1.0, 1.0], [1.0, 2.0]])
        secondary = np.array([[9.0, 0.0], [3.0, 0.0]])
        ranks = np.array([0, 1])
        assert lexicographic_argmin(
            [primary, secondary], ranks
        ).tolist() == [1, 0]

    def test_matches_python_min_on_random_keys(self):
        rng = np.random.default_rng(3)
        keys = [
            rng.integers(0, 4, size=(5, 40)).astype(float) for _ in range(2)
        ]
        ranks = rng.permutation(5)
        result = lexicographic_argmin(keys, ranks)
        for col in range(40):
            expected = min(
                range(5),
                key=lambda p: (keys[0][p, col], keys[1][p, col], ranks[p]),
            )
            assert result[col] == expected

    def test_requires_a_key(self):
        with pytest.raises(ValueError):
            lexicographic_argmin([], np.array([0]))
