import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gini_bounds import DomainError, RankSample, gamma_rank_statistic


def test_comonotone_and_countermonotone_n4():
    up = RankSample(tuple((i, i) for i in range(1, 5)))
    assert gamma_rank_statistic(up) == 1.0
    down = RankSample(tuple((i, 5 - i) for i in range(1, 5)))
    assert gamma_rank_statistic(down) == -1.0


def test_two_observation_sample():
    assert gamma_rank_statistic(RankSample(((1, 1), (2, 2)))) == 1.0


@pytest.mark.parametrize("n", range(2, 11))
def test_extremes_for_all_small_n(n):
    up = RankSample(tuple((i, i) for i in range(1, n + 1)))
    down = RankSample(tuple((i, n + 1 - i) for i in range(1, n + 1)))
    assert gamma_rank_statistic(up) == 1.0
    assert gamma_rank_statistic(down) == -1.0


def test_malformed_ranks_reported():
    with pytest.raises(DomainError, match=r"duplicates \[1\], missing \[2\]"):
        RankSample(((1, 1), (1, 2)))
    with pytest.raises(DomainError, match="s-ranks"):
        RankSample(((1, 2), (2, 2)))
    with pytest.raises(DomainError, match="at least 2"):
        RankSample(((1, 1),))
    with pytest.raises(DomainError, match="integers"):
        RankSample(((1.5, 1), (2, 2)))
    with pytest.raises(DomainError, match="pairs of integers"):
        RankSample(((float("nan"), 1), (2, 2)))
    with pytest.raises(DomainError, match="pairs of integers"):
        RankSample(((1, 1, 1), (2, 2)))
    # int(True) is 1 and (True, 1) == (1, 1), so only the type tells; numpy
    # ints stay ranks.
    for pairs in (((True, 1), (2, 2)), ((1, 1), (2, np.True_)), ((1, False), (2, 2))):
        with pytest.raises(DomainError, match="ranks must be integers"):
            RankSample(pairs)
    # The first pair that breaks the rule is named, bool or fraction.
    with pytest.raises(DomainError, match=re.escape("ranks must be integers, got (True, 1)")):
        RankSample(((True, 1), (1.5, 2)))
    # A one-shot iterable is checked as the tuple of its items.
    with pytest.raises(DomainError, match=re.escape("ranks must be integers, got (1.5, 1)")):
        RankSample(p for p in [(1.5, 1), (2, 2)])
    with pytest.raises(DomainError, match=re.escape("ranks must be integers, got (True, 1)")):
        RankSample(iter([(True, 1), (2, 2)]))
    assert RankSample(p for p in [(2, 1), (1, 2)]).ranks == ((2, 1), (1, 2))
    assert RankSample(((np.int64(1), 2), (2, np.int32(1)))).ranks == ((1, 2), (2, 1))


def test_numpy_and_float_ranks_store_builtin_ints():
    # A numpy (n, 2) int array, and rankdata-style float ranks 1.0 .. n.
    n = 6
    pairs = np.column_stack([np.arange(1, n + 1), np.arange(n, 0, -1)])
    for ranks in (pairs, pairs.astype(float)):
        sample = RankSample(ranks)
        assert sample.ranks == tuple((i, n + 1 - i) for i in range(1, n + 1))
        assert {type(x) for pair in sample.ranks for x in pair} == {int}
        assert gamma_rank_statistic(sample) == -1.0


@given(st.permutations(list(range(1, 13))), st.permutations(list(range(12))))
def test_invariant_under_reordering_observations(s_ranks, order):
    n = len(s_ranks)
    pairs = [(i + 1, s_ranks[i]) for i in range(n)]
    reordered = [pairs[k] for k in order]
    assert gamma_rank_statistic(RankSample(tuple(pairs))) == gamma_rank_statistic(
        RankSample(tuple(reordered))
    )


@given(st.permutations(list(range(1, 10))))
def test_statistic_in_range(s_ranks):
    sample = RankSample(tuple((i + 1, s) for i, s in enumerate(s_ranks)))
    assert -1.0 <= gamma_rank_statistic(sample) <= 1.0


def test_csv_malformed_rows_name_the_line(tmp_path):
    path = tmp_path / "ranks.csv"
    for text, message in (
        ("r,s\n1,2\n2\n", "line 3: not enough values"),
        ("r,s\n1,x\n2,1\n", "line 2: invalid literal"),
        # CRLF line ends, and a two-byte character, count as in the file.
        ("r,s\r\n1,\u00e9\r\n2,1\r\n", "line 2: invalid literal"),
        ("r,s\r\n1,2\r\n2,x\r\n", "line 3: invalid literal"),
    ):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DomainError, match=message):
            RankSample.from_csv(path)


@pytest.mark.parametrize("text", ["", "u,v\n1,1\n", "r\n1\n", "s,r\n1,1\n", "r,s,t\n1,1,1\n"])
def test_csv_rejects_a_header_other_than_r_s(tmp_path, text):
    path = tmp_path / "ranks.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match="unexpected rank CSV header"):
        RankSample.from_csv(path)


@pytest.mark.parametrize("data", [b"r,\xffs\n1,1\n2,2\n", b"r,s\n1,1\n2,\xff\n"])
def test_csv_that_is_not_utf8_is_a_domain_error(tmp_path, data):
    # A byte in the header, and one in the body.
    path = tmp_path / "ranks.csv"
    path.write_bytes(data)
    with pytest.raises(DomainError, match="rank CSV is not UTF-8: .* byte 0xff in position"):
        RankSample.from_csv(path)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "ranks.csv"
    sample = RankSample(((2, 1), (1, 3), (3, 2)))
    sample.to_csv(path)
    assert RankSample.from_csv(path) == sample
