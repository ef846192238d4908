import pytest

from quadprimes import nagell

# every (y, n) representation: 64 = 2**6 = 4**3 and 512 = 2**9 = 8**3
D28_SOLUTIONS = {(2, 2, 5), (6, 2, 6), (6, 4, 3),
                 (10, 2, 7), (22, 2, 9), (22, 8, 3)}


def test_d28_box():
    sols = nagell.lebesgue_nagell_solve(28, 100)
    assert {(s.x, s.y, s.n) for s in sols} == D28_SOLUTIONS
    assert all(s.verify() for s in sols)


def test_d7_catalan_style():
    sols = nagell.lebesgue_nagell_solve(7, 1000)
    assert (1, 2, 3) in {(s.x, s.y, s.n) for s in sols}
    assert (181, 32, 3) in {(s.x, s.y, s.n) for s in sols}


def test_d1_empty():
    # x**2 + 1 = y**n has no solutions with n >= 3 (classical)
    assert nagell.lebesgue_nagell_solve(1, 10**5) == []


def test_d2_solution():
    sols = nagell.lebesgue_nagell_solve(2, 100)
    assert {(s.x, s.y, s.n) for s in sols} == {(5, 3, 3)}


def test_rejects_out_of_range_shift():
    with pytest.raises(ValueError):
        nagell.lebesgue_nagell_solve(0, 100)
    with pytest.raises(ValueError):
        nagell.lebesgue_nagell_solve(101, 100)


def test_rejects_box_beyond_limit():
    with pytest.raises(ValueError):
        nagell.lebesgue_nagell_solve(1, nagell.NAGELL_X_LIMIT + 1)


def test_empty_box():
    assert nagell.lebesgue_nagell_solve(28, 0) == []


def test_matches_naive_oracle():
    for d in range(1, 101):
        assert nagell.lebesgue_nagell_solve(d, 1000) == \
            nagell.lebesgue_nagell_naive(d, 1000)


def test_solutions_sorted_and_in_box():
    sols = nagell.lebesgue_nagell_solve(28, 100)
    keys = [(s.n, s.y, s.x) for s in sols]
    assert keys == sorted(keys)
    assert all(1 <= s.x <= 100 for s in sols)


def test_consecutive_powers():
    ordered, pairs = nagell.consecutive_powers(10**6)
    assert pairs == [(8, 9)]
    assert ordered[:6] == [1, 4, 8, 9, 16, 25]
    assert 1 in ordered and 10**6 in ordered


def test_consecutive_powers_trivial():
    ordered, pairs = nagell.consecutive_powers(3)
    assert ordered == [1]
    assert pairs == []
