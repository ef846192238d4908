import pytest

from quadprimes import nagell

# every (y, n) representation: 64 = 2**6 = 4**3 and 512 = 2**9 = 8**3
D28_SOLUTIONS = {(2, 2, 5), (6, 2, 6), (6, 4, 3),
                 (10, 2, 7), (22, 2, 9), (22, 8, 3)}


def test_d28_box():
    sols = nagell.lebesgue_nagell_solve(28, 100)
    assert set(sols) == D28_SOLUTIONS
    assert all(x * x + 28 == y ** n for x, y, n in sols)


def test_d7_catalan_style():
    sols = nagell.lebesgue_nagell_solve(7, 1000)
    assert (1, 2, 3) in sols
    assert (181, 32, 3) in sols


def test_d1_empty():
    # x**2 + 1 = y**n has no solutions with n >= 3 (classical)
    assert nagell.lebesgue_nagell_solve(1, 10**5) == []


def test_d2_solution():
    sols = nagell.lebesgue_nagell_solve(2, 100)
    assert set(sols) == {(5, 3, 3)}


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


@pytest.mark.parametrize("d", [1, 7, 28, 100])
@pytest.mark.parametrize("x_max", [1, 2, 50, 10**4, nagell.NAGELL_NAIVE_X_LIMIT])
def test_naive_oracle_matches_solver_in_larger_boxes(d, x_max):
    assert nagell.lebesgue_nagell_naive(d, x_max) == \
        nagell.lebesgue_nagell_solve(d, x_max)


def brute_force(d, x_max):
    """Every (x, y, n) with x**2 + d = y**n, by trying each y and n."""
    found = []
    for x in range(1, x_max + 1):
        v = x * x + d
        for n in range(3, nagell.EXPONENT_MAX + 1):
            y = 2
            while y ** n <= v:
                if y ** n == v:
                    found.append((x, y, n))
                y += 1
    return sorted(found, key=lambda s: (s[2], s[1], s[0]))


@pytest.mark.parametrize("d", [-3, 0])
def test_naive_oracle_below_the_solver_range(d):
    sols = nagell.lebesgue_nagell_naive(d, 200)
    assert sols == brute_force(d, 200)
    assert all(x * x + d == y ** n for x, y, n in sols)


def test_naive_oracle_rejects_beyond_int64_bound():
    with pytest.raises(ValueError):
        nagell.lebesgue_nagell_naive(1, nagell.NAGELL_NAIVE_X_LIMIT + 1)
    with pytest.raises(ValueError):
        nagell.lebesgue_nagell_naive(101, 10)


def test_solutions_sorted_and_in_box():
    sols = nagell.lebesgue_nagell_solve(28, 100)
    keys = [(n, y, x) for x, y, n in sols]
    assert keys == sorted(keys)
    assert all(1 <= x <= 100 for x, _, _ in sols)


def test_consecutive_powers():
    pairs = nagell.consecutive_powers(10**6)
    assert pairs == [(8, 9)]


def test_consecutive_powers_trivial():
    pairs = nagell.consecutive_powers(3)
    assert pairs == []
