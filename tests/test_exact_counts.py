import inspect
import math

import numpy as np
import pytest

from treechild import criteria, exact


def test_double_factorial_odd():
    assert exact.double_factorial_odd(-1) == 1
    assert exact.double_factorial_odd(0) == 1
    assert exact.double_factorial_odd(1) == 1
    assert exact.double_factorial_odd(5) == 15
    # (2n-3)!! at n=4 matches the k=0 column of every reference table
    assert exact.double_factorial_odd(2 * 4 - 3) == 15
    for d in exact.fixture_d_values():
        assert exact.appendix_table(d)[(4, 0)] == 15 or 4 not in exact.appendix_table(d).n_values
    with pytest.raises(ValueError):
        exact.double_factorial_odd(4)


@pytest.mark.parametrize(
    "d,n,k,expected",
    [
        (2, 2, 1, 2),
        (2, 4, 0, 15),
        (3, 4, 0, 15),
        (6, 4, 0, 15),
        (3, 3, 2, 60),   # C(3,2) * 6!/36
        (2, 3, 1, 18),   # C(3,1) * 4!/(2*2)
    ],
)
def test_otc_count_examples(d, n, k, expected):
    assert exact.otc_count(d, n, k) == expected


def test_otc_count_out_of_range_is_zero():
    assert exact.otc_count(2, 3, 3) == 0
    assert exact.otc_count(2, 3, -1) == 0
    assert exact.otc_count(5, 1, 1) == 0


@pytest.mark.parametrize("bad", [3.0, 2.5, True, "3"])
@pytest.mark.parametrize(
    "slot,name",
    [(0, "multiplicity d"), (1, "leaf count n"), (2, "reticulation count k")],
)
def test_sizes_must_be_integers(slot, name, bad):
    # floats, bools and strings are refused by name, not computed with or
    # refused by range or math.comb further in
    args = [3, 4, 2]
    args[slot] = bad
    for fn in (exact.otc_count, exact.otc_count_log, exact.node_counts):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            fn(*args)


def test_sizes_accept_numpy_integers():
    assert exact.otc_count(np.int64(3), np.int32(4), np.int64(2)) == exact.otc_count(3, 4, 2)
    assert exact.node_counts(np.int64(2), np.int64(5), np.int64(3)) == (7, 16)
    # numpy sizes are turned into Python ints, so the count neither
    # overflows int64 nor comes back as a numpy integer
    count = exact.otc_count(np.int64(6), np.int64(12), np.int64(11))
    assert count == exact.otc_count(6, 12, 11)
    assert type(count) is int


def test_otc_count_exact_division_up_to_60():
    # the formula's numerator must be divisible by its denominator;
    # otc_count raises if not
    for d in (2, 3, 4, 5, 6):
        for n in range(1, 61):
            for k in range(n):
                exact.otc_count(d, n, k)


def test_otc_step_recurrence_identity():
    # k * OTC(n,k) = n * C(2n+(d-2)k-2, d) * OTC(n-1,k-1), the proof step
    for d in (2, 3, 4):
        for n in range(2, 30):
            for k in range(1, n):
                lhs = exact.otc_count(d, n, k) * k
                rhs = (
                    n
                    * math.comb(2 * n + (d - 2) * k - 2, d)
                    * exact.otc_count(d, n - 1, k - 1)
                )
                assert lhs == rhs


def test_otc_monotone_in_k_for_d3():
    for n in range(2, 40):
        row = [exact.otc_count(3, n, k) for k in range(n)]
        assert all(row[i] <= row[i + 1] for i in range(len(row) - 1))


def test_otc_total_examples():
    assert exact.otc_total(2, 2) == 3
    assert exact.otc_total(3, 2) == 3
    assert exact.otc_total(2, 1) == 1


def test_otc_dominated_by_tree_child_fixtures():
    for d in exact.fixture_d_values():
        table = exact.appendix_table(d)
        for (n, k), tc in table.entries.items():
            assert exact.otc_count(d, n, k) <= tc


@pytest.mark.parametrize(
    "d,n,k,expected",
    [(2, 4, 0, (3, 8)), (3, 3, 2, (6, 12)), (2, 2, 1, (2, 6))],
)
def test_node_counts(d, n, k, expected):
    assert exact.node_counts(d, n, k) == expected


def test_tc_upper_bound():
    bound, is_exact = exact.tc_upper_bound(2, 8, 6, 8485564550400)
    assert (bound, is_exact) == (4242782275200, True)
    # attained exactly at k = n-2 for d = 2
    assert exact.appendix_table(2)[(8, 6)] == bound

    bound, _ = exact.tc_upper_bound(3, 7, 5, 560319972030000)
    assert bound == 280159986015000
    assert exact.appendix_table(3)[(7, 5)] <= bound

    tc_max = 123456
    bound, is_exact = exact.tc_upper_bound(2, 5, 4, tc_max)
    assert bound == tc_max and is_exact  # k = n-1: empty product


def test_sandwich_and_step_inequalities_on_fixtures(monkeypatch):
    # the criterion-6 check holds on the embedded tables, and on a table
    # with one cell doctored it fails and names the broken step
    assert criteria.sandwich()[0]
    real = exact.appendix_table

    def doctored(d):
        table = real(d)
        if d == 3:
            table.entries[(5, 2)] = table[(5, 3)]
        return table

    monkeypatch.setattr(exact, "appendix_table", doctored)
    ok, entries = criteria.sandwich()
    assert not ok
    assert {"check": "step", "d": 3, "n": 5, "k": 2, "ok": False} in entries


def test_appendix_table_entries():
    assert exact.appendix_table(2)[(4, 3)] == 2544
    assert exact.appendix_table(3)[(3, 2)] == 150
    assert exact.appendix_table(6)[(5, 4)] == 483098464854720
    with pytest.raises(ValueError):
        exact.appendix_table(7)


def test_count_table_row_outside_the_table_is_refused_by_name():
    table = exact.appendix_table(2)
    assert table.row_sum(8) == sum(table.row(8))
    for call, n in ((table.row, 100), (table.row, 1), (table.row_sum, 9)):
        with pytest.raises(ValueError, match=rf"^the table has rows 2\.\.8, got n={n}$"):
            call(n)
    with pytest.raises(ValueError, match=r"^the table has rows 2\.\.5, got n=6$"):
        exact.appendix_table(6).row(6)


def test_otc_count_log_matches_exact():
    for d in (2, 3, 5):
        for n in (5, 40, 200):
            for k in (0, n // 2, n - 1):
                log_exact = math.log(exact.otc_count(d, n, k))
                assert exact.otc_count_log(d, n, k) == pytest.approx(
                    log_exact, rel=1e-12
                )
    assert exact.otc_total_log(3, 50) == pytest.approx(
        math.log(exact.otc_total(3, 50)), rel=1e-12
    )


@pytest.mark.parametrize("d,tc_n_max,otc_n_max",
                         [(2, 4, 5), (3, 4, 5), (4, 3, 4), (5, 3, 4), (6, 3, 3)])
def test_criteria_2_and_3_check_every_n_of_their_range(d, tc_n_max, otc_n_max):
    # every k of every n in the range, so the cells of a row never go missing
    tc = criteria.tc_oracle(d, 10**9)[1]
    otc = [e for e in criteria.otc_formula(d, 10**8)[1] if e["check"] == "otc_oracle"]
    assert [(e["n"], e["k"]) for e in tc] == [
        (n, k) for n in range(2, tc_n_max + 1) for k in range(n)]
    assert [(e["n"], e["k"]) for e in otc] == [
        (n, k) for n in range(1, otc_n_max + 1) for k in range(n)]


@pytest.mark.parametrize("check", [criteria.tc_oracle, criteria.otc_formula],
                         ids=["tc_oracle", "otc_formula"])
def test_criteria_2_and_3_take_no_range_of_their_own(check):
    assert list(inspect.signature(check).parameters) == ["d", "budget"]
    with pytest.raises(TypeError, match="n_max"):
        check(2, 10**6, n_max=3)


def test_criterion_2_refuses_a_d_without_a_reference_table():
    with pytest.raises(ValueError, match=r"^no reference table for d=7$"):
        criteria.tc_oracle(7, 10**6)
