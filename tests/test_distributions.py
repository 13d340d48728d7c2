import math

import numpy as np
import pytest
from scipy import special

from treechild import distributions as dist
from treechild import exact


def test_r_pmf_small_cases():
    for d in (2, 3):
        pmf = dist.r_pmf(d, 2)
        assert pmf.prob(0) == pytest.approx(1 / 3)
        assert pmf.prob(1) == pytest.approx(2 / 3)
        assert pmf.prob(5) == 0.0


@pytest.mark.parametrize("d,n", [(2, 10), (3, 100), (4, 57), (2, 1000)])
def test_r_pmf_normalizes(d, n):
    pmf = dist.r_pmf(d, n)
    total = np.exp(pmf.log_probs).sum()
    assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("d,n", [(2, 0), (2, -3), (1, 3)])
def test_r_pmf_rejects_bad_parameters(d, n):
    with pytest.raises(ValueError):
        dist.r_pmf(d, n)


def test_r_pmf_matches_exact_counts():
    for d, n in [(2, 6), (3, 5), (5, 4)]:
        pmf = dist.r_pmf(d, n)
        total = exact.otc_total(d, n)
        for k in range(n):
            assert pmf.prob(k) == pytest.approx(
                exact.otc_count(d, n, k) / total, rel=1e-10
            )


def test_mode_locations():
    # d=3: increasing in k, mode at the maximum
    for n in (2, 10, 60):
        assert dist.r_pmf(3, n).mode() == n - 1
    # d=2: mode within 2 of n - sqrt(n+1)
    for n in (100, 400, 1000, 2000):
        assert abs(dist.r_pmf(2, n).mode() - (n - math.sqrt(n + 1))) <= 2


def test_modified_bessel():
    assert dist.modified_bessel_i(1, 2.0) == pytest.approx(
        float(special.iv(1, 2.0)), rel=1e-12
    )
    assert dist.modified_bessel_i(0, 0.0) == 1.0
    assert dist.modified_bessel_i(1, 0.0) == 0.0
    assert dist.modified_bessel_i(1, 2.0) == pytest.approx(1.5906368546, abs=1e-9)
    with pytest.raises(ValueError):
        dist.modified_bessel_i(1, 25.0)


def test_bessel_pmf():
    assert dist.bessel_pmf(0) == pytest.approx(0.6287, abs=1e-4)
    assert sum(dist.bessel_pmf(k) for k in range(60)) == pytest.approx(1.0, abs=1e-12)
    for k in range(6):
        assert dist.bessel_pmf(k + 1) / dist.bessel_pmf(k) == pytest.approx(
            1.0 / ((k + 1) * (k + 2)), rel=1e-9
        )


def test_otc_tail_expansion():
    # d=3 prediction within 1% for k <= 3 at n = 10^4
    for k in range(4):
        pred = dist.otc_tail_expansion(3, 10**4, k)
        got = exact.otc_count_log(3, 10**4, 10**4 - 1 - k)
        assert math.exp(got - pred) == pytest.approx(1.0, abs=0.01)
    # d=4, k=1 carries the n^(3-d) = n^(-1) factor
    p100 = dist.otc_tail_expansion(4, 100, 1) - dist.otc_tail_expansion(4, 100, 0)
    p200 = dist.otc_tail_expansion(4, 200, 1) - dist.otc_tail_expansion(4, 200, 0)
    assert p100 - p200 == pytest.approx(math.log(2), abs=1e-12)
    ratio = math.exp(
        exact.otc_count_log(4, 2000, 2000 - 2) - dist.otc_tail_expansion(4, 2000, 1)
    )
    assert ratio == pytest.approx(1.0, abs=0.01)
    # k=0 reduces to the exact maximal term up to the stated error factor
    assert dist.otc_tail_expansion(3, 5000, 0) == pytest.approx(
        exact.otc_count_log(3, 5000, 4999), abs=0.01
    )
    with pytest.raises(ValueError):
        dist.otc_tail_expansion(2, 100, 0)
    # n = 0 used to be reported as k=0 out of range
    with pytest.raises(ValueError, match="leaf count n"):
        dist.otc_tail_expansion(3, 0, 0)


def test_normal_limit_small():
    moments, sup = dist.normal_limit_check(500)
    assert abs(moments.mean) < 0.2
    assert 0.7 < moments.variance < 1.3
    assert moments.third_abs < 3.0
    assert sup < 0.1
    with pytest.raises(ValueError):
        dist.normal_limit_check(1)


def test_bessel_limit_decreasing():
    tvs = [dist.bessel_limit_check(n) for n in (100, 1000)]
    assert tvs[1] < tvs[0]
    assert all(0 <= tv <= 2 for tv in tvs)


def test_degenerate_small():
    assert dist.degenerate_check(5, 100) >= 0.999
    assert dist.degenerate_check(4, 100) <= 1.0
    with pytest.raises(ValueError):
        dist.degenerate_check(3, 100)


def test_poisson_report_matches_fixture_row():
    report = dist.conjecture_poisson_report(exact.appendix_table(2))
    assert report["n"] == 8
    head = report["comparison"][0]
    assert head["empirical"] == pytest.approx(0.616, abs=1e-3)
    assert head["poisson_half"] == pytest.approx(math.exp(-0.5), rel=1e-9)
    second = report["comparison"][1]
    assert second["poisson_half"] == pytest.approx(0.5 * math.exp(-0.5), rel=1e-9)
    assert sum(dist.poisson_pmf(j) for j in range(50)) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 100])
def test_poisson_report_rejects_missing_row(n):
    with pytest.raises(ValueError, match=r"rows 2\.\.8"):
        dist.conjecture_poisson_report(exact.appendix_table(2), n)


def test_words_report_matches_fixture_row():
    report = dist.conjecture_words_report(exact.appendix_table(2), 4)
    rows = report["comparison"]
    assert [row["k"] for row in rows] == [0, 1, 2, 3]
    assert [row["fixture_tc"] for row in rows] == exact.appendix_table(2).row(4)
    # at k = n-1 the identity is the proven one, TC(n,n-1) = n! c(n-1)
    assert rows[3]["predicted_tc"] == rows[3]["fixture_tc"] == 2544
    # outside the table the fixture column is empty
    assert dist.conjecture_words_report(exact.appendix_table(2), 1)[
        "comparison"] == [{"k": 0, "word_count": 1, "predicted_tc": 1,
                           "fixture_tc": None}]
    with pytest.raises(ValueError):
        dist.conjecture_words_report(exact.appendix_table(3), 4)
    with pytest.raises(ValueError):
        dist.conjecture_words_report(exact.appendix_table(2), 0)


def test_pmf_csv_dump():
    pmf = dist.r_pmf(2, 4)
    csv = pmf.to_csv()
    assert csv.splitlines()[0] == "k,log_prob"
    assert len(csv.splitlines()) == 5
    # every row is a plain number that parses back to the exact value
    for k, line in enumerate(csv.splitlines()[1:]):
        index, value = line.split(",")
        assert int(index) == k
        assert float(value) == float(pmf.log_probs[k])
