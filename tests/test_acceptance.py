"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line with the measured quantities so the
suite doubles as a verification log (run with -s to see them as they
happen).  Runtime bounds are part of the criteria and asserted.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from treechild import asymptotics as asym
from treechild import distributions as dist
from treechild import exact
from treechild import networks as nw
from treechild import words


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")


def test_criterion_01_appendix_golden_tcmax():
    t0 = time.monotonic()
    checked = 0
    ok = True
    for d in exact.fixture_d_values():
        table = exact.appendix_table(d)
        for n in table.n_values:
            ok &= words.tc_max_count(d, n) == table[(n, n - 1)]
            checked += 1
    elapsed = time.monotonic() - t0
    _line(1, ok and elapsed < 1.0,
          f"tc_max equals fixture on {checked} rows in {elapsed:.3f}s (< 1s)")
    assert ok
    assert elapsed < 1.0


def test_criterion_02_brute_force_tree_child_oracle():
    t0 = time.monotonic()
    cells = 0
    ok = True
    for d in (2, 3, 4, 5, 6):
        table = exact.appendix_table(d)
        n_hi = 4 if d in (2, 3) else 3
        for n in range(2, n_hi + 1):
            for k in range(n):
                got = nw.count_tc_networks(d, n, k, budget=10**9)
                ok &= got == table[(n, k)]
                cells += 1
                assert got == table[(n, k)], (d, n, k, got, table[(n, k)])
    elapsed = time.monotonic() - t0
    _line(2, ok and elapsed < 600,
          f"{cells} fixture cells reproduced by brute force in {elapsed:.1f}s (< 600s)")
    assert ok
    assert elapsed < 600


def test_criterion_03_one_component_oracle():
    t0 = time.monotonic()
    cells = 0
    ok = True
    for d in (2, 3, 4, 5):
        n_hi = 5 if d in (2, 3) else 4
        for n in range(1, n_hi + 1):
            for k in range(n):
                got = nw.count_otc_networks(d, n, k, budget=10**8)
                want = exact.otc_count(d, n, k)
                ok &= got == want
                cells += 1
                assert got == want, (d, n, k, got, want)
    elapsed = time.monotonic() - t0
    _line(3, ok and elapsed < 300,
          f"{cells} one-component cells match the formula in {elapsed:.1f}s (< 300s)")
    assert ok
    assert elapsed < 300


def test_criterion_04_word_oracle():
    ok = True
    pairs = []
    for d in range(2, 14):
        n = 1
        while n * (d + 1) <= 14:
            pairs.append((d, n))
            n += 1
    for d, n in pairs:
        stream = list(words.enumerate_words(d, n))
        ok &= len(stream) == words.c_count(d, n)
        assert len(stream) == words.c_count(d, n), (d, n)
        table = words.b_table_int(d, n)
        counts = Counter(words.suffix_index(w, d) for w in stream)
        for m in range(1, n + 1):
            ok &= counts.get(m, 0) == table.b(n, m)
            assert counts.get(m, 0) == table.b(n, m), (d, n, m)
    assert words.c_count(2, 2) == 7
    assert words.c_count(2, 3) == 106
    assert words.c_count(3, 2) == 25
    _line(4, ok, f"word enumeration and suffix partition exact on {len(pairs)} (d,n) pairs")
    assert ok


def test_criterion_05_dual_recurrence():
    ok = True
    for d in range(2, 7):
        ok &= words.b_table_int(d, 50).rows == words.b_table_rational(d, 50).rows
    _line(5, ok, "integer and rational b-recurrences agree for d=2..6, n<=50")
    assert ok


def test_criterion_06_sandwich_and_step():
    sqrt_e = math.sqrt(math.e)
    ok = True
    for d in exact.fixture_d_values():
        table = exact.appendix_table(d)
        for n in table.n_values:
            tc_max = table[(n, n - 1)]
            total = table.row_sum(n)
            ok &= tc_max <= total <= sqrt_e * tc_max
            for k in range(n - 1):
                ok &= 2 * (n - k - 1) * table[(n, k)] <= table[(n, k + 1)]
    table2 = exact.appendix_table(2)
    for n in range(3, 9):
        ok &= 2 * table2[(n, n - 2)] == table2[(n, n - 1)]
    _line(6, ok, "sandwich, step, and d=2 equality at k=n-2 hold on every fixture row")
    assert ok


def test_criterion_07_airy_root():
    t0 = time.monotonic()
    root = asym.airy_root_a1()
    residual = abs(asym.airy_ai(root))
    elapsed = time.monotonic() - t0
    ok = abs(root + 2.33810741) < 1e-6 and residual < 1e-8 and elapsed < 1.0
    _line(7, ok, f"a1 = {root:.9f} (err {abs(root + 2.33810741):.2e}), "
                 f"|Ai(a1)| = {residual:.2e}, {elapsed:.3f}s (< 1s)")
    assert abs(root + 2.33810741) < 1e-6
    assert residual < 1e-8
    assert elapsed < 1.0


def test_criterion_08_limit_regimes():
    t0 = time.monotonic()
    tvs = [dist.bessel_limit_check(n) for n in (100, 1000, 10000)]
    t_bessel = time.monotonic() - t0
    ok = tvs[2] < 0.01 and tvs[0] > tvs[1] > tvs[2]

    t0 = time.monotonic()
    moments, sup = dist.normal_limit_check(2000)
    t_normal = time.monotonic() - t0
    ok &= sup < 0.05 and abs(moments.mean) < 0.1 and 0.8 < moments.variance < 1.2

    t0 = time.monotonic()
    p_max = dist.degenerate_check(4, 100)
    t_degen = time.monotonic() - t0
    ok &= p_max >= 0.99

    ok &= max(t_bessel, t_normal, t_degen) < 30
    _line(8, ok, f"bessel tv={tvs[2]:.2e} (decreasing {tvs[0]:.1e}>{tvs[1]:.1e}>{tvs[2]:.1e}), "
                 f"normal sup={sup:.3f} mean={moments.mean:.3f} var={moments.variance:.3f}, "
                 f"degenerate p={p_max:.4f}; times {t_bessel:.1f}/{t_normal:.1f}/{t_degen:.1f}s (< 30s each)")
    assert tvs[2] < 0.01 and tvs[0] > tvs[1] > tvs[2]
    assert sup < 0.05 and abs(moments.mean) < 0.1 and 0.8 < moments.variance < 1.2
    assert p_max >= 0.99
    assert max(t_bessel, t_normal, t_degen) < 30


def test_criterion_09_otc_total_asymptotics():
    ratios = {
        d: math.exp(exact.otc_total_log(d, 500) - asym.otc_total_asymptotic(d, 500))
        for d in (3, 4)
    }
    ok = all(abs(r - 1) < 0.02 for r in ratios.values())
    trend = [
        math.exp(exact.otc_total_log(2, n) - asym.otc_total_asymptotic(2, n))
        for n in (250, 500, 1000, 2000)
    ]
    gaps = [abs(r - 1) for r in trend]
    ok &= all(b < a for a, b in zip(gaps, gaps[1:]))
    _line(9, ok, f"d=3 ratio {ratios[3]:.4f}, d=4 ratio {ratios[4]:.4f} (within 2%); "
                 f"d=2 |ratio-1| decreasing: {['%.4f' % g for g in gaps]}")
    assert all(abs(r - 1) < 0.02 for r in ratios.values())
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_criterion_10_theta_verification():
    t0 = time.monotonic()
    ok = True
    details = []
    for d in (2, 3):
        log_c = words.c_log_sequence(d, 1999)
        window = asym.theta_residual_window(d, 500, 2000, log_c=log_c)
        osc = window["oscillation"]
        dyadic = window["dyadic_differences"]
        ok &= osc < 0.5 and dyadic[1] < dyadic[0]
        flipped = asym.theta_residual_window(
            d, 500, 2000, a1=+2.33810741, log_c=log_c
        )
        ok &= flipped["oscillation"] > 5
        fit = asym.fit_e_diagonal(d, 5000)
        ok &= fit.rel_err < 0.10
        details.append(
            f"d={d}: osc={osc:.3f} dyadic {dyadic[0]:.3f}>{dyadic[1]:.3f} "
            f"signtest={flipped['oscillation']:.1f} fit_err={fit.rel_err:.4f}"
        )
        assert osc < 0.5
        assert dyadic[1] < dyadic[0]
        assert flipped["oscillation"] > 5
        assert fit.rel_err < 0.10
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300
    _line(10, ok, "; ".join(details) + f"; {elapsed:.1f}s (< 300s)")
    assert elapsed < 300


def test_criterion_11_fixed_k_trend():
    table = exact.appendix_table(2)
    ok = True
    for k in (1, 2):
        ratios = [
            table[(n, k)] / math.exp(asym.fixed_k_asymptotic(2, n, k))
            for n in range(4, 9)
        ]
        ok &= all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(b > a for a, b in zip(ratios, ratios[1:])), (k, ratios)
    _line(11, ok, "fixture/asymptotic ratio strictly increasing over n=4..8 for k=1,2")
    assert ok


def test_criterion_12_proposition_sweeps():
    # The printed prefactor coefficient "3d^2+12-11" is garbled.  Expanding
    # both sides at m = 0 to order 1/n shows the inequalities only admit a
    # threshold if the 1/n terms cancel, which forces 3d^2+12d-11 (a dropped
    # "d"); with the literal reading 13 at d = 2 the super-solution side is
    # violated at m = 0 for every n (verified in 50-digit arithmetic), so 13
    # can only ever satisfy the sub-solution sweep.
    q13_sub = asym.check_subsolution(2, q_coeff=13)
    assert q13_sub.n_threshold is not None  # zero violations above some n0
    q13_sup = asym.check_supersolution(2, q_coeff=13)

    q_res = asym.resolved_q_coeff(2)
    sub = asym.check_subsolution(2, q_coeff=q_res)
    sup = asym.check_supersolution(2, q_coeff=q_res)
    ok = (
        sub.n_threshold is not None
        and sup.n_threshold is not None
        and q13_sub.n_threshold is not None
    )
    _line(12, ok,
          f"d=2: q=13 sub threshold {q13_sub.n_threshold}, "
          f"q=13 super {'passes' if q13_sup.ok else 'violated (paper typo, see ledger)'}; "
          f"resolved q={q_res}: sub threshold {sub.n_threshold}, "
          f"super threshold {sup.n_threshold}")
    assert sub.n_threshold is not None
    assert sup.n_threshold is not None

    # d = 3..6: definitive report per candidate, recorded but not asserted
    for d in range(3, 7):
        for q in (asym.default_q_coeff(d), asym.candidate_q_coeff(d),
                  asym.resolved_q_coeff(d)):
            sub_d = asym.check_subsolution(d, q_coeff=q)
            sup_d = asym.check_supersolution(d, q_coeff=q)
            print(
                f"      report d={d} q={q}: sub "
                f"{'pass@n>=' + str(sub_d.n_threshold) if sub_d.n_threshold else 'fail'}, "
                f"super "
                f"{'pass@n>=' + str(sup_d.n_threshold) if sup_d.n_threshold else 'fail'}"
            )
            assert sub_d.samples > 0 and sup_d.samples > 0
