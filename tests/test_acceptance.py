"""Acceptance suite: every criterion at its stated tolerance.

The checks and their tolerances live in ``treechild.criteria``, which
``treechild verify`` shares.  Each test prints one PASS/FAIL line with the
measured quantities so the suite doubles as a verification log (run with
-s to see them as they happen).  Runtime bounds are part of the criteria
and asserted here.
"""

import time

from treechild import asymptotics as asym
from treechild import criteria
from treechild import exact
from treechild import words


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")


def _sweep(check, cases):
    """check(*case) over the cases: (all ok, entries, failed entries by case)."""
    results = {case: check(*case) for case in cases}
    failed = {case: [e for e in entries if not e["ok"]]
              for case, (_, entries) in results.items()}
    return (all(ok for ok, _ in results.values()),
            [e for _, entries in results.values() for e in entries],
            {case: bad for case, bad in failed.items() if bad})


def test_criterion_01_appendix_golden_tcmax():
    t0 = time.monotonic()
    ok, entries, failed = _sweep(criteria.tcmax_rows,
                                 [(d,) for d in exact.fixture_d_values()])
    elapsed = time.monotonic() - t0
    _line(1, ok and elapsed < 1.0,
          f"tc_max equals fixture on {len(entries)} rows in {elapsed:.3f}s (< 1s)")
    assert ok, failed
    assert elapsed < 1.0


def test_criterion_02_brute_force_tree_child_oracle():
    t0 = time.monotonic()
    ok, entries, failed = _sweep(criteria.tc_oracle,
                                 [(d, 10**9) for d in (2, 3, 4, 5, 6)])
    elapsed = time.monotonic() - t0
    _line(2, ok and elapsed < 600, f"{len(entries)} fixture cells reproduced "
          f"by brute force in {elapsed:.1f}s (< 600s)")
    assert ok, failed
    assert len(entries) == 33
    assert elapsed < 600


def test_criterion_03_one_component_oracle():
    t0 = time.monotonic()
    ok, entries, failed = _sweep(criteria.otc_formula,
                                 [(d, 10**8) for d in (2, 3, 4, 5)])
    elapsed = time.monotonic() - t0
    cells = sum(e["check"] == "otc_oracle" for e in entries)
    _line(3, ok and elapsed < 300, f"{cells} one-component cells match the "
          f"formula, step recurrence holds for n<40, in {elapsed:.1f}s (< 300s)")
    assert ok, failed
    assert cells == 50
    assert elapsed < 300


def test_criterion_04_word_oracle():
    ok, entries, failed = _sweep(
        criteria.word_oracle, [(d, words.DEFAULT_WORD_BUDGET) for d in range(2, 14)]
    )
    assert words.c_count(2, 2) == 7
    assert words.c_count(2, 3) == 106
    assert words.c_count(3, 2) == 25
    pairs = sum(e["check"] == "word_count" for e in entries)
    _line(4, ok, f"word enumeration and suffix partition exact on {pairs} (d,n) pairs")
    assert ok, failed


def test_criterion_05_dual_recurrence():
    ok, _, failed = _sweep(criteria.dual_recurrence, [(d,) for d in range(2, 7)])
    _line(5, ok, "integer and rational b-recurrences agree for d=2..6, n<=50")
    assert ok, failed


def test_criterion_06_sandwich_and_step():
    ok, entries = criteria.sandwich()
    _line(6, ok, "sandwich, step, upper bound, and d=2 equality at k=n-2 hold "
                 "on every fixture row")
    assert ok, [e for e in entries if not e["ok"]]


def test_criterion_07_airy_root():
    t0 = time.monotonic()
    ok, root = criteria.airy_root()
    elapsed = time.monotonic() - t0
    _line(7, ok and elapsed < 1.0,
          f"a1 = {root['value']:.9f} (err {root['error']:.2e}), "
          f"|Ai(a1)| = {root['residual']:.2e}, {elapsed:.3f}s (< 1s)")
    assert ok, root
    assert elapsed < 1.0


def test_criterion_08_limit_regimes():
    ok, laws = criteria.limit_laws()
    tvs, seconds = laws["bessel_tv"], laws["seconds"]
    _line(8, ok and max(seconds) < 30,
          f"bessel tv={tvs[2]:.2e} (decreasing {tvs[0]:.1e}>{tvs[1]:.1e}>{tvs[2]:.1e}), "
          f"normal sup={laws['normal_sup']:.3f} mean={laws['normal_mean']:.3f} "
          f"var={laws['normal_variance']:.3f}, degenerate p={laws['degenerate_p']:.4f}; "
          "times {:.1f}/{:.1f}/{:.1f}s (< 30s each)".format(*seconds))
    assert ok, laws
    assert max(seconds) < 30


def test_criterion_09_otc_total_asymptotics():
    ok, entries, failed = _sweep(criteria.otc_total, [(2,), (3,), (4,)])
    trend, r3, r4 = entries
    gaps = [abs(r - 1) for r in trend["ratios"]]
    _line(9, ok, f"d=3 ratio {r3['ratio']:.4f}, d=4 ratio {r4['ratio']:.4f} "
                 f"(within 2%); d=2 |ratio-1| decreasing: {['%.4f' % g for g in gaps]}")
    assert ok, failed


def test_criterion_10_theta_verification():
    t0 = time.monotonic()
    results = {d: criteria.theta(d) for d in (2, 3)}
    elapsed = time.monotonic() - t0
    ok = all(good for good, _ in results.values())
    details = "; ".join(
        f"d={d}: osc={th['oscillation']:.3f} dyadic "
        f"{th['dyadic_differences'][0]:.3f}>{th['dyadic_differences'][1]:.3f} "
        f"signtest={th['flipped_oscillation']:.1f} fit_err={th['fit_rel_err']:.4f}"
        for d, (_, th) in results.items()
    )
    _line(10, ok and elapsed < 300, f"{details}; {elapsed:.1f}s (< 300s)")
    assert ok, results
    assert elapsed < 300


def test_criterion_11_fixed_k_trend():
    ok, trend = criteria.fixed_k_trend()
    _line(11, ok, "fixture/asymptotic ratio strictly increasing over n=4..8 for k=1,2")
    assert ok, trend


def test_criterion_12_proposition_sweeps():
    # The printed prefactor coefficient "3d^2+12-11" is garbled.  Expanding
    # both sides at m = 0 to order 1/n shows the inequalities only admit a
    # threshold if the 1/n terms cancel, which forces 3d^2+12d-11 (a dropped
    # "d"); with the literal reading 13 at d = 2 the super-solution side is
    # violated at m = 0 for every n (verified in 50-digit arithmetic), so 13
    # can only ever satisfy the sub-solution sweep.
    _, q13 = criteria.proposition_sweeps(2, 13)
    q13_sub = q13["subsolution"]["n_threshold"]
    q13_sup = q13["supersolution"]["violations"]
    ok, res = criteria.proposition_sweeps(2, asym.resolved_q_coeff(2))
    _line(12, ok and q13_sub is not None,
          f"d=2: q=13 sub threshold {q13_sub}, "
          f"q=13 super {'violated (paper typo, see ledger)' if q13_sup else 'passes'}; "
          f"resolved q={res['q_coeff']}: sub threshold "
          f"{res['subsolution']['n_threshold']}, "
          f"super threshold {res['supersolution']['n_threshold']}")
    assert q13_sub is not None  # zero violations above some n0
    assert ok, res

    # d = 3..6: definitive report per candidate, recorded but not asserted
    for d in range(3, 7):
        for q in (asym.default_q_coeff(d), asym.candidate_q_coeff(d),
                  asym.resolved_q_coeff(d)):
            _, rep = criteria.proposition_sweeps(d, q)
            sub, sup = rep["subsolution"], rep["supersolution"]
            print(
                f"      report d={d} q={q}: sub "
                f"{'pass@n>=' + str(sub['n_threshold']) if sub['n_threshold'] else 'fail'}, "
                f"super "
                f"{'pass@n>=' + str(sup['n_threshold']) if sup['n_threshold'] else 'fail'}"
            )
            assert sub["samples"] > 0 and sup["samples"] > 0
