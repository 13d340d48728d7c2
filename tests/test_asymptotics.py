import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import special

from treechild import asymptotics as asym
from treechild import criteria, exact, words


def test_airy_against_scipy():
    for x in np.linspace(-8, 8, 161):
        assert asym.airy_ai(float(x)) == pytest.approx(
            special.airy(x)[0], abs=1e-10
        )


def test_airy_window_enforced():
    with pytest.raises(ValueError):
        asym.airy_ai(9.0)


def test_airy_positive_right_of_root():
    a1 = asym.airy_root_a1()
    for x in np.linspace(a1 + 1e-3, 0.0, 50):
        assert asym.airy_ai(float(x)) > 0.0
    assert asym.airy_ai(0.0) == pytest.approx(
        3 ** (-2 / 3) / math.gamma(2 / 3), abs=1e-12
    )


def reference_airy_series(x):
    # the float Maclaurin loop of ln Ai's series branch, kept as written
    # before both Ai routes shared one loop
    c1 = float(asym._AI0)
    c2 = float(asym._AIP0)
    x3 = x * x * x
    f = t = 1.0
    g = u = x
    k = 0
    while (abs(t) > 1e-19 * abs(f) + 1e-300 or abs(u) > 1e-19 * abs(g) + 1e-300):
        t *= x3 / ((3 * k + 2) * (3 * k + 3))
        u *= x3 / ((3 * k + 3) * (3 * k + 4))
        f += t
        g += u
        k += 1
        if k > 200:
            break
    return c1 * f - c2 * g


def reference_airy_ai(x):
    # the 40-digit Decimal loop of airy_ai, kept as written before both Ai
    # routes shared one loop
    with localcontext() as ctx:
        ctx.prec = 40
        xd = Decimal(x)
        x3 = xd * xd * xd
        f = t = Decimal(1)
        g = u = xd
        tiny = Decimal("1e-42")
        for k in range(200):
            t = t * x3 / ((3 * k + 2) * (3 * k + 3))
            u = u * x3 / ((3 * k + 3) * (3 * k + 4))
            f += t
            g += u
            if abs(t) < tiny * (1 + abs(f)) and abs(u) < tiny * (1 + abs(g)):
                break
        return float(asym._AI0 * f - asym._AIP0 * g)


def test_airy_loop_matches_reference_loops_bit_for_bit():
    rng = random.Random(13)
    for x in [rng.uniform(-8.0, 8.0) for _ in range(2000)]:
        assert asym.airy_ai(x) == reference_airy_ai(x), x
        if x <= asym._SERIES_LOG_CUTOFF:
            v = reference_airy_series(x)
            want = math.log(v) if v > 0.0 else -math.inf
            assert asym._airy_ai_log(x) == want, x
    assert asym.airy_root_a1() == -2.338107410459767


def reference_airy_asymptotic(x):
    # ln Ai's asymptotic branch (x > 6), kept as written before its
    # coefficients moved to a module-level table
    zeta = (2.0 / 3.0) * x ** 1.5
    s = 1.0
    term = 1.0
    prev = math.inf
    k = 0
    while True:
        term *= (6 * k + 1) * (6 * k + 5) / (72.0 * (k + 1))
        k += 1
        contrib = term / zeta**k
        if contrib >= prev or contrib < 1e-18:
            break
        s += (-1) ** k * contrib
        prev = contrib
        if k > 60:
            break
    return -zeta - 0.25 * math.log(x) - math.log(2.0 * math.sqrt(math.pi)) + math.log(s)


def reference_airy_ai_log(x):
    if x > asym._SERIES_LOG_CUTOFF:
        return reference_airy_asymptotic(x)
    v = reference_airy_series(x)
    return math.log(v) if v > 0.0 else -math.inf


def test_airy_asymptotic_branch_matches_reference_loop_bit_for_bit():
    rng = random.Random(17)
    for x in [rng.uniform(6.0, 1e4) for _ in range(20000)]:
        if x > asym._SERIES_LOG_CUTOFF:
            assert asym._airy_ai_log(x) == reference_airy_asymptotic(x), x
    # every Airy argument of the n = 5000 row of the default d = 3
    # super-solution sweep, through the memoised rows the sweeps read
    p = asym.params(3)
    n = 5000
    m_cap = int(n**0.9)
    (here, prev), = asym._airy_rows(3, (n,), 0.9)
    assert list(here) == [
        reference_airy_ai_log(asym._airy_arg(p, n, m)) for m in range(m_cap)
    ]
    assert list(prev) == [
        reference_airy_ai_log(asym._airy_arg(p, n - 1, m))
        for m in range(-1, m_cap + 1)
    ]
    # the row crosses from the series branch into the asymptotic one
    assert asym._airy_arg(p, n, 0) < asym._SERIES_LOG_CUTOFF
    assert asym._airy_arg(p, n, m_cap - 1) > asym._SERIES_LOG_CUTOFF


def test_airy_log_array_matches_reference_bit_for_bit():
    # the array route of the sweeps' Airy rows, at the edges of its branches:
    # x = 6.0 is the last series argument, and just below the root a1 the
    # float series is negative, so ln Ai is -inf (at a1 itself it is not)
    a1 = asym.airy_root_a1()
    rng = random.Random(19)
    xs = [6.0, math.nextafter(6.0, math.inf), a1, math.nextafter(a1, -math.inf),
          a1 - 0.5, -3.3, 0.0]
    xs += [rng.uniform(-3.0, 12.0) for _ in range(2000)]
    got = asym._airy_ai_log_array(np.array(xs))
    assert got.tolist() == [reference_airy_ai_log(x) for x in xs]
    assert got[0] > -math.inf and got[2] > -math.inf
    assert got[3] == got[4] == got[5] == -math.inf


def test_maclaurin_array_stops_each_entry_where_the_scalar_loop_stops():
    # at a loose tolerance the next term still moves f, so an entry that
    # kept adding after its own stop would differ from the scalar loop
    xs = np.linspace(-6.0, 6.0, 121)
    got = asym._maclaurin(xs, 0.3, 0.2, 1e-3, 0.0)
    assert got.tolist() == [asym._maclaurin(x, 0.3, 0.2, 1e-3, 0.0) for x in xs.tolist()]


def test_airy_root():
    ok, root = criteria.airy_root()
    assert ok, root
    assert -2.4 < root["value"] < -2.3


def test_airy_log_matches_scipy():
    for x in [0.0, 2.5, 5.0, 5.9, 6.1, 7.5, 20.0, 90.0]:
        ai = special.airy(x)[0]
        if ai > 0:
            assert asym._airy_ai_log(x) == pytest.approx(
                math.log(ai), rel=1e-6, abs=1e-8
            )


def test_params_values():
    p2 = asym.params(2)
    assert p2.lam == pytest.approx(3.0)
    assert p2.gamma == pytest.approx(12.0)
    assert p2.alpha == pytest.approx(-5 / 3)
    assert p2.beta == pytest.approx(3 ** (-2 / 3))
    assert p2.big_b == pytest.approx(2 / 3)
    p3 = asym.params(3)
    assert p3.gamma == pytest.approx(32.0)
    assert p3.big_b == pytest.approx(1.0)
    for d in range(2, 7):
        p = asym.params(d)
        assert p.gamma == pytest.approx(4 * p.lam)
        assert p.beta == pytest.approx((p.big_b / 2) ** (2 / 3))
        assert -2.3382 < p.a1 < -2.3380


def test_mu_nu():
    assert asym.mu(2, 3, 0) == pytest.approx(5 / 3)
    assert asym.nu(2, 3, 0) == pytest.approx(5 / 9)
    # d = 2 keeps a single factor i = 2
    assert asym.nu(2, 10, 4) == pytest.approx(1 - 12 / (3 * 14))
    with pytest.raises(ZeroDivisionError):
        asym.mu(2, 2, 0)
    with pytest.raises(ZeroDivisionError):
        asym.nu(2, 0, 0)


def test_mu_nu_on_arrays_equal_scalar_calls():
    # e_sequence evaluates its rows through the same mu and nu on integer
    # arrays, the sweeps on integer-valued float arrays
    for d in range(2, 7):
        for n in (3, 4, 17, 399):
            for m in (np.arange(0, n + 1), np.arange(0, n + 1, dtype=float)):
                mu_v, nu_v = asym.mu(d, n, m), asym.nu(d, n, m)
                for j in range(n + 1):
                    assert mu_v[j] == asym.mu(d, n, j)
                    assert nu_v[j] == asym.nu(d, n, j)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 100])
def test_nu_positive_on_populated_rows(d):
    # e_sequence reads nu on m < n-1 of every row without checking its sign
    for n in range(3, 2001):
        assert np.all(asym.nu(d, n, np.arange(0, n - 1)) > 0), n


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: asym.params(1), "multiplicity d must be >= 2, got 1"),
        (lambda: asym.e_sequence(1, 10), "multiplicity d must be >= 2, got 1"),
        (lambda: asym.e_sequence(2, 2), "n_max must be >= 3, got 2"),
        # keep_m = -1 used to raise IndexError
        (lambda: asym.e_sequence(2, 10, keep_m=-1), "keep_m must be >= 0, got -1"),
    ],
)
def test_e_sequence_names_the_bad_parameter(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_e_sequence_boundary_and_parity():
    seq = asym.e_sequence(2, 12, keep_m=12)
    # e_{3,1} = nu(3,1) * e_{2,0}
    assert seq.log_e(3, 1) == pytest.approx(math.log(asym.nu(2, 3, 1)))
    for n in range(2, 13):
        for m in range(0, min(n, 12) + 1):
            if (n - m) % 2 == 1:
                assert seq.log_e(n, m) == -math.inf


def _e_log_rows_full_width(d, n_max, keep_m):
    # reference: e_sequence before it cut the subnormal tail of each row
    keep = min(keep_m, n_max)
    log_rows = np.full((n_max + 1, keep + 1), -np.inf)
    size = n_max + 2
    work = np.zeros(size)
    work[0] = 1.0
    log_scale = 0.0
    log_rows[2, 0] = 0.0
    for n in range(3, n_max + 1):
        hi = min(n, size - 2)
        m = np.arange(0, hi + 1)
        mu_v = asym.mu(d, n, m)
        nu_v = asym.nu(d, n, m)
        new = np.zeros(size)
        new[: hi + 1] = mu_v * work[1 : hi + 2]
        new[1 : hi + 1] += nu_v[1:] * work[:hi]
        top = new.max()
        new /= top
        log_scale += math.log(top)
        work = new
        lim = min(keep, hi)
        with np.errstate(divide="ignore"):
            log_rows[n, : lim + 1] = np.log(work[: lim + 1]) + log_scale
    return log_rows


@pytest.mark.parametrize(
    "d, n_max, keep_m",
    [(d, 3000, 64) for d in range(2, 7)]
    + [(2, 6000, 4)]
    # keep_m = n_max: a cut that ignored keep_m would change stored entries
    + [(d, 500, 500) for d in (7, 20, 100)],
)
def test_e_sequence_matches_full_width_rows(d, n_max, keep_m):
    seq = asym.e_sequence(d, n_max, keep_m=keep_m)
    assert np.array_equal(
        seq.log_rows, _e_log_rows_full_width(d, n_max, keep_m)
    )


@pytest.mark.parametrize("d", [2, 3])
def test_transformation_identity_against_b_tables(d):
    # b(n,m) = const * lam^n (n!)^(d-1) e_{n+m,n-m}; the constant comes from
    # the free normalization of e_{2,0} and must be the same everywhere
    bt = words.b_table_int(d, 25)
    seq = asym.e_sequence(d, 50, keep_m=50)
    p = asym.params(d)
    const = None
    for n in range(2, 26):
        for m in range(1, n + 1):
            lhs = math.log(bt.b(n, m))
            rhs = n * math.log(p.lam) + (d - 1) * math.lgamma(n + 1) + seq.log_e(
                n + m, n - m
            )
            if const is None:
                const = lhs - rhs
            assert lhs - rhs == pytest.approx(const, abs=1e-9)


def test_theta_tc_max_d2_closed_form():
    # d=2: (n!)^2 12^n e^(a1 3^(1/3) n^(1/3)) / n^(5/3), since 3*beta(2)=3^(1/3)
    a1 = asym.params(2).a1
    for n in (10, 100, 12345):
        direct = (
            2 * math.lgamma(n + 1)
            + n * math.log(12)
            + a1 * 3 ** (1 / 3) * n ** (1 / 3)
            - (5 / 3) * math.log(n)
        )
        assert asym.theta_tc_max(2, n) == pytest.approx(direct, rel=1e-12)
    assert math.isfinite(asym.theta_tc_max(2, 10**6))
    values = [asym.theta_tc_max(2, n) for n in range(2, 400)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_fixed_k_asymptotic():
    # k = 0, d = 2: ratio against (2n-3)!! tends to 1
    ratios = []
    for n in (50, 200, 800):
        exact_log = math.log(exact.double_factorial_odd(2 * n - 3))
        ratios.append(math.exp(exact_log - asym.fixed_k_asymptotic(2, n, 0)))
    assert abs(ratios[-1] - 1) < 0.01
    assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)
    # d=2, k=1, n=8 sits near 0.67 of the fixture value
    t1 = exact.appendix_table(2)
    r = t1[(8, 1)] / math.exp(asym.fixed_k_asymptotic(2, 8, 1))
    assert 0.6 < r < 0.75
    # d = 4, k = 1: the polynomial factor degenerates to n^(-3/2), the same
    # power as k = 0, so doubling n shifts both terms identically
    d1 = asym.fixed_k_asymptotic(4, 200, 1) - asym.fixed_k_asymptotic(4, 100, 1)
    d0 = asym.fixed_k_asymptotic(4, 200, 0) - asym.fixed_k_asymptotic(4, 100, 0)
    assert d1 == pytest.approx(d0, abs=1e-12)


@pytest.mark.parametrize(
    "d,n,name",
    [(1, 10, "multiplicity d"), (2, 0, "leaf count n"), (3, -4, "leaf count n")],
)
def test_asymptotic_terms_reject_bad_parameters(d, n, name):
    # checked at the boundary, as otc_count is: d = 1 used to give a number
    # and n = 0 a math domain error
    with pytest.raises(ValueError, match=name):
        asym.fixed_k_asymptotic(d, n, 1)
    with pytest.raises(ValueError, match=name):
        asym.otc_total_asymptotic(d, n)
    with pytest.raises(ValueError, match=name):
        asym.theta_tc_max(d, n)


@pytest.mark.parametrize("n,k", [(3, 7), (3, 3), (1, 1), (4, -1)])
def test_fixed_k_asymptotic_rejects_k_outside_0_to_n_minus_1(n, k):
    # a network on n leaves has at most n-1 reticulations, as in otc_count_log
    with pytest.raises(ValueError, match="out of range"):
        asym.fixed_k_asymptotic(2, n, k)


def test_otc_total_asymptotic_agrees_with_exact():
    for d, tol in [(2, 0.02), (3, 0.01), (4, 0.01), (5, 0.02)]:
        ratio = math.exp(
            exact.otc_total_log(d, 400) - asym.otc_total_asymptotic(d, 400)
        )
        assert ratio == pytest.approx(1.0, abs=tol)


def test_stretched_fit_self_test():
    ns = np.arange(100, 4000)
    c0, c1, c2 = 1.7, asym.params(2).a1 * 3 ** (1 / 3), -5 / 3
    logs = c0 + c1 * ns ** (1 / 3) + c2 * np.log(ns)
    fit = asym.stretched_fit(ns, logs, target_c1=c1)
    assert fit.c1 == pytest.approx(c1, abs=1e-6)
    assert fit.rel_err < 1e-6
    assert "target_c1" in fit.to_dict()


def test_stretched_fit_needs_points():
    with pytest.raises(ValueError):
        asym.stretched_fit(np.arange(10), np.zeros(10), target_c1=1.0)


def test_fit_e_diagonal_small():
    fit = asym.fit_e_diagonal(2, 800)
    assert fit.rel_err < 0.1


def test_lower_bound_product():
    # first factor is negative for d=2, all later ones positive
    assert asym.s_tilde(2, 1) < 0
    assert asym.s_tilde(2, 2) > 0
    # i = 0 used to divide by zero and i = -1 to give a complex number
    for i in (0, -1):
        with pytest.raises(ValueError, match=f"i must be >= 1, got {i}"):
            asym.s_tilde(2, i)
    values = [asym.lower_bound_product(2, n) for n in range(3, 120)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # growth of ln(product) - 2n ln 2 carries the 3 a1 beta n^(1/3) term
    ns = np.arange(60, 900)
    series = np.array(
        [asym.lower_bound_product(2, int(n)) - 2 * n * math.log(2) for n in ns]
    )
    target = 3 * asym.params(2).a1 * asym.params(2).beta
    fit = asym.stretched_fit(ns, series, target_c1=target)
    assert fit.rel_err < 0.1


def test_prop_sweeps_resolved_coefficient():
    ns = list(range(600, 1300, 100))
    q = asym.resolved_q_coeff(2)
    assert q == 25
    sub = asym.check_subsolution(2, n_values=ns, q_coeff=q)
    sup = asym.check_supersolution(2, n_values=ns, q_coeff=q)
    assert sub.ok and sup.ok
    assert sub.n_threshold == min(ns)
    # the literal coefficient 13 satisfies the sub-inequality on this window
    sub13 = asym.check_subsolution(2, n_values=ns, q_coeff=13)
    assert sub13.ok
    # but provably breaks the super-inequality at m = 0 for every n
    sup13 = asym.check_supersolution(2, n_values=ns, q_coeff=13)
    assert not sup13.ok
    assert 0 in {m for _, m, _, _ in sup13.violations}
    assert {n for n, _, _, _ in sup13.violations} == set(ns)
    report = sup13.to_dict()
    assert report["check"] == "supersolution" and report["n_threshold"] is None


def _prop_sweep_three_calls(d, n_values, eps, q_coeff, eta, m_exponent, super_side):
    # reference: _prop_sweep before it shared the row n-1 Airy evaluations,
    # three ln Ai calls per sample
    p = asym.params(d)
    a1 = p.a1
    b13 = p.big_b ** (1.0 / 3.0)
    b23 = p.big_b ** (2.0 / 3.0)
    quad = (2 * d - 1) / (3.0 * (d + 1))
    lin = q_coeff / (6.0 * (d + 1))
    mid = (3 * d * d - 5 * d + 4) / (3.0 * (d + 1))

    def prefactor(n, m):
        out = 1.0 - quad * m * m / n - lin * m / n
        if eta is not None:
            out += eta * m**4 / n**2
        return out

    def log_ai(n, m):
        return reference_airy_ai_log(a1 + b13 * (m + 1) / n ** (1.0 / 3.0))

    violations = []
    samples = 0
    for n in n_values:
        s_n = 2.0 + a1 * b23 / n ** (2.0 / 3.0) - mid / n
        s_n += n**-(7.0 / 6.0) if super_side else -(n ** -(7.0 / 6.0))
        for m in range(0, int(n**m_exponent)):
            samples += 1
            la0 = log_ai(n, m)
            la_up = log_ai(n - 1, m + 1)
            la_dn = log_ai(n - 1, m - 1)
            top = max(la0, la_up, la_dn)
            if top == -math.inf:
                continue
            lhs = prefactor(n, m) * s_n * math.exp(la0 - top)
            rhs = asym.mu(d, n, m) * prefactor(n - 1, m + 1) * math.exp(la_up - top)
            if la_dn > -math.inf:
                rhs += asym.nu(d, n, m) * prefactor(n - 1, m - 1) * math.exp(la_dn - top)
            slack = 1e-12 * max(abs(lhs), abs(rhs), 1.0)
            if lhs < rhs - slack if super_side else lhs > rhs + slack:
                violations.append((n, m, lhs, rhs))
    return asym.PropReport(
        d=d,
        check="supersolution" if super_side else "subsolution",
        q_coeff=q_coeff,
        eps=eps,
        eta=eta,
        violations=violations,
        n_values=list(n_values),
        samples=samples,
    )


@pytest.mark.parametrize(
    "d, q",
    sorted({
        (d, coeff(d))
        for d in range(2, 7)
        for coeff in (asym.default_q_coeff, asym.candidate_q_coeff,
                      asym.resolved_q_coeff)
    }),
)
def test_prop_sweeps_match_three_call_reference(d, q):
    ns = [200, 450, 1250, 5000]
    eps = 0.1
    eta = (2 * d - 1) ** 2 / (18.0 * (d + 1) ** 2) + 0.01
    sub = asym.check_subsolution(d, n_values=ns, eps=eps, q_coeff=q)
    sup = asym.check_supersolution(d, n_values=ns, eps=eps, q_coeff=q)
    ref_sub = _prop_sweep_three_calls(
        d, ns, eps, q, None, 2.0 / 3.0 - eps, super_side=False
    )
    ref_sup = _prop_sweep_three_calls(
        d, ns, eps, q, eta, 1.0 - eps, super_side=True
    )
    assert sub.to_dict() == ref_sub.to_dict()
    assert sup.to_dict() == ref_sup.to_dict()


def test_airy_rows_cache_key_and_reuse():
    # each sweep must read the rows of its own (d, n_values, m_exponent),
    # and a second coefficient at the same d must reuse them
    ns = [200, 450]
    asym._airy_rows.cache_clear()

    def eta(d):
        return (2 * d - 1) ** 2 / (18.0 * (d + 1) ** 2) + 0.01

    def sweep(side, d, eps, q):
        if side == "super":
            got = asym.check_supersolution(d, n_values=ns, eps=eps, q_coeff=q)
            m_exp, e, sup = 1.0 - eps, eta(d), True
        else:
            got = asym.check_subsolution(d, n_values=ns, eps=eps, q_coeff=q)
            m_exp, e, sup = 2.0 / 3.0 - eps, None, False
        want = _prop_sweep_three_calls(d, ns, eps, q, e, m_exp, sup)
        assert got.to_dict() == want.to_dict(), (side, d, eps, q)

    sweep("super", 2, 0.1, 13)
    sweep("sub", 2, 0.1, 13)
    sweep("sub", 2, 0.2, 13)
    sweep("super", 3, 0.1, asym.default_q_coeff(3))
    sweep("sub", 2, 0.1, 13)
    hits = asym._airy_rows.cache_info().hits
    sweep("sub", 2, 0.1, 25)
    assert asym._airy_rows.cache_info().hits == hits + 1
    # the d = 3 super-solution rows are still held: a key without d reads them
    sweep("super", 2, 0.1, 13)


@pytest.mark.parametrize("check", [asym.check_subsolution, asym.check_supersolution])
def test_prop_sweeps_reject_non_integer_n(check):
    with pytest.raises(ValueError, match="n_values entries must be integers"):
        check(2, n_values=[200.5], q_coeff=13)
    with pytest.raises(ValueError, match="n_values entries must be integers"):
        check(2, n_values=[200.0], q_coeff=13)
    # numpy integers are integers, swept as the equal Python int
    assert check(2, n_values=[np.int64(200)], q_coeff=13).to_dict() == check(
        2, n_values=[200], q_coeff=13
    ).to_dict()


@pytest.mark.parametrize("check", [asym.check_subsolution, asym.check_supersolution])
@pytest.mark.parametrize("n", [1, 2])
def test_prop_sweeps_reject_n_below_3(check, n):
    with pytest.raises(ValueError, match=f"n_values entries must be >= 3, got {n}"):
        check(2, n_values=[200, n], q_coeff=13)


@pytest.mark.parametrize("check", [asym.check_subsolution, asym.check_supersolution])
def test_prop_sweeps_reject_empty_n_values(check):
    with pytest.raises(ValueError, match="n_values must not be empty"):
        check(2, n_values=[], q_coeff=13)


@pytest.mark.parametrize(
    "check, eps",
    [(asym.check_subsolution, e) for e in (0.0, -0.1, 2.0 / 3.0, 1.0, math.nan)]
    + [(asym.check_supersolution, e) for e in (0.0, -0.1, 1.0, 1.5, math.nan)],
)
def test_prop_sweeps_reject_eps_outside_range(check, eps):
    with pytest.raises(ValueError, match="eps must be in"):
        check(2, n_values=[200], eps=eps, q_coeff=13)


def test_prop_trivial_orderings():
    # s-tilde < s-hat (they differ by the sign of n^(-7/6)); X-hat >= X-tilde
    p = asym.params(2)
    for n in (300, 2000):
        assert asym._s_factor(p, n, -1.0) < asym._s_factor(p, n, 1.0)
        assert asym._s_factor(p, n, -1.0) == asym.s_tilde(2, n)


def test_sandwich_in_log_space():
    # cross-module: the fixture sandwich survives log-space arithmetic
    for d in (2, 4):
        table = exact.appendix_table(d)
        for n in table.n_values:
            if n < 2:
                continue
            log_max = words.tc_max_count_log(d, n)
            log_total = math.log(table.row_sum(n))
            assert log_max <= log_total + 1e-9
            assert log_total <= log_max + 0.5 + 1e-9  # ln sqrt(e) = 0.5


def test_theta_residual_window_rejects_short_log_c():
    with pytest.raises(ValueError, match="need at least 50 "):
        asym.theta_residual_window(2, 5, 50, log_c=words.c_log_sequence(2, 10))


def test_airy_profile_of_e_row():
    # the ansatz correction is O(n^(-1/3)) with a coefficient growing in the
    # rescaled coordinate, so pointwise 5% agreement holds on the first 12
    # admissible m at n = 4000; over 30 entries the shapes still correlate
    seq = asym.e_sequence(2, 4000, keep_m=64)
    assert asym.airy_profile_deviation(seq, 4000) < 0.05
    p = asym.params(2)
    ms = np.arange(0, 60, 2)
    log_e = np.array([seq.log_e(4000, int(m)) for m in ms])
    log_ai = np.array([asym._airy_ai_log(asym._airy_arg(p, 4000, int(m))) for m in ms])
    corr = np.corrcoef(np.exp(log_e - log_e.max()), np.exp(log_ai - log_ai.max()))[0, 1]
    assert corr > 0.99
