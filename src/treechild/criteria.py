"""The acceptance criteria, one function each, at their stated tolerances.

Every function returns ``(ok, details)`` with JSON-ready details; integers
at or beyond 2^53 in them are decimal strings.  Suite-style checks give a
list of entries ``{"check", <cell>, ..., "ok"}``.  ``treechild verify``
composes its suites from these functions and the acceptance tests assert
them, so each tolerance is written here and nowhere else.
"""

from __future__ import annotations

import math
import time

from . import asymptotics as asym
from . import distributions as dist
from . import exact
from . import networks as nw
from . import words

AIRY_A1 = -2.33810741  # the largest zero of Ai to 8 decimals


def json_int(x: int):
    """x, or its decimal string when |x| >= 2^53 (doubles cannot hold it)."""
    return str(x) if abs(x) >= 2**53 else x


def _match(check: str, ref: str, cells) -> tuple[bool, list[dict]]:
    """One entry per (cell, got, want), ok when got == want."""
    entries = [
        {"check": check, **cell, "got": json_int(got), ref: json_int(want),
         "ok": got == want}
        for cell, got, want in cells
    ]
    return all(e["ok"] for e in entries), entries


def tcmax_rows(d: int) -> tuple[bool, list[dict]]:
    """Criterion 1: the words give TC_{n,n-1} of every reference row."""
    table = exact.appendix_table(d)
    return _match("tcmax", "fixture", (
        ({"n": n}, words.tc_max_count(d, n), table[(n, n - 1)])
        for n in table.n_values
    ))


def tc_oracle(d: int, n_max: int, budget: int) -> tuple[bool, list[dict]]:
    """Criterion 2: brute force gives every reference cell with 2 <= n <= n_max."""
    d = exact._check_d(d)
    n_max = exact._check_int("n_max", n_max, 2)
    budget = exact._check_int("budget", budget, 0)
    table = exact.appendix_table(d)
    return _match("brute_force", "fixture", (
        ({"n": n, "k": k}, nw.count_tc_networks(d, n, k, budget=budget),
         table[(n, k)])
        for n in range(2, n_max + 1) for k in range(n)
    ))


def otc_formula(d: int, n_max: int, budget: int) -> tuple[bool, list[dict]]:
    """Criterion 3: the one-component generator matches the closed formula
    for n <= n_max, and the formula obeys its step recurrence for n < 40."""
    d = exact._check_d(d)
    n_max = exact._check_int("n_max", n_max, 1)
    budget = exact._check_int("budget", budget, 0)
    ok, entries = _match("otc_oracle", "formula", (
        ({"n": n, "k": k}, nw.count_otc_networks(d, n, k, budget=budget),
         exact.otc_count(d, n, k))
        for n in range(1, n_max + 1) for k in range(n)
    ))
    for n in range(2, 40):
        for k in range(1, n):
            lhs = exact.otc_count(d, n, k) * k
            rhs = (n * math.comb(2 * n + (d - 2) * k - 2, d)
                   * exact.otc_count(d, n - 1, k - 1))
            if lhs != rhs:
                ok = False
                entries.append({"check": "step_recurrence", "n": n, "k": k,
                                "ok": False})
    entries.append({"check": "step_recurrence", "range": "n<40", "ok": ok})
    return ok, entries


def word_oracle(d: int, budget: int) -> tuple[bool, list[dict]]:
    """Criterion 4: words of length (d+1)n <= 14 are counted by c_n and
    split by suffix index as the b-table says."""
    d = exact._check_d(d)
    if d > 13:  # no word would be checked
        raise ValueError(
            f"multiplicity d must be <= 13 for words of length at most 14, got {d}"
        )
    budget = exact._check_int("budget", budget, 0)
    entries = []
    n = 1
    while n * (d + 1) <= 14:
        stream = list(words.enumerate_words(d, n, budget=budget))
        want = words.c_count(d, n)
        entries.append({"check": "word_count", "n": n, "got": len(stream),
                        "recurrence": json_int(want), "ok": len(stream) == want})
        table = words.b_table_int(d, n)
        parts: dict[int, int] = {}
        for w in stream:
            m = words.suffix_index(w, d)
            parts[m] = parts.get(m, 0) + 1
        entries.append({"check": "suffix_partition", "n": n, "ok": all(
            parts.get(m, 0) == table.b(n, m) for m in range(1, n + 1))})
        n += 1
    return all(e["ok"] for e in entries), entries


def dual_recurrence(d: int) -> tuple[bool, list[dict]]:
    """Criterion 5: integer and rational b-recurrences agree for n <= 50."""
    ok = words.b_table_int(d, 50).rows == words.b_table_rational(d, 50).rows
    return ok, [{"check": "dual_recurrence", "n_max": 50, "ok": ok}]


def sandwich() -> tuple[bool, list[dict]]:
    """Criterion 6 on every reference row: TC_{n,n-1} <= sum_k TC_{n,k} <=
    sqrt(e) TC_{n,n-1}, the step 2(n-k-1) TC_{n,k} <= TC_{n,k+1}, the upper
    bound of ``exact.tc_upper_bound``, and equality of the step at k = n-2
    for d = 2.  Step and bound entries appear only where they fail."""
    entries = []
    for d in exact.fixture_d_values():
        table = exact.appendix_table(d)
        for n in table.n_values:
            tc_max = table[(n, n - 1)]
            good = tc_max <= table.row_sum(n) <= math.sqrt(math.e) * tc_max
            entries.append({"check": "sandwich", "d": d, "n": n, "ok": good})
            entries += [
                {"check": "step", "d": d, "n": n, "k": k, "ok": False}
                for k in range(n - 1)
                if 2 * (n - k - 1) * table[(n, k)] > table[(n, k + 1)]
            ]
            entries += [
                {"check": "upper_bound", "d": d, "n": n, "k": k, "ok": False}
                for k in range(n)
                if table[(n, k)] > exact.tc_upper_bound(d, n, k, tc_max)[0]
            ]
    table = exact.appendix_table(2)
    entries += [
        {"check": "equality_at_nm2", "n": n,
         "ok": 2 * table[(n, n - 2)] == table[(n, n - 1)]}
        for n in range(3, 9)
    ]
    return all(e["ok"] for e in entries), entries


def airy_root() -> tuple[bool, dict]:
    """Criterion 7: a1 within 1e-6 of -2.33810741 and |Ai(a1)| < 1e-8."""
    root = asym.airy_root_a1()
    error, residual = abs(root - AIRY_A1), abs(asym.airy_ai(root))
    ok = error < 1e-6 and residual < 1e-8
    return ok, {"value": root, "error": error, "residual": residual}


def limit_laws() -> tuple[bool, dict]:
    """Criterion 8: Bessel TV decreasing to below 0.01 at n = 10^4 (d = 3);
    normal sup-distance < 0.05, |mean| < 0.1, variance in (0.8, 1.2) at
    n = 2000 (d = 2); P(max) >= 0.99 at n = 100 (d = 4).  The details hold
    each regime's seconds."""
    t0 = time.monotonic()
    tvs = [dist.bessel_limit_check(n) for n in (100, 1000, 10000)]
    t1 = time.monotonic()
    moments, sup = dist.normal_limit_check(2000)
    t2 = time.monotonic()
    p_max = dist.degenerate_check(4, 100)
    t3 = time.monotonic()
    ok = (
        tvs[2] < 0.01 and tvs[0] > tvs[1] > tvs[2]
        and sup < 0.05 and abs(moments.mean) < 0.1 and 0.8 < moments.variance < 1.2
        and p_max >= 0.99
    )
    return ok, {
        "bessel_tv": tvs, "normal_sup": sup, "normal_mean": moments.mean,
        "normal_variance": moments.variance, "degenerate_p": p_max,
        "seconds": [t1 - t0, t2 - t1, t3 - t2],
    }


def otc_total(d: int) -> tuple[bool, list[dict]]:
    """Criterion 9: exact over asymptotic one-component totals within 2% at
    n = 500, or for d = 2, |ratio - 1| decreasing over n = 250..2000."""
    def ratio(n: int) -> float:
        return math.exp(exact.otc_total_log(d, n) - asym.otc_total_asymptotic(d, n))

    if d == 2:
        ratios = [ratio(n) for n in (250, 500, 1000, 2000)]
        ok = all(abs(ratios[i + 1] - 1) < abs(ratios[i] - 1) for i in range(3))
        return ok, [{"check": "otc_total_trend", "ratios": ratios, "ok": ok}]
    r = ratio(500)
    ok = abs(r - 1) < 0.02
    return ok, [{"check": "otc_total_ratio", "ratio": r, "ok": ok}]


def theta(d: int) -> tuple[bool, dict]:
    """Criterion 10: Theta-residuals of TC_{n,n-1} over n = 500..2000
    oscillate by < 0.5 with shrinking dyadic differences, flipping the sign
    of a1 makes them oscillate by > 5, and the e-diagonal fit of the
    stretched coefficient is within 10%."""
    log_c = words.c_log_sequence(d, 1999)
    window = asym.theta_residual_window(d, 500, 2000, log_c=log_c)
    dyadic = [float(x) for x in window["dyadic_differences"]]
    flipped = asym.theta_residual_window(d, 500, 2000, a1=-AIRY_A1, log_c=log_c)
    fit = asym.fit_e_diagonal(d, 5000)
    ok = (
        window["oscillation"] < 0.5 and dyadic[1] < dyadic[0]
        and flipped["oscillation"] > 5 and fit.rel_err < 0.10
    )
    return ok, {
        "oscillation": window["oscillation"], "dyadic_differences": dyadic,
        "flipped_oscillation": flipped["oscillation"], "fit_rel_err": fit.rel_err,
    }


def fixed_k_trend() -> tuple[bool, dict]:
    """Criterion 11: TC_{n,k} over its fixed-k asymptotic increases
    strictly over n = 4..8 for d = 2 and k = 1, 2."""
    table = exact.appendix_table(2)
    ratios = [
        [table[(n, k)] / math.exp(asym.fixed_k_asymptotic(2, n, k))
         for n in range(4, 9)]
        for k in (1, 2)
    ]
    ok = all(b > a for r in ratios for a, b in zip(r, r[1:]))
    return ok, {"ratios_k1_k2": ratios}


def proposition_sweeps(d: int, q_coeff: int) -> tuple[bool, dict]:
    """Criterion 12: the sub- and super-solution sweeps with prefactor
    coefficient q_coeff each reach a threshold above which nothing is
    violated."""
    sub = asym.check_subsolution(d, q_coeff=q_coeff)
    sup = asym.check_supersolution(d, q_coeff=q_coeff)
    ok = sub.n_threshold is not None and sup.n_threshold is not None
    return ok, {
        "d": sub.d,
        "q_coeff": sub.q_coeff,
        "subsolution": sub.to_dict(),
        "supersolution": sup.to_dict(),
    }
