"""Reticulation-count distributions of random one-component networks.

The number of reticulations R of a uniform random one-component network
with n leaves has point probabilities proportional to the exact counts.
Its three limit regimes are checked at desk scale: a central limit law for
d = 2 (after centering at n - sqrt(n)), the discrete Bessel law of the
deficiency n-1-R for d = 3, and degeneracy for d >= 4.  All probability
work happens in log space from the counting formula.  numpy is imported
in the functions that build arrays, so the exploratory reports, which read
integer rows, load none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .exact import CountTable, _check_int, _check_params, otc_count_log
from .words import DEFAULT_WORD_BUDGET, cnk_words_count


@dataclass
class Pmf:
    """Law of the reticulation count R; support is k = 0..n-1."""

    d: int
    n: int
    log_probs: np.ndarray

    @property
    def support(self) -> range:
        return range(0, self.n)

    def prob(self, k: int) -> float:
        """P(R = k), 0 outside the support."""
        k = _check_int("k", k)
        if not 0 <= k <= self.n - 1:
            return 0.0
        return float(math.exp(self.log_probs[k]))

    def mode(self) -> int:
        return int(self.log_probs.argmax())

    def to_csv(self) -> str:
        lines = ["k,log_prob"]
        for k in self.support:
            lines.append(f"{k},{float(self.log_probs[k])!r}")
        return "\n".join(lines) + "\n"


@dataclass
class MomentSummary:
    mean: float
    variance: float
    third_abs: float  # standardized third absolute moment


def r_pmf(d: int, n: int) -> Pmf:
    """P(R = k) proportional to the one-component count with k reticulations."""
    import numpy as np
    d, n = _check_params(d, n)
    logs = np.array([otc_count_log(d, n, k) for k in range(n)])
    top = logs.max()
    return Pmf(d=d, n=n, log_probs=logs - (top + math.log(np.exp(logs - top).sum())))


def modified_bessel_i(v: int, a: float) -> float:
    """Modified Bessel function of the first kind, by its power series."""
    if v < 0:
        raise ValueError(f"order must be >= 0, got {v}")
    if abs(a) > 20:
        raise ValueError(f"series argument window is |a| <= 20, got {a}")
    q = a * a / 4.0
    term = (a / 2.0) ** v / math.gamma(v + 1)
    total = term
    for k in range(1, 200):
        term *= q / (k * (k + v))
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


@functools.cache
def _i1_2() -> float:
    """I_1(2), the normaliser of the Bessel(1,2) law."""
    return modified_bessel_i(1, 2.0)


def bessel_pmf(k: int) -> float:
    """P(Bessel(1,2) = k) = 1 / (I_1(2) k! (k+1)!)."""
    k = _check_int("k", k, 0)
    return math.exp(
        -math.log(_i1_2()) - math.lgamma(k + 1) - math.lgamma(k + 2)
    )


def otc_tail_expansion(d: int, n: int, k: int) -> float:
    """ln of the leading term predicting the count at k below the maximum.

    Valid for d >= 3 and k = o(sqrt(n)): the count with n-1-k reticulations
    is (d^2 d!/(2 d^d))^k / (k!(k+1)!) * n^((3-d)k) * n (dn-d)! / d!^(n-1)
    up to a relative error O((1+k^2)/n).  At d = 3 the prefactor powers
    collapse to 1.
    """
    _check_int("multiplicity d", d, 3)  # where the expansion applies
    d, n, k = _check_params(d, n, k)
    lg = math.lgamma
    coef = d * d * math.factorial(d) / (2.0 * d**d)
    return (
        k * math.log(coef)
        - lg(k + 1)
        - lg(k + 2)
        + (3 - d) * k * math.log(n)
        + math.log(n)
        + lg(d * n - d + 1)
        - (n - 1) * lg(d + 1)
    )


def normal_limit_check(n: int) -> tuple[MomentSummary, float]:
    """Standardized moments and sup-CDF distance to N(0,1), for d = 2.

    Standardization follows the limit law: z = (R - n + sqrt(n)) / (n/4)^(1/4).
    The lattice CDF is compared with the normal CDF at lattice midpoints.
    At n = 1 the law is a point mass with no third moment, so n >= 2.
    """
    import numpy as np
    n = _check_int("leaf count n", n, 2)
    pmf = r_pmf(2, n)
    probs = np.exp(pmf.log_probs)
    ks = np.arange(n, dtype=float)
    scale = (n / 4.0) ** 0.25
    z = (ks - n + math.sqrt(n)) / scale
    mean = float((probs * z).sum())
    var = float((probs * z * z).sum() - mean * mean)
    third = float((probs * np.abs(z - mean) ** 3).sum() / var**1.5)
    cdf = np.cumsum(probs)
    z_mid = (ks + 0.5 - n + math.sqrt(n)) / scale
    phi = 0.5 * (1.0 + np.vectorize(math.erf)(z_mid / math.sqrt(2.0)))
    sup = float(np.abs(cdf - phi).max())
    return MomentSummary(mean=mean, variance=var, third_abs=third), sup


def bessel_limit_check(n: int) -> float:
    """Total variation distance of the law of n-1-R to Bessel(1,2), d = 3."""
    import numpy as np
    pmf = r_pmf(3, n)
    probs = np.exp(pmf.log_probs)
    total = 0.0
    bessel_mass = 0.0
    for j in range(n):  # j = n-1-k
        q = bessel_pmf(j)
        bessel_mass += q
        total += abs(float(probs[n - 1 - j]) - q)
    total += max(0.0, 1.0 - bessel_mass)  # Bessel tail beyond the support
    return 0.5 * total


def degenerate_check(d: int, n: int) -> float:
    """P(R = n-1) for d >= 4 (tends to 1)."""
    _check_int("multiplicity d", d, 4)  # the degenerate regime
    pmf = r_pmf(d, n)
    return pmf.prob(n - 1)


def poisson_pmf(j: int) -> float:
    """P(Poisson(1/2) = j), the conjectured limit of the d = 2 deficiency."""
    j = _check_int("j", j, 0)
    return math.exp(-0.5 + j * math.log(0.5) - math.lgamma(j + 1))


def conjecture_poisson_report(table: CountTable, n: int | None = None) -> dict:
    """Empirical law of the reticulation deficiency vs Poisson(1/2).

    Exploratory: compares the fixture row's distribution of n-1-k with the
    conjectured Poisson(1/2) limit.  Report only, never asserted.
    """
    if table.d != 2:
        raise ValueError("the Poisson conjecture concerns d = 2")
    n = table.n_values[-1] if n is None else _check_int("leaf count n", n)
    row = table.row(n)
    total = sum(row)
    rows = []
    for j in range(n):
        empirical = row[n - 1 - j] / total
        rows.append(
            {
                "deficiency": j,
                "empirical": empirical,
                "poisson_half": poisson_pmf(j),
            }
        )
    return {"d": 2, "n": n, "comparison": rows}


def conjecture_words_report(
    table: CountTable, n: int, budget: int = DEFAULT_WORD_BUDGET
) -> dict:
    """Word counts vs the conjectured identity TC(n,k) = n!/(n-k)! c(n-1,k).

    Exploratory, d = 2: c(n-1,k) counts the words on n-1 letters with the
    first k tripled (words.cnk_words_count).  Each row holds the word
    count, the predicted TC(n,k) and the table's TC(n,k), or None where
    the table has no such cell.  Report only, never asserted.
    """
    if table.d != 2:
        raise ValueError("the words conjecture concerns d = 2")
    n = _check_int("leaf count n", n, 1)
    rows = []
    for k in range(n):
        v = cnk_words_count(n - 1, k, budget=budget)
        rows.append(
            {
                "k": k,
                "word_count": v,
                "predicted_tc": math.factorial(n) // math.factorial(n - k) * v,
                "fixture_tc": table[(n, k)] if (n, k) in table else None,
            }
        )
    return {"n": n, "comparison": rows}
