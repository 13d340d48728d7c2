"""Log-space evaluation of the asymptotic counting formulas.

Everything here works with natural logarithms in double precision: ln n!
comes from log-gamma, never from converting big integers to floats, and Ai
and ln Ai come from one float Maclaurin loop up to x = 6 and one asymptotic
expansion above it (Ai within 2.2e-11 of scipy on |x| <= 8).  The module
covers the Airy function and its largest root, the linear recurrence
whose diagonal carries the stretched-exponential growth of the maximal
reticulation counts, the Theta-expression they satisfy, the first-order
asymptotics of the one-component totals, least-squares extraction of the
stretched-exponential coefficient, and numeric sweeps of the sub- and
super-solution inequalities.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from .distributions import _i1_2
from .exact import _check_d, _check_int, _check_params
from .words import c_log_sequence, tc_max_count_log

_LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Airy function.
# ---------------------------------------------------------------------------

_AIRY_WINDOW = 8.0
_SERIES_LOG_CUTOFF = 6.0

# standard values Ai(0) = 3^(-2/3)/Gamma(2/3) and -Ai'(0) = 3^(-1/3)/Gamma(1/3)
_AI0 = 0.355028053887817239260063186004183176397979
_AIP0 = 0.258819403792806798405183560189203963479091

_LOG_2SQRTPI = math.log(2.0 * math.sqrt(math.pi))


def _asymptotic_terms() -> tuple[float, ...]:
    """The 61 coefficients u_k of ln Ai's asymptotic series, each the one
    before times (6k-5)(6k-1)/(72k), in the order the series uses them."""
    terms = []
    term = 1.0
    for k in range(61):
        term *= (6 * k + 1) * (6 * k + 5) / (72.0 * (k + 1))
        terms.append(term)
    return tuple(terms)


_ASYMPTOTIC_TERMS = _asymptotic_terms()


def _each(fn, a: np.ndarray, *rest: float) -> np.ndarray:
    """fn(v, *rest) on each entry v of a, as Python floats.

    The Airy rows and the sweeps take pow, exp and log from math this way,
    and every swept value is pinned to the libm result: with numpy 2.4.6 on
    an AVX-512 x86-64 CPU, np.power(x, 1.5) differs from libm on 52,582 of
    10^6 uniform x in [6, 120], np.log on 150 of them, and np.exp on 46,261
    of 10^6 uniform x in [-700, 0].
    """
    return np.fromiter(map(fn, a.tolist(), *map(itertools.repeat, rest)), float, len(a))


def _maclaurin(x, c1, c2, rel, floor):
    """c1 f(x) - c2 g(x) for the Maclaurin pair of Ai, x a float or a float array.

    f = sum x^(3k) 1*4*...*(3k-2)/(3k)! and g = sum x^(3k+1) 2*5*...*(3k-1)
    /(3k+1)!, each term the one before times x^3/den.  Terms are added while
    |t| > rel*|f| + floor or |u| > rel*|g| + floor, at most 201 times.

    An entry whose terms are small enough gets t = u = 0 from then on, so
    each later f + t leaves it bit-identical to the loop on that entry alone.
    """
    x3 = x * x * x
    f = t = 1.0
    g = u = x
    for k in range(201):
        live = (abs(t) > rel * abs(f) + floor) | (abs(u) > rel * abs(g) + floor)
        if not np.any(live):
            break
        # not in place: on an array, u is x at first
        t = t * live * (x3 / ((3 * k + 2) * (3 * k + 3)))
        u = u * live * (x3 / ((3 * k + 3) * (3 * k + 4)))
        f = f + t
        g = g + u
    return c1 * f - c2 * g


def _airy_asymptotic_log(x: np.ndarray) -> np.ndarray:
    """ln Ai of each entry of x, all > 6, from the standard asymptotic expansion.

    Each entry's sum is cut adaptively at its smallest term, so its error is
    ~e^(-2*zeta), negligible at the crossover from the series.  Term k is
    u_k / zeta^k with zeta^k from libm's pow; an entry leaves the live set
    at its own stop, so each sum is bit-identical to the loop on that entry
    alone.
    """
    zeta = (2.0 / 3.0) * _each(math.pow, x, 1.5)
    s = np.ones(len(x))
    live, z, prev = np.arange(len(x)), zeta, np.full(len(x), math.inf)
    for k, term in enumerate(_ASYMPTOTIC_TERMS, 1):
        contrib = term / _each(math.pow, z, float(k))
        go = (contrib < prev) & (contrib >= 1e-18)
        if not go.any():
            break
        live, z, prev = live[go], z[go], contrib[go]
        if k % 2:
            s[live] -= prev
        else:
            s[live] += prev
    return -zeta - 0.25 * _each(math.log, x) - _LOG_2SQRTPI + _each(math.log, s)


def airy_ai(x: float) -> float:
    """Ai(x) on |x| <= 8, in double precision.

    Ai(x) = Ai(0) f(x) + Ai'(0) g(x) from the float Maclaurin pair for
    x <= 6.  The two series grow like e^(2|x|^1.5/3) before they cancel at
    positive x, and the sum alone misses by 3.8e-10 at x = 7.9, so above 6
    Ai is the exponential of the asymptotic expansion.  At 32,001 points
    this is within 2.2e-11 of scipy.special.airy on [-8, 6] and 1.4e-15 on
    (6, 8].
    """
    if abs(x) > _AIRY_WINDOW:
        raise ValueError(f"airy_ai series window is |x| <= {_AIRY_WINDOW}, got {x}")
    if x > _SERIES_LOG_CUTOFF:
        return math.exp(_airy_asymptotic_log(np.array([x], dtype=float))[0])
    return float(_maclaurin(x, _AI0, _AIP0, 1e-19, 1e-300))


def _airy_ai_log(x: np.ndarray) -> np.ndarray:
    """ln Ai of each entry of x, for x > a1 (where Ai is positive) up to
    about 1e205, above which zeta overflows and math.pow raises
    OverflowError; -inf where the float series is at or below zero.

    Entries up to the cutoff run through _maclaurin as one array, where the
    exponential cancellation stays below ~1e-9 relative, and the others
    through _airy_asymptotic_log as another.  Each entry stops where the
    loop on it alone would, so the value of an entry does not depend on
    the rest of the array.
    """
    out = np.empty(len(x))
    series = x <= _SERIES_LOG_CUTOFF
    v = _maclaurin(x[series], _AI0, _AIP0, 1e-19, 1e-300)
    positive = v > 0.0
    v[positive] = _each(math.log, v[positive])
    v[~positive] = -math.inf
    out[series] = v
    out[~series] = _airy_asymptotic_log(x[~series])
    return out


def airy_root_a1() -> float:
    """Largest root of Ai, by bisection on [-3, -2]."""
    lo, hi = -3.0, -2.0
    flo = airy_ai(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = airy_ai(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


_a1 = functools.cache(airy_root_a1)


# ---------------------------------------------------------------------------
# Parameters of the Theta-result.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticParams:
    d: int
    lam: float      # (d+1)^(d-1)/(d-1)!
    gamma: float    # 4*lam
    alpha: float    # -d(3d-1)/(2(d+1))
    beta: float     # ((d-1)/(d+1))^(2/3)
    big_b: float    # 2(d-1)/(d+1)
    a1: float


def params(d: int) -> AsymptoticParams:
    d = _check_d(d)
    lam = (d + 1) ** (d - 1) / math.factorial(d - 1)
    return AsymptoticParams(
        d=d,
        lam=lam,
        gamma=4.0 * lam,
        alpha=-d * (3 * d - 1) / (2.0 * (d + 1)),
        beta=((d - 1) / (d + 1)) ** (2.0 / 3.0),
        big_b=2.0 * (d - 1) / (d + 1),
        a1=_a1(),
    )


def _s_factor(p: AsymptoticParams, n: int, sign: float) -> float:
    """s-hat (sign = +1) or s-tilde (sign = -1) of the sweeps and the bound:
    2 + a1 B^(2/3) n^(-2/3) - (3d^2-5d+4)/(3(d+1)n) + sign n^(-7/6)."""
    mid = (3 * p.d * p.d - 5 * p.d + 4) / (3.0 * (p.d + 1))
    return (
        2.0
        + p.a1 * p.big_b ** (2.0 / 3.0) / n ** (2.0 / 3.0)
        - mid / n
        + sign * n ** -(7.0 / 6.0)
    )


def _airy_arg(p: AsymptoticParams, n: int, m: int) -> float:
    """a1 + B^(1/3)(m+1)/n^(1/3): where the ansatz for e_{n,m} evaluates Ai."""
    return p.a1 + p.big_b ** (1.0 / 3.0) * (m + 1) / n ** (1.0 / 3.0)


def mu(d: int, n: int, m):
    """Coefficient of e_{n-1,m+1}; m may be an int or an array of integers."""
    try:
        return 1.0 + 2.0 * (d - 1) / ((d + 1) * n + (d - 1) * m - 2 * (d + 1))
    except ZeroDivisionError:
        raise ZeroDivisionError(f"mu pole at d={d}, n={n}, m={m}") from None


def nu(d: int, n: int, m):
    """Coefficient of e_{n-1,m-1}; m may be an int or an array of integers."""
    out = 1.0
    try:
        den = (d + 1) * (n + m)
        for i in range(2, d + 1):
            out *= 1.0 - 2.0 * (m + i) / den
    except ZeroDivisionError:
        raise ZeroDivisionError(f"nu pole at d={d}, n={n}, m={m}") from None
    return out


# ---------------------------------------------------------------------------
# The e-recurrence.
# ---------------------------------------------------------------------------

@dataclass
class ESequence:
    """Rows of the rescaled recurrence, kept as logarithms.

    log_rows[n, m] = ln e_{n,m} for m <= keep_m (-inf where the entry is
    zero, including odd n-m parity); rows are built one at a time with
    per-row rescaling, so absolute logs stay finite far beyond double range.
    """

    d: int
    n_max: int
    keep_m: int
    log_rows: np.ndarray = field(repr=False)

    def log_e(self, n: int, m: int) -> float:
        n, m = _check_int("n", n), _check_int("m", m)
        if not (2 <= n <= self.n_max and 0 <= m <= self.keep_m):
            raise ValueError(f"(n={n}, m={m}) outside stored range")
        return float(self.log_rows[n, m])

    def diagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """(j, ln e_{2j,0}) for all stored even rows."""
        ns = np.arange(2, self.n_max + 1, 2)
        return ns // 2, self.log_rows[ns, 0]


def e_sequence(d: int, n_max: int, keep_m: int = 64) -> ESequence:
    """Run the recurrence from e_{2,0} = 1 up to row n_max.

    e_{n,m} = mu(n,m) e_{n-1,m+1} + nu(n,m) e_{n-1,m-1}, with mu > 1 and
    nu > 0 for n >= 3, m >= 0: each factor of nu has numerator
    (d+1)(n+m) - 2(m+i) >= (d+1)n + (d-1)m - 2d > 0 as i <= d.

    Each row is rescaled to maximum 1 and held only up to its last entry
    that is a normal double, but never below index keep_m + 1: arithmetic
    on the subnormal tail runs tens of times slower, and row n+1 stores
    m <= keep_m, which reads e_{n,m+1}.  The cut entries are below tiny and
    could reach the stored ones only over later rows.  The tests hold the
    stored entries bit-identical to a full-width run that calls mu and nu
    in runs where keep_m + 1 stays below the last normal entry of each row.
    Where it does not, the stored tail entries move, by up to 7e-5 in ln e
    at d = 2, n_max = 800, keep_m = 700, and only their bytes are pinned.

    The loop does the IEEE operations of that run on the same values, on
    half the entries:
    - Row n holds only m = p + 2j, p = n % 2.  An entry with n - m odd is
      an exact +0.0, it adds coeff * 0 = +0.0 to its neighbours in the next
      row, and x + 0.0 = x, so dropping it changes no bit nor the row
      maximum.  Entry j reads entry j + p of row n-1 for the mu term and
      entry j + p - 1 for the nu term.
    - D = (d-1)m + (d+1)(n-2) and (d+1)(n+m) are exact integers in a
      double.  Tables of 1 + 2(d-1)/D over D and of (d+1)s over s hand
      each row, as strided views, the same integers through the same
      division; each is a window rebuilt once a row reads past its end.
      The nu numerators 2(m+i) are read from one table of 2y, y = m + i.
    - The backward scan from the end of the row stops at the last entry
      >= tiny, the index np.flatnonzero(row >= tiny)[-1] finds, or at the
      keep_m + 1 floor, below which nothing is cut anyway.
    The stored heads of all rows go through one log.
    """
    d = _check_d(d)
    n_max = _check_int("n_max", n_max, 3)
    keep_m = _check_int("keep_m", keep_m, 0)
    keep = min(keep_m, n_max)
    # the first keep + 1 entries of each rescaled row, and the log of its scale
    heads = np.zeros((n_max + 1, keep + 1))
    log_scale = np.zeros(n_max + 1)
    heads[2, 0] = 1.0
    tiny = np.finfo(float).tiny
    step = 2 * (d - 1)  # D between neighbouring entries of a row
    mu_lo = mu_end = den_lo = den_end = cap = 0
    # e_{2,0} = 1; the Theta-constant absorbs the true scale
    prev, width = np.ones(1), 1
    for n in range(3, n_max + 1):
        p = n % 2
        n_mu = width - p  # entries j with a mu term, j + p < width
        if width >= cap:  # row n has n_mu + 1 <= width + 1 entries
            cap = 2 * width + 64
            prev = np.concatenate((prev[:width], np.empty(cap - width)))
            new, nu_c, nu_t = np.empty(cap), np.empty(cap), np.empty(cap)
            two_y = 2.0 * np.arange(2 * cap + d, dtype=float)
        # mu(d, n, p + 2j) e_{n-1,p+2j+1}, D from lo in steps of 2(d-1)
        lo = (d + 1) * (n - 2) + (d - 1) * p
        hi = lo + step * n_mu
        if hi > mu_end:
            mu_lo, mu_end = lo, 2 * hi - lo + 1024
            mu_tab = 1.0 + 2.0 * (d - 1) / np.arange(mu_lo, mu_end, dtype=float)
        np.multiply(
            mu_tab[lo - mu_lo : hi - mu_lo : step], prev[p:width], out=new[:n_mu]
        )
        new[n_mu] = 0.0
        # nu(d, n, m) e_{n-1,m-1} at m = 2 - p + 2k, k < width, s = n + m
        lo = n + 2 - p
        hi = lo + 2 * width
        if hi > den_end:
            den_lo, den_end = lo, 2 * hi - lo + 1024
            den_tab = (d + 1) * np.arange(den_lo, den_end, dtype=float)
        den = den_tab[lo - den_lo : hi - den_lo : 2]
        coeff, factor = nu_c[:width], nu_t[:width]
        y = 4 - p  # y = m + i at k = 0, for i = 2
        np.divide(two_y[y : y + 2 * width : 2], den, out=coeff)
        np.subtract(1.0, coeff, out=coeff)
        for i in range(3, d + 1):
            y = 2 - p + i
            np.divide(two_y[y : y + 2 * width : 2], den, out=factor)
            np.subtract(1.0, factor, out=factor)
            coeff *= factor
        coeff *= prev[:width]
        row = new[: n_mu + 1]
        row[1 - p :] += coeff
        top = np.maximum.reduce(row)
        row /= top
        log_scale[n] = log_scale[n - 1] + math.log(top)
        last, floor = n_mu, (keep + 1 - p) // 2  # floor: m <= keep + 1
        while last > floor and row[last] < tiny:
            last -= 1
        width = last + 1
        stored = min(width, (keep - p) // 2 + 1)  # entries with m <= keep
        heads[n, p : p + 2 * stored : 2] = row[:stored]
        prev, new = new, prev
    with np.errstate(divide="ignore"):
        log_rows = np.log(heads, out=heads)
    log_rows += log_scale[:, None]
    return ESequence(d=d, n_max=n_max, keep_m=keep, log_rows=log_rows)


# ---------------------------------------------------------------------------
# Closed asymptotic expressions (logs, constants included where known).
# ---------------------------------------------------------------------------

def theta_tc_max(d: int, n: int) -> float:
    """ln of (n!)^d gamma^n e^(3 a1 beta n^(1/3)) n^alpha (constant omitted)."""
    d, n = _check_params(d, n)
    return _log_theta(params(d), n, _a1())


def _log_theta(p: AsymptoticParams, n: int, a1: float) -> float:
    return (
        p.d * math.lgamma(n + 1)
        + n * math.log(p.gamma)
        + 3.0 * a1 * p.beta * n ** (1.0 / 3.0)
        + p.alpha * math.log(n)
    )


def fixed_k_asymptotic(d: int, n: int, k: int) -> float:
    """ln of the fixed-k first-order term for general tree-child counts."""
    d, n, k = _check_params(d, n, k)
    return (
        ((4 - d) * k - 1) * _LOG2
        - k * math.lgamma(d + 1)
        - math.lgamma(k + 1)
        - 0.5 * math.log(math.pi)
        + math.lgamma(n + 1)
        + n * _LOG2
        + ((4 - d) * k - 1.5) * math.log(n)
    )


def otc_total_asymptotic(d: int, n: int) -> float:
    """ln of the first-order asymptotics of the one-component total."""
    d, n = _check_params(d, n)
    if d == 2:
        return (
            -math.log(4.0 * math.pi) - 0.5
            + 2.0 * math.lgamma(n + 1)
            + n * _LOG2
            + 2.0 * math.sqrt(n)
            - 2.25 * math.log(n)
        )
    if d == 3:
        const = _i1_2() * math.sqrt(3.0) / (9.0 * math.pi)
        return (
            math.log(const)
            + 3.0 * math.lgamma(n + 1)
            + n * math.log(4.5)
            - 3.0 * math.log(n)
        )
    const = (
        math.factorial(d)
        / (d ** (d - 0.5) * (2.0 * math.pi) ** ((d - 1) / 2.0))
    )
    return (
        math.log(const)
        + d * math.lgamma(n + 1)
        + n * (d * math.log(d) - math.lgamma(d + 1))
        - 1.5 * (d - 1) * math.log(n)
    )


# ---------------------------------------------------------------------------
# Stretched-exponential fitting.
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    c0: float
    c1: float
    c2: float
    target_c1: float

    @property
    def rel_err(self) -> float:
        return abs(self.c1 - self.target_c1) / abs(self.target_c1)

    def to_dict(self) -> dict:
        return {**asdict(self), "rel_err": self.rel_err}


def stretched_fit(
    ns: np.ndarray, log_values: np.ndarray, target_c1: float
) -> FitResult:
    """Least squares for ln v(n) = c0 + c1 n^(1/3) + c2 ln n.

    Fitted over the upper half of the window only, where the lower-order
    terms the model omits have died down.
    """
    ns = np.asarray(ns, dtype=float)
    log_values = np.asarray(log_values, dtype=float)
    keep = np.isfinite(log_values)
    ns, log_values = ns[keep], log_values[keep]
    if len(ns) < 50:
        raise ValueError(f"need at least 50 points, got {len(ns)}")
    cut = ns >= np.median(ns)
    ns, log_values = ns[cut], log_values[cut]
    design = np.column_stack(
        [np.ones_like(ns), ns ** (1.0 / 3.0), np.log(ns)]
    )
    sol, _, rank, _ = np.linalg.lstsq(design, log_values, rcond=None)
    if rank < 3:
        raise ValueError("singular system in stretched_fit")
    return FitResult(c0=float(sol[0]), c1=float(sol[1]), c2=float(sol[2]),
                     target_c1=target_c1)


def fit_e_diagonal(d: int, j_max: int) -> FitResult:
    """Fit the growth of e_{2j,0} 4^(-j); target coefficient 3 a1 beta."""
    p = params(d)  # checks d before e_sequence sees the doubled row count
    j_max = _check_int("j_max", j_max, 50)  # diagonal points to fit
    seq = e_sequence(d, 2 * j_max, keep_m=4)
    js, diag = seq.diagonal()
    series = diag - js * math.log(4.0)
    return stretched_fit(js, series, target_c1=3.0 * p.a1 * p.beta)


# ---------------------------------------------------------------------------
# Theta-residuals against the exact maximal-reticulation counts.
# ---------------------------------------------------------------------------

def theta_residual_window(
    d: int,
    lo: int,
    hi: int,
    a1: float | None = None,
    log_c: np.ndarray | None = None,
) -> dict:
    """Residual ln TC_{n,n-1} - theta over n in [lo, hi].

    Returns the residual array with its oscillation (max - min) and the
    dyadic differences |res(2n) - res(n)| for n = lo, 2lo, ... while 2n
    stays inside the window.
    """
    d = _check_d(d)
    lo = _check_int("lo", lo)
    hi = _check_int("hi", hi)
    if not 2 <= lo < hi:
        raise ValueError(f"need 2 <= lo < hi, got lo={lo}, hi={hi}")
    p = params(d)
    if a1 is None:
        a1 = p.a1
    if log_c is None:
        log_c = c_log_sequence(d, hi - 1)
    elif len(log_c) < hi:
        raise ValueError(
            f"log_c has length {len(log_c)}, need at least {hi} for hi={hi}"
        )
    res = np.array([tc_max_count_log(d, n, log_c) - _log_theta(p, n, a1)
                    for n in range(lo, hi + 1)])
    dyadic = []
    n = lo
    while 2 * n <= hi:
        dyadic.append(abs(res[2 * n - lo] - res[n - lo]))
        n *= 2
    return {
        "d": d,
        "lo": lo,
        "hi": hi,
        "residuals": res,
        "oscillation": float(res.max() - res.min()),
        "dyadic_differences": dyadic,
    }


# ---------------------------------------------------------------------------
# Sub- and super-solution sweeps.
# ---------------------------------------------------------------------------

@dataclass
class PropReport:
    d: int
    check: str
    q_coeff: int
    eps: float
    eta: float | None
    violations: list[tuple[int, int, float, float]]
    n_values: list[int]
    samples: int

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def n_threshold(self) -> int | None:
        """Smallest sampled n with no violations at or above it."""
        bad = {n for n, _, _, _ in self.violations}
        threshold = None
        for n in sorted(self.n_values, reverse=True):
            if n in bad:
                break
            threshold = n
        return threshold

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "check": self.check,
            "q_coeff": self.q_coeff,
            "eps": self.eps,
            "eta": self.eta,
            "samples": self.samples,
            "violations": [
                {"n": n, "m": m, "lhs": lhs, "rhs": rhs}
                for n, m, lhs, rhs in self.violations
            ],
            "n_threshold": self.n_threshold,
        }


def default_q_coeff(d: int) -> int:
    """Literal reading of the printed prefactor coefficient: 3d^2 + 1."""
    d = _check_d(d)
    return 3 * d * d + 1


def candidate_q_coeff(d: int) -> int:
    """Plausible intended form 3d^2 + d - 1 (same value 13 at d = 2)."""
    d = _check_d(d)
    return 3 * d * d + d - 1


def resolved_q_coeff(d: int) -> int:
    """The coefficient that makes the 1/n terms of both inequalities cancel.

    Expanding both sides at m = 0 to order 1/n, the inequalities can only
    hold for large n in both directions if the 1/n contributions agree
    exactly, leaving the +-n^(-7/6) terms as the margin; solving the
    balance gives 3d^2 + 12d - 11 (confirmed in 50-digit arithmetic: the
    other candidates are violated at m = 0 for every n, with deficit
    ~ (q - (3d^2+12d-11))/(6(d+1)) * 2/n).
    """
    d = _check_d(d)
    return 3 * d * d + 12 * d - 11


def default_prop_n_values() -> list[int]:
    return list(range(200, 1001, 50)) + list(range(1250, 5001, 250))


# most entries per _airy_ai_log call of _airy_rows: a whole default table
# in one array costs ~2 MB more peak memory than groups of this size
_AIRY_GROUP = 4096


@functools.lru_cache(maxsize=2)
def _airy_rows(
    d: int, n_values: tuple[int, ...], m_exponent: float
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per n, ln Ai at row n for m = 0..m_cap-1 and at row n-1 for
    m = -1..m_cap, where m_cap = int(n^m_exponent), as read-only arrays.

    Consecutive rows are evaluated together, one _airy_ai_log call per group
    of at most _AIRY_GROUP entries (a longer row alone), and split back.
    The rows depend on (d, n, m) only, not on the prefactor coefficient, so
    a sweep over several coefficients at one d evaluates them once; two
    entries hold the sub- and the super-solution tables of the latest d.
    """
    p = params(d)
    flat: list[np.ndarray] = []  # here and prev of each n in turn
    group: list[np.ndarray] = []
    size = 0
    for n in n_values:
        m_cap = int(n**m_exponent)
        for arg in (_airy_arg(p, n, np.arange(m_cap)),
                    _airy_arg(p, n - 1, np.arange(-1, m_cap + 1))):
            if group and size + len(arg) > _AIRY_GROUP:
                flat += _airy_ai_log_split(group)
                group, size = [], 0
            group.append(arg)
            size += len(arg)
    if group:
        flat += _airy_ai_log_split(group)
    return tuple(zip(flat[::2], flat[1::2]))


def _airy_ai_log_split(parts: list[np.ndarray]) -> list[np.ndarray]:
    """_airy_ai_log of each array of parts, from one call on all of them,
    as read-only views."""
    values = _airy_ai_log(np.concatenate(parts))
    values.flags.writeable = False
    return np.split(values, np.cumsum([len(a) for a in parts[:-1]]))


def _prop_sweep(
    d: int,
    n_values: list[int],
    eps: float,
    q_coeff: int,
    eta: float | None,
    m_exponent: float,
    super_side: bool,
) -> PropReport:
    """Sweep one inequality, each row n as arrays over m = 0..m_cap-1.

    Per sample, with the three logs shifted by their maximum top:
    lhs = X(n, m) s_n e^(la0 - top) and rhs = mu X(n-1, m+1) e^(la_up - top)
    + nu X(n-1, m-1) e^(la_dn - top); the last term is dropped where
    la_dn = -inf (the float series puts Ai at or below zero there), and a
    sample is skipped where top = -inf.  The arrays take the operations of
    one sample in the same order, m is held as integer-valued floats,
    which are exact, and exp comes from math, so every lhs and rhs is the
    IEEE value of the scalar evaluation.
    """
    p = params(d)
    quad = (2 * d - 1) / (3.0 * (d + 1))
    lin = q_coeff / (6.0 * (d + 1))

    def prefactor(n: int, m: np.ndarray) -> np.ndarray:
        out = 1.0 - quad * m * m / n - lin * m / n
        if eta is not None:
            m2 = m * m
            out += eta * (m2 * m2) / n**2  # m^4 rounded once, as from an int
        return out

    violations: list[tuple[int, int, float, float]] = []
    samples = 0
    rows = _airy_rows(d, tuple(n_values), m_exponent)
    for n, (la0, prev) in zip(n_values, rows):
        s_n = _s_factor(p, n, 1.0 if super_side else -1.0)
        samples += len(la0)
        m = np.arange(len(la0), dtype=float)
        # row n-1 at m-1 and m+1 are entries m and m+2 of prev
        la_up, la_dn = prev[2:], prev[:-2]
        top = np.maximum(np.maximum(la0, la_up), la_dn)
        with np.errstate(invalid="ignore"):  # -inf - -inf where top = -inf
            lhs = prefactor(n, m) * s_n * _each(math.exp, la0 - top)
            rhs = mu(d, n, m) * prefactor(n - 1, m + 1) * _each(math.exp, la_up - top)
            dn = nu(d, n, m) * prefactor(n - 1, m - 1) * _each(math.exp, la_dn - top)
        rhs = np.where(la_dn > -math.inf, rhs + dn, rhs)
        slack = 1e-12 * np.maximum(np.maximum(abs(lhs), abs(rhs)), 1.0)
        bad = lhs < rhs - slack if super_side else lhs > rhs + slack
        bad &= top > -math.inf
        for i in np.flatnonzero(bad).tolist():
            violations.append((n, i, float(lhs[i]), float(rhs[i])))
    return PropReport(
        d=d,
        check="supersolution" if super_side else "subsolution",
        q_coeff=q_coeff,
        eps=eps,
        eta=eta,
        violations=violations,
        n_values=list(n_values),
        samples=samples,
    )


def _sweep_n_values(n_values: list[int] | None) -> list[int]:
    """The sampled rows as Python ints, the default list when None.

    Each n must be at least 3: mu has its pole at n = 2, m = 0, and row
    n - 1 = 0 has no Airy argument.  Python ints also keep n^(1/3) and the
    memo key of _airy_rows the same for equal n of any integer type.
    """
    if n_values is None:
        return default_prop_n_values()
    checked = []
    for n in n_values:
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"n_values entries must be integers, got {n!r}") from None
        if n < 3:
            raise ValueError(f"n_values entries must be >= 3, got {n}")
        checked.append(n)
    if not checked:
        raise ValueError("n_values must not be empty")
    return checked


def check_subsolution(
    d: int, n_values: list[int] | None = None, eps: float = 0.1, *, q_coeff: int
) -> PropReport:
    """Sweep the sub-solution inequality over sampled n and 0 <= m < n^(2/3-eps)."""
    d = _check_d(d)
    q_coeff = _check_int("q_coeff", q_coeff)
    if not 0.0 < eps < 2.0 / 3.0:
        raise ValueError(
            f"eps must be in (0, 2/3) for the sub-solution sweep, got {eps}"
        )
    n_values = _sweep_n_values(n_values)
    return _prop_sweep(
        d, n_values, eps, q_coeff, eta=None,
        m_exponent=2.0 / 3.0 - eps, super_side=False,
    )


def check_supersolution(
    d: int, n_values: list[int] | None = None, eps: float = 0.1, *, q_coeff: int
) -> PropReport:
    """Sweep the super-solution inequality over sampled n and 0 <= m < n^(1-eps)."""
    d = _check_d(d)
    q_coeff = _check_int("q_coeff", q_coeff)
    if not 0.0 < eps < 1.0:
        raise ValueError(
            f"eps must be in (0, 1) for the super-solution sweep, got {eps}"
        )
    n_values = _sweep_n_values(n_values)
    return _prop_sweep(
        d, n_values, eps, q_coeff,
        eta=(2 * d - 1) ** 2 / (18.0 * (d + 1) ** 2) + 0.01,
        m_exponent=1.0 - eps, super_side=True,
    )


# ---------------------------------------------------------------------------
# The explicit lower-bound product.
# ---------------------------------------------------------------------------

def s_tilde(d: int, i: int) -> float:
    i = _check_int("i", i, 1)
    return _s_factor(params(d), i, -1.0)


def lower_bound_product(d: int, n: int) -> float:
    """ln of the product of s-tilde factors from the first positive one up
    to index 2n.

    The first couple of factors are negative (the bound only claims
    large-n behavior).  Every later factor is positive: s-tilde(i) =
    2 + a1 B^(2/3) i^(-2/3) - (3d^2-5d+4)/(3(d+1)i) - i^(-7/6) strictly
    increases in i, as a1 < 0, B > 0 and 3d^2-5d+4 > 0 make each term
    after the 2 a negative constant times a negative power of i.
    """
    n = _check_int("n", n, 2)
    p = params(d)
    total = 0.0
    for i in range(1, 2 * n + 1):
        f = _s_factor(p, i, -1.0)
        if f > 0.0:
            total += math.log(f)
    return total


# ---------------------------------------------------------------------------
# Airy-shape profile of an e-row.
# ---------------------------------------------------------------------------

def airy_profile_deviation(seq: ESequence, n: int) -> float:
    """Max relative deviation between a normalized e-row and the Airy shape.

    Compares e_{n,m}/e_{n,m0} with Ai(a1 + B^(1/3)(m+1)/n^(1/3)) normalized
    the same way, over the first 12 admissible m.
    """
    n = _check_int("n", n, 2)
    p = params(seq.d)
    parity = n % 2
    ms = [m for m in range(seq.keep_m + 1) if m % 2 == parity][:12]
    if len(ms) < 12:
        raise ValueError("row does not hold 12 admissible entries")
    base = seq.log_e(n, ms[0])
    log_ai = _airy_ai_log(_airy_arg(p, n, np.array(ms))).tolist()
    worst = 0.0
    for m, la in zip(ms, log_ai):
        ratio_e = math.exp(seq.log_e(n, m) - base)
        ratio_ai = math.exp(la - log_ai[0])
        worst = max(worst, abs(ratio_e - ratio_ai) / ratio_ai)
    return worst
