"""Exact counts of one-component d-combining tree-child networks.

Closed-form counting of one-component networks with n leaves and k
reticulation nodes (each reticulation having d parents), structural node
counts, the upper bound obtained by iterating the free-edge insertion,
and the embedded reference tables for general tree-child counts.

All counts are Python ints (arbitrary precision); log-space companions are
provided for asymptotic work at large n.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field


@dataclass
class CountTable:
    """Grid of counts indexed by (n, k) for a fixed multiplicity d."""

    d: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def __getitem__(self, nk: tuple[int, int]) -> int:
        return self.entries[nk]

    def __contains__(self, nk: tuple[int, int]) -> bool:
        return nk in self.entries

    @property
    def n_values(self) -> list[int]:
        return sorted({n for n, _ in self.entries})

    def row(self, n: int) -> list[int]:
        """Counts for k = 0 .. n-1."""
        n = _check_int("leaf count n", n, 1)
        return [self.entries[(n, k)] for k in range(n)]

    def row_sum(self, n: int) -> int:
        return sum(self.row(n))


def double_factorial_odd(m: int) -> int:
    """m!! for odd m, with the conventions (-1)!! = 0!! = 1.

    Counts phylogenetic trees: there are (2n-3)!! trees on n leaves.
    Even m > 0 is rejected; this function only serves the odd case.
    """
    m = _check_int("m", m, -1)
    if m in (-1, 0):
        return 1
    if m % 2 == 0:
        raise ValueError(f"double_factorial_odd expects odd m, got {m}")
    out = 1
    for j in range(m, 0, -2):
        out *= j
    return out


def _check_int(name: str, value, lo: int | None = None) -> int:
    """value as a Python int, numpy integers converted; a bool, float or
    string, or a value below lo when lo is given, is refused by name."""
    # int is tested first because the closed forms run this in their loops
    # and the ABC isinstance is several times slower
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    return value


def _check_d(d: int) -> int:
    return _check_int("multiplicity d", d, 2)


def _check_params(d: int, n: int, k: int | None = None) -> tuple[int, ...]:
    """(d, n), or (d, n, k) with 0 <= k <= n-1 when k is given, as ints."""
    d = _check_d(d)
    n = _check_int("leaf count n", n, 1)
    if k is None:
        return d, n
    k = _check_int("reticulation count k", k)
    if not 0 <= k <= n - 1:
        raise ValueError(f"k={k} out of range for n={n}")
    return d, n, k


def otc_count(d: int, n: int, k: int) -> int:
    """Number of one-component networks with n leaves and k reticulations.

    C(n,k) * (2n+(d-2)k-2)! / ( (d!)^k * 2^(n-k-1) * (n-k-1)! )
    for 0 <= k <= n-1, and 0 otherwise.  The division is exact; a nonzero
    remainder would indicate a transcription bug and raises.
    """
    d, n = _check_params(d, n)
    k = _check_int("reticulation count k", k)
    if k < 0 or k > n - 1:
        return 0
    num = math.comb(n, k) * math.factorial(2 * n + (d - 2) * k - 2)
    den = math.factorial(d) ** k * 2 ** (n - k - 1) * math.factorial(n - k - 1)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(
            f"inexact division in otc_count(d={d}, n={n}, k={k})"
        )
    return q


def otc_count_log(d: int, n: int, k: int) -> float:
    """ln of otc_count, via log-gamma; requires 0 <= k <= n-1."""
    d, n, k = _check_params(d, n, k)
    lg = math.lgamma
    log_binom = lg(n + 1) - lg(k + 1) - lg(n - k + 1)
    return (
        log_binom
        + lg(2 * n + (d - 2) * k - 1)
        - k * lg(d + 1)
        - (n - k - 1) * math.log(2.0)
        - lg(n - k)
    )


def otc_total(d: int, n: int) -> int:
    """Total number of one-component networks with n leaves (sum over k)."""
    d, n = _check_params(d, n)
    return sum(otc_count(d, n, k) for k in range(n))


def otc_total_log(d: int, n: int) -> float:
    """ln of otc_total, computed stably in log space."""
    d, n = _check_params(d, n)
    logs = [otc_count_log(d, n, k) for k in range(n)]
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def node_counts(d: int, n: int, k: int) -> tuple[int, int]:
    """(tree nodes, total nodes) = (n+(d-1)k-1, 2n+dk) for valid (n, k)."""
    d, n, k = _check_params(d, n, k)
    return n + (d - 1) * k - 1, 2 * n + d * k


def tc_upper_bound(d: int, n: int, k: int, tc_max: int) -> tuple[int, bool]:
    """Upper bound TC_{n,k} <= TC_{n,n-1} / (2^(n-k-1) (n-k-1)!).

    Returns (floor of the bound, flag whether the division is exact).
    The flag matters because the bound is attained with equality at
    k = n-2 for d = 2, and tests need to distinguish that case.
    """
    d, n, k = _check_params(d, n, k)
    den = 2 ** (n - k - 1) * math.factorial(n - k - 1)
    q, r = divmod(tc_max, den)
    return q, r == 0


# Reference tables of TC^(d)_{n,k}, transcribed bit-exact.  Row index is n,
# entries run over k = 0 .. n-1.  Embedded as data on purpose: golden tests
# must not be silently regenerated by the code they check.

_TC_FIXTURES: dict[int, dict[int, tuple[int, ...]]] = {
    2: {
        2: (1, 2),
        3: (3, 21, 42),
        4: (15, 228, 1272, 2544),
        5: (105, 2805, 30300, 154500, 309000),
        6: (945, 39330, 696600, 6494400, 31534200, 63068400),
        7: (10395, 623385, 16418430, 241204950, 2068516800,
            9737380800, 19474761600),
        8: (135135, 11055240, 405755280, 8609378400, 113376463200,
            920900131200, 4242782275200, 8485564550400),
    },
    3: {
        2: (1, 2),
        3: (3, 33, 150),
        4: (15, 492, 7908, 55320),
        5: (105, 7725, 291420, 6179940, 57939000),
        6: (945, 132030, 9603270, 430105320, 11292075000, 132120450000),
        7: (10395, 2471805, 307525050, 24586633890, 1284266876760,
            40079165452200, 560319972030000),
    },
    4: {
        2: (1, 2),
        3: (3, 48, 546),
        4: (15, 942, 45132, 1243704),
        5: (105, 18375, 2394360, 227116260, 11351644920),
        6: (945, 375705, 107314200, 23919407460, 3724353682560,
            291451508298720),
    },
    5: {
        2: (1, 2),
        3: (3, 66, 2016),
        4: (15, 1650, 242496, 28710864),
        5: (105, 39135, 17566470, 7876446840, 2307919133520),
    },
    6: {
        2: (1, 2),
        3: (3, 87, 7524),
        4: (15, 2700, 1246740, 676431360),
        5: (105, 76515, 118491090, 262058953860, 483098464854720),
    },
}


def appendix_table(d: int) -> CountTable:
    """Embedded reference table of tree-child counts for d in {2,...,6}."""
    d = _check_d(d)
    if d not in _TC_FIXTURES:
        raise ValueError(f"no reference table for d={d}")
    entries = {
        (n, k): v
        for n, row in _TC_FIXTURES[d].items()
        for k, v in enumerate(row)
    }
    return CountTable(d=d, entries=entries)


def fixture_d_values() -> list[int]:
    return sorted(_TC_FIXTURES)
