"""Word encoding of maximally reticulated tree-child networks.

A word class over letters 1..n, each letter occurring exactly d+1 times,
subject to a prefix dominance rule: once a letter has appeared more than
d-2 times, it must (in every prefix from then on) have appeared at least
as often as every larger letter.  The number of tree-child networks with
n leaves and the maximal n-1 reticulations equals n! times the number of
such words on n-1 letters.

Words are plain tuples of ints.  The b-table recurrences refine the count
by the shape of the forced suffix and are computed here both as an
integer-only dynamic program and as an exact-rational two-term recurrence
(whose integrality is a correctness oracle for the transcription).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import Iterator

from .exact import _check_d, _check_int


class MalformedWordError(ValueError):
    """Letter multiset does not match the (d, n) contract."""


class BudgetExceeded(RuntimeError):
    """An exhaustive search ran past its configured step budget."""


Word = tuple[int, ...]

DEFAULT_WORD_BUDGET = 50_000_000


def word_to_str(w: Word, n: int) -> str:
    """Digits glued together when n <= 9, comma-separated otherwise."""
    if n <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def _check_multiset(w: Word, d: int) -> tuple[int, int]:
    d = _check_d(d)
    length = len(w)
    if length == 0 or length % (d + 1) != 0:
        raise MalformedWordError(
            f"word length {length} is not a positive multiple of d+1={d + 1}"
        )
    n = length // (d + 1)
    counts = [0] * (n + 1)
    for x in w:
        if not 1 <= x <= n:
            raise MalformedWordError(f"letter {x} outside 1..{n}")
        counts[x] += 1
    bad = [i for i in range(1, n + 1) if counts[i] != d + 1]
    if bad:
        raise MalformedWordError(
            f"letters {bad} do not occur exactly {d + 1} times"
        )
    return d, n


def _violation(occ: list[int], x: int, d: int) -> tuple[int, int] | None:
    """Dominance witness (i, j) created by the count of letter x rising.

    occ[1..n] are the letter counts of a prefix whose last letter is x and
    whose shorter prefixes are all members; only pairs involving x can be
    new violations.  Returns None when the prefix is still a member.
    """
    if occ[x] >= d - 1:
        for j in range(x + 1, len(occ)):
            if occ[j] > occ[x]:
                return x, j
    for i in range(1, x):
        if d - 1 <= occ[i] < occ[x]:
            return i, x
    return None


def first_violation(w: Word, d: int) -> tuple[int, int, int] | None:
    """First prefix failing the dominance rule, as (prefix_len, i, j).

    The witness reads: after prefix_len letters, letter i has occurred
    more than d-2 times yet strictly fewer times than the larger letter j.
    Returns None for members.  Raises MalformedWordError on a bad multiset.
    """
    d, n = _check_multiset(w, d)
    occ = [0] * (n + 1)
    for pos, x in enumerate(w, start=1):
        occ[x] += 1
        hit = _violation(occ, x, d)
        if hit is not None:
            return (pos, *hit)
    return None


def is_member(w: Word, d: int) -> bool:
    """Whether w satisfies the prefix dominance rule for multiplicity d."""
    return first_violation(w, d) is None


def _walk(d: int, mult: list[int], budget: int, name: str) -> Iterator[Word]:
    """Members with letter x occurring mult[x] times, lexicographically.

    Prefix-pruned backtracking under the dominance rule for d: a branch is
    abandoned as soon as its prefix violates the rule, so the search
    touches exactly the valid prefixes.  budget caps the number of letter
    placements tried; name labels the BudgetExceeded message.
    """
    budget = _check_int("budget", budget, 0)
    n = len(mult) - 1
    length = sum(mult)
    occ = [0] * (n + 1)
    prefix: list[int] = []
    steps = 0

    def walk() -> Iterator[Word]:
        nonlocal steps
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for x in range(1, n + 1):
            if occ[x] == mult[x]:
                continue
            steps += 1
            if steps > budget:
                raise BudgetExceeded(f"{name} exceeded {budget} steps")
            occ[x] += 1
            prefix.append(x)
            if _violation(occ, x, d) is None:
                yield from walk()
            prefix.pop()
            occ[x] -= 1

    return walk()


def enumerate_words(
    d: int, n: int, budget: int = DEFAULT_WORD_BUDGET
) -> Iterator[Word]:
    """All members on n letters in lexicographic order.

    budget caps the number of letter placements tried.
    """
    d = _check_d(d)
    n = _check_int("n", n, 1)
    return _walk(d, [0] + [d + 1] * n, budget, f"enumerate_words(d={d}, n={n})")


def suffix_index(w: Word, d: int) -> int:
    """The unique m such that w ends with the pattern n, m, m+1, ..., n-1, n.

    Scanned from m = n downward so that the degenerate empty middle run
    (pattern n, n) resolves to the largest matching m; this convention
    makes the suffix partition reproduce the b-table.
    """
    if first_violation(w, d) is not None:
        raise ValueError("suffix_index is only defined on members")
    n = len(w) // (d + 1)
    for m in range(n, 0, -1):
        pattern = (n,) + tuple(range(m, n)) + (n,)
        if w[-len(pattern):] == pattern:
            return m
    raise AssertionError(f"member without suffix pattern: {w}")


@dataclass
class BTable:
    """Triangular table b(n, m), 1 <= m <= n <= n_max, for fixed d."""

    d: int
    n_max: int
    rows: list[list[int]]  # rows[n][m], row n has length n+1, index 0 unused

    def b(self, n: int, m: int) -> int:
        """b(n, m), 0 outside the triangle."""
        n, m = _check_int("n", n), _check_int("m", m)
        if n < 1 or m < 1 or m > n or n > self.n_max:
            return 0
        return self.rows[n][m]

    def c(self, n: int) -> int:
        """c_n = sum of b(n, m) over m."""
        n = _check_int("n", n)
        if n < 1 or n > self.n_max:
            raise ValueError(f"n={n} outside table range 1..{self.n_max}")
        return sum(self.rows[n][1:])


def _b_rows(
    d: int, guard: int | None = None
) -> Iterator[tuple[list[int], int, int, int]]:
    """Rows of the b-table for n = 1, 2, ..., each from an index z on.

    Integer-only: b(n,m) = C(dn+m-2, d-1) * sum_{j<=m} b(n-1,j), so row n
    is the prefix sums of row n-1 (with b(n-1,n) = 0) times binomials, each
    computed once: rows share the ones they both use.

    Yields (row, z, total, shift) with row[i] = b(n, z+i): total = sum(row)
    is the last of the prefix sums that the next row is built from.
    Without a guard the rows are exact and full, [0, b(n,1), ..., b(n,n)]
    with z = 0, and shift is 0.  With a guard, once a row's last (largest)
    entry is longer than guard bits, the row is cut back to guard bits
    after its products, every entry rounded down, and shift counts the bits
    cut so far: the exact row is at least row * 2**shift (_c_brackets bounds
    the excess).  A guarded row is kept from its first nonzero entry z on
    (z = 1 until the first cut).  Rows are nondecreasing in m (prefix sums
    times increasing binomials, all cut by the same power of two), so
    bisect finds z; the entries below it are 0, the next row's prefix sums
    and products are 0 below z, and only the binomials of m = z..n are
    built.
    """
    row, z, shift = [0, 1], 0, 0  # b(1,1) = 1
    binom, t0 = [], 0  # binom[i] = C(t0 + i, d-1)
    while True:
        if guard is not None:
            i = bisect_right(row, 0)
            row, z = row[i:], z + i
        acc = list(accumulate(row))
        yield row, z, acc[-1], shift
        n = z + len(row)
        binom, t0 = binom[d * n + z - 2 - t0 :], d * n + z - 2
        binom.extend(map(math.comb, range(t0 + len(binom), d * n + n - 1), repeat(d - 1)))
        acc.append(acc[-1])
        row = map(operator.mul, acc, binom)
        cut = 0 if guard is None else (acc[-1] * binom[-1]).bit_length() - guard
        if cut > 0:
            row = map(operator.rshift, row, repeat(cut))
            shift += cut
        row = list(row)


def b_table_int(d: int, n_max: int) -> BTable:
    """Integer-only dynamic program: b(n,m) = C(dn+m-2, d-1) * sum_{j<=m} b(n-1,j)."""
    d = _check_d(d)
    n_max = _check_int("n_max", n_max, 1)
    rows = [[], *(row for row, *_ in islice(_b_rows(d), n_max))]
    return BTable(d=d, n_max=n_max, rows=rows)


def b_table_rational(d: int, n_max: int) -> BTable:
    """Same table via the two-term rational recurrence, exactly.

    b(n,m) = (dn+m-2)/(dn+m-d-1) * b(n,m-1) + C(dn+m-2, d-1) * b(n-1,m).
    Every entry must come out integral; a fractional entry signals a
    transcription bug and raises ArithmeticError.
    """
    d = _check_d(d)
    n_max = _check_int("n_max", n_max, 1)
    rows: list[list[int]] = [[], [0, 1]]
    for n in range(2, n_max + 1):
        prev = rows[n - 1] + [0]
        row = [0] * (n + 1)
        for m in range(1, n + 1):
            # (dn+m-2)/(dn+m-d-1) * b(n,m-1), split into numerator and
            # denominator so that each entry is checked as it is made
            num, den = (d * n + m - 2) * row[m - 1], d * n + m - d - 1
            tail = math.comb(d * n + m - 2, d - 1) * prev[m]
            if num % den:
                raise ArithmeticError(
                    f"non-integral b({n},{m}) = {Fraction(num, den) + tail} for d={d}"
                )
            row[m] = num // den + tail
        rows.append(row)
    return BTable(d=d, n_max=n_max, rows=rows)


def c_count(d: int, n: int) -> int:
    """Number of words on n letters (row sum of the b-table)."""
    d = _check_d(d)
    n = _check_int("n", n, 1)
    *_, total, _ = next(islice(_b_rows(d), n - 1, None))
    return total


def tc_max_count(d: int, n: int) -> int:
    """Tree-child networks with n leaves and the maximal n-1 reticulations."""
    n = _check_int("n", n, 2)
    return math.factorial(n) * c_count(d, n - 1)


def bnn_identity_check(d: int, n: int) -> bool:
    """Check b(n,n) = C((d+1)n - 2, d-1) * c_{n-1}."""
    n = _check_int("n", n, 2)
    table = b_table_int(d, n)
    return table.b(n, n) == math.comb((d + 1) * n - 2, d - 1) * table.c(n - 1)


def _round53(x: int) -> int:
    """x >= 0 rounded to 53 significant bits, ties to even.

    This is the rounding of CPython's int -> float conversion and of
    _PyLong_Frexp, so math.log(x) depends on x only through _round53(x).
    """
    cut = x.bit_length() - 53
    if cut <= 0:
        return x
    q = x >> cut
    rest = x - (q << cut)
    half = 1 << (cut - 1)
    if rest > half or (rest == half and q & 1):
        q += 1
    return q << cut


_TINY = 2.0**-1022  # the smallest normal float64
_HEAD = 900  # w stays below 3 * 2**_HEAD


def _c_brackets(d: int, guard: int) -> Iterator[tuple[int, int, int]]:
    """(lo_sum, width, shift) for n = 1, 2, ... with lo_sum * 2**shift <=
    c_n <= (lo_sum + width) * 2**shift, from the rows of _b_rows(d, guard).

    lo_sum is the sum of the cut row.  Its excess E = exact / 2**shift - row
    over the whole row, m = 1..n, is kept as a float64 vector w and a power
    of two e >= -900 with E <= w * 2**e entrywise; w is 0 until the first
    cut.  The recurrence only adds and multiplies by S[m] = C(dn+m-2, d-1)
    > 0, and a cut floor(X / 2**c) of a product X loses less than 1, and
    nothing when X = 0, so E' <= S * prefix(E) * 2**-c, plus 1 where X > 0.
    X[m] = 0 exactly for m below the window start z of the previous row
    (its prefix sums are 0 there), so only m >= z get the +1.  (Every row
    from the first cut on cuts: its last entry is >= 5 times the previous
    one, which had guard bits.)  With u = 2**-53, a rounding of a normal
    y >= 0 keeps at least y * (1 - u).  Row n takes at most 2n-2 roundings
    in s (S <= s * 2**x: s[1] = (S[1] >> x) + 1 is exact, and S[m+1]/S[m] =
    (dn+m-1)/(dn+m-d) multiplies in the rest), n-2 in the prefix sums of w,
    one each in the product, the add of the +1 (as max(2**-e, 2**-1022))
    and the factor, and n-1 in the sum read off for width; the factor
    1 + (n+4) * 2**-50 > (1 - u)**-(4n+16) (n < 2**40) covers them.  The
    rescale by 2**(e1-e) is exact unless it falls below 2**-1022; such an
    entry is raised to 2**-1022, which is above it, so every entry stays
    normal (there are no zeros: v > 0 from the second cut on, and at the
    first every entry gets the +1).  e keeps max(w) < 3 * 2**900, so no row
    overflows (v < 3n * 2**955), at any d, n.  Keeping max(w) that high
    puts the raised entries 1922 bits below it: they sit at the bottom of
    the row, and the prefix sums carry them up it, about 0.27 bits per
    index at d = 2, so that they overtake the true excess only from about
    n = 6000 on (with max(w) near 1, from n = 3000 on).
    """
    import numpy as np
    w, e, last, width, z = None, 0, 0, 0, 1
    for n, (_, z_next, lo_sum, shift) in enumerate(_b_rows(d, guard), start=1):
        if shift:
            v = np.zeros(n)
            if last:
                np.cumsum(w, out=v[:-1])
                v[-1] = v[-2]
            s1 = math.comb(d * n - 1, d - 1)
            x = max(s1.bit_length() - 53, 0)
            s = np.arange(d * n - 1, d * n + n - 1, dtype=float)
            s[1:] /= s[1:] - (d - 1)
            s[0] = (s1 >> x) + 1
            v *= np.cumprod(s, out=s)
            e1 = e + x - (shift - last)
            e = max(e1 + math.frexp(v[-1])[1] - _HEAD, -_HEAD)
            w = np.maximum(np.ldexp(v, e1 - e), _TINY)
            w[z - 1 :] += math.ldexp(1.0, max(-e, -1022))
            w *= 1 + (n + 4) * 2.0**-50
            num, den = float(w.sum()).as_integer_ratio()
            width = -(-(num << max(e, 0)) // (den << max(-e, 0)))
            last = shift
        z = z_next
        yield lo_sum, width, shift


def _c_log_bracket(d: int, n_max: int, guard: int) -> np.ndarray | None:
    """ln c_n for n = 1..n_max from _c_brackets(d, guard), or None if the
    bracket on some c_n is too wide to fix its 53-bit rounding."""
    import numpy as np
    out = np.full(n_max + 1, np.nan)
    for n, (lo_sum, width, shift) in zip(range(1, n_max + 1), _c_brackets(d, guard)):
        if _round53(lo_sum) != _round53(lo_sum + width):
            return None
        out[n] = math.log(lo_sum << shift)
    return out


def c_log_sequence(d: int, n_max: int) -> np.ndarray:
    """ln c_n for n = 1..n_max, equal to math.log(c_count(d, n)) bit for bit.

    The b-table rows are cut down to about 128 + n_max/8 bits and kept from
    their first nonzero entry on (_b_rows with a guard), and a float64
    bound on what the cuts lost (_c_brackets) puts c_n in
    [lo_sum, lo_sum + width] * 2**shift.  Rounding to 53 bits
    half-even is monotone, so when both ends round to the same 53-bit
    value, c_n rounds to it as well, and math.log, which reads a big int
    only through that rounding, gives the same double for lo_sum << shift
    as for c_n.  If some n is not certified the whole sequence is redone
    with the guard doubled; this ends, because a guard longer than every
    entry cuts nothing and leaves the exact rows with width 0.  At d = 2
    the bracket certifies from a guard of about 220 bits at n_max = 1999
    and 265 at n_max = 3500 (fewer at d = 3..6), so the first guard holds
    there; from about n = 6000 the raised entries of _c_brackets widen the
    bracket faster than 1/8 bit per row, and at d = 2 the guard is doubled
    from about n_max = 7000 on.  Entry [0] of the result is NaN padding.
    """
    d = _check_d(d)
    n_max = _check_int("n_max", n_max, 1)
    guard = 128 + n_max // 8
    while (out := _c_log_bracket(d, n_max, guard)) is None:
        guard *= 2
    return out


def tc_max_count_log(d: int, n: int, log_c: np.ndarray | None = None) -> float:
    """ln tc_max_count(d, n); pass a c_log_sequence to amortize the DP."""
    d = _check_d(d)
    n = _check_int("n", n, 2)
    if log_c is None:
        log_c = c_log_sequence(d, n - 1)
    elif len(log_c) < n:
        raise ValueError(
            f"log_c has length {len(log_c)}, need at least {n} for n={n}"
        )
    return math.lgamma(n + 1) + float(log_c[n - 1])


def cnk_words_count(n: int, k: int, budget: int = DEFAULT_WORD_BUDGET) -> int:
    """Exploratory d=2 word count with letters 1..k tripled, the rest doubled.

    The prefix rule is the d=2 dominance rule; only the multiplicities
    change.  Tripling letters 1..k is the only choice of k letters that
    admits any words at all (a doubled letter smaller than a tripled one
    violates dominance at the full word).  Report-only; nothing asserts on
    this.
    """
    n = _check_int("n", n, 0)
    k = _check_int("k", k)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    mult = [0] + [3] * k + [2] * (n - k)
    return sum(1 for _ in _walk(2, mult, budget, f"cnk_words_count(n={n}, k={k})"))
