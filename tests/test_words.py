import hashlib
import math
import random
from collections import Counter
from itertools import accumulate, islice, permutations

import numpy as np
import pytest

from treechild import exact, words


def multiset_permutations(counts, length):
    """All distinct arrangements of the letter multiset, lexicographically."""
    if length == 0:
        yield ()
        return
    for x in sorted(counts):
        if counts[x] == 0:
            continue
        counts[x] -= 1
        for rest in multiset_permutations(counts, length - 1):
            yield (x,) + rest
        counts[x] += 1


def brute_force_members(d, n):
    """Independent oracle: filter all distinct multiset permutations."""
    counts = {i: d + 1 for i in range(1, n + 1)}
    return [
        w
        for w in multiset_permutations(counts, n * (d + 1))
        if words.is_member(w, d)
    ]


def test_membership_examples():
    assert words.is_member((1, 1, 2, 2, 1, 2), 2)
    assert not words.is_member((2, 2, 1, 1, 1, 2), 2)
    assert words.is_member(tuple([1] * 4), 3)  # single letter, d+1 copies


def test_membership_witness():
    pos, i, j = words.first_violation((2, 2, 1, 1, 1, 2), 2)
    assert (pos, i, j) == (3, 1, 2)
    # witness is checkable: after 3 letters, occ(1)=1 > d-2 but occ(2)=2
    prefix = (2, 2, 1)
    assert prefix[:pos].count(i) >= 2 - 1
    assert prefix[:pos].count(i) < prefix[:pos].count(j)


def test_malformed_words_rejected_distinctly():
    with pytest.raises(words.MalformedWordError, match="^word length 5 is not "):
        words.is_member((1, 1, 1, 2, 2), 2)  # bad length
    with pytest.raises(words.MalformedWordError, match=r"^letters \[1, 2\] do not "):
        words.is_member((1, 1, 1, 1, 1, 1), 2)  # letter 2 missing
    with pytest.raises(words.MalformedWordError, match="^letter 3 outside 1..2$"):
        words.is_member((1, 1, 1, 3, 3, 3), 2)  # letter out of range


@pytest.mark.parametrize("w", [(), (1, 1, 2, 2)])
def test_first_violation_rejects_word_length(w):
    msg = f"^word length {len(w)} is not a positive multiple of d\\+1=3$"
    with pytest.raises(words.MalformedWordError, match=msg):
        words.first_violation(w, 2)


def test_enumerate_words_d2_n2_exact_list():
    got = [words.word_to_str(w, 2) for w in words.enumerate_words(2, 2)]
    assert got == [
        "111222", "112122", "112212", "121122", "121212", "211122", "211212",
    ]


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 1), (3, 2), (4, 2), (6, 2)])
def test_enumeration_matches_brute_force(d, n):
    enumerated = list(words.enumerate_words(d, n))
    assert enumerated == brute_force_members(d, n)
    assert len(enumerated) == words.c_count(d, n)


def test_enumeration_is_lexicographic_and_duplicate_free():
    stream = list(words.enumerate_words(2, 3))
    assert stream == sorted(set(stream))


def test_budget_exceeded():
    with pytest.raises(words.BudgetExceeded):
        list(words.enumerate_words(2, 6, budget=50))


def test_suffix_index_examples():
    assert words.suffix_index((1, 1, 1, 2, 2, 2), 2) == 2
    assert words.suffix_index((1, 1, 2, 2, 1, 2), 2) == 1
    assert words.suffix_index(tuple([1] * 4), 3) == 1
    with pytest.raises(ValueError):
        words.suffix_index((2, 2, 1, 1, 1, 2), 2)


def test_suffix_index_checks_the_multiset_once(monkeypatch):
    calls = []
    check = words._check_multiset
    monkeypatch.setattr(
        words, "_check_multiset", lambda w, d: calls.append(w) or check(w, d)
    )
    assert words.suffix_index((1, 1, 2, 2, 1, 2), 2) == 1
    assert len(calls) == 1
    with pytest.raises(ValueError, match="only defined on members"):
        words.suffix_index((2, 2, 1, 1, 1, 2), 2)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "d, n, message",
    [(1, 2, "multiplicity d must be >= 2, got 1"), (2, 0, "n must be >= 1, got 0")],
)
def test_enumerate_words_names_the_bad_parameter(d, n, message):
    with pytest.raises(ValueError, match=message):
        words.enumerate_words(d, n)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_suffix_partition_matches_b_table(d, n):
    table = words.b_table_int(d, n)
    counts = Counter(
        words.suffix_index(w, d) for w in words.enumerate_words(d, n)
    )
    assert sum(counts.values()) == words.c_count(d, n)  # suffix_index is total
    for m in range(1, n + 1):
        assert counts.get(m, 0) == table.b(n, m)


def test_b_table_known_values():
    t2 = words.b_table_int(2, 2)
    assert (t2.b(1, 1), t2.b(2, 1), t2.b(2, 2)) == (1, 3, 4)
    t3 = words.b_table_int(3, 2)
    assert (t3.b(2, 1), t3.b(2, 2)) == (10, 15)
    assert t2.b(3, 5) == 0  # out of triangle


def test_b_table_rational_agrees_with_int():
    for d in (2, 3):
        n_max = 12 if d == 2 else 8
        assert words.b_table_int(d, n_max).rows == words.b_table_rational(d, n_max).rows


def test_c_count_examples():
    assert words.c_count(2, 2) == 7
    assert words.c_count(2, 3) == 106   # = TC(2) at (4,3) / 4!
    assert words.c_count(3, 2) == 25    # = TC(3) at (3,2) / 3!


@pytest.mark.parametrize(
    "d,n,expected",
    [(2, 8, 8485564550400), (4, 4, 1243704), (6, 3, 7524)],
)
def test_tc_max_count_against_fixtures(d, n, expected):
    assert words.tc_max_count(d, n) == expected
    assert exact.appendix_table(d)[(n, n - 1)] == expected


def test_bnn_identity():
    for d in (2, 3, 4, 5, 6):
        for n in range(2, 13):
            assert words.bnn_identity_check(d, n)


def test_prefix_closure_witnesses():
    # every non-member carries a checkable first violation, and the scan
    # up to just before it is clean
    d, n = 2, 2
    letters = (1, 1, 1, 2, 2, 2)
    for w in set(permutations(letters)):
        fv = words.first_violation(w, d)
        if fv is None:
            continue
        pos, i, j = fv
        prefix = w[:pos]
        assert j > i
        assert prefix.count(i) > d - 2
        assert prefix.count(i) < prefix.count(j)
        # one letter earlier there is no violation yet
        for p in range(1, pos):
            sub = w[:p]
            for a in range(1, n + 1):
                if sub.count(a) > d - 2:
                    assert all(
                        sub.count(a) >= sub.count(b) for b in range(a + 1, n + 1)
                    )


def test_cnk_words_count():
    assert words.cnk_words_count(1, 0) == 1
    assert words.cnk_words_count(3, 3) == words.c_count(2, 3)
    # frozen from exhaustive enumeration; feeds the exploratory report
    assert words.cnk_words_count(2, 1) == 7
    assert words.cnk_words_count(3, 0) == 15
    assert words.cnk_words_count(3, 1) == 57
    assert words.cnk_words_count(3, 2) == 106


def test_only_the_first_letters_may_be_tripled():
    # cnk_words_count triples letters 1..k because no other choice of k
    # letters admits a word: for n=3, k=1 only the subset {1} does
    def count(mult):
        return sum(1 for _ in words._walk(2, mult, words.DEFAULT_WORD_BUDGET, "t"))

    assert count([0, 3, 2, 2]) == 57
    assert count([0, 2, 3, 2]) == 0
    assert count([0, 2, 2, 3]) == 0


def test_c_count_matches_b_table():
    for d in range(2, 6):
        for n in range(1, 9):
            assert words.c_count(d, n) == words.b_table_int(d, n).c(n), (d, n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: words.c_count(1, 3),
        lambda: words.tc_max_count(1, 4),
        lambda: words.b_table_int(0, 3),
        lambda: words.b_table_rational(1, 3),
        lambda: words.c_log_sequence(1, 5),
        lambda: words.bnn_identity_check(1, 3),
    ],
)
def test_b_table_entry_points_reject_small_d(call):
    with pytest.raises(ValueError, match="d must be >= 2"):
        call()


@pytest.mark.parametrize("bad", [2.0, True, "2"])
def test_multiplicity_must_be_an_integer(bad):
    for call in (words.c_count, words.tc_max_count, words.c_log_sequence):
        with pytest.raises(ValueError, match="^multiplicity d must be an integer, got "):
            call(bad, 3)
    assert words.c_count(np.int64(2), 3) == words.c_count(2, 3)


def test_c_log_sequence_matches_exact():
    for d in range(2, 7):
        log_c = words.c_log_sequence(d, 60)
        for n in (1, 2, 5, 17, 30, 60):
            assert log_c[n] == math.log(words.c_count(d, n))


def exact_c_log_sequence(d, n_max):
    """Reference: the exact big-integer b-table rows, with c_n read off
    row n+1 as b(n+1, n+1) / C((d+1)(n+1) - 2, d-1)."""
    out = np.full(n_max + 1, np.nan)
    row = [0, 1]
    for n in range(1, n_max + 1):
        k = len(row)
        row = list(accumulate(row))
        row.append(row[-1])
        for m in range(1, k + 1):
            row[m] *= math.comb(d * k + m - 2, d - 1)
        out[n] = math.log(row[-1] // math.comb((d + 1) * (n + 1) - 2, d - 1))
    return out


def test_c_log_sequence_equals_exact_route():
    n_max = 400
    for d in range(2, 7):
        # the guard c_log_sequence derives cuts bits from row 100 on
        *_, shift = next(islice(words._b_rows(d, 128 + n_max // 8), 99, None))
        assert shift > 0, d
        log_c = words.c_log_sequence(d, n_max)
        assert log_c.tobytes() == exact_c_log_sequence(d, n_max).tobytes(), d
        for n in (1, 2, 3, 17, 100, 250):
            assert log_c[n] == math.log(words.c_count(d, n)), (d, n)


def test_c_log_bracket_is_live(monkeypatch):
    # 64 guard bits lose 53-bit agreement well before n = 400 at d = 2
    assert words._c_log_bracket(2, 400, 64) is None
    # a guard longer than every entry cuts nothing: the exact rows, with a
    # width of exactly zero
    _, width, shift = next(islice(words._c_brackets(2, 10**5), 399, None))
    assert shift == 0 and width == 0
    # an uncertified pass is redone with the guard doubled
    bracket, guards = words._c_log_bracket, []

    def fail_first(d, n_max, guard):
        guards.append(guard)
        return None if len(guards) == 1 else bracket(d, n_max, guard)

    monkeypatch.setattr(words, "_c_log_bracket", fail_first)
    log_c = words.c_log_sequence(2, 400)
    assert guards == [178, 356]
    assert log_c.tobytes() == exact_c_log_sequence(2, 400).tobytes()


def test_c_brackets_hold_the_exact_row_sums():
    # c_n lies in [lo_sum, lo_sum + width] * 2**shift: with one guard bit,
    # where the cut rows are all ones and the +1 on their first entry
    # matters, with a guard so short that the bracket soon fails to
    # certify, with the guard c_log_sequence derives for n_max = 300 and
    # with a longer one
    for d in range(2, 7):
        for guard in (1, 64, 128 + 300 // 8, 128 + 300 // 2):
            brackets = words._c_brackets(d, guard)
            for n, (row, *_), (lo_sum, width, shift) in zip(
                range(1, 301), words._b_rows(d), brackets
            ):
                assert lo_sum << shift <= sum(row) <= (lo_sum + width) << shift, (
                    d, guard, n
                )
            assert shift > 0 and width > 0, (d, guard)


def test_c_brackets_hold_past_the_float_range():
    # with 2 guard bits the width, in units of 2**shift, passes 2**900 near
    # n = 970 (e >= 0 from there on) and 2**1024 near n = 1100, where the +1
    # is added as 2**-1022 rather than 2**-e
    brackets = words._c_brackets(2, 2)
    for n, (row, *_), (lo_sum, width, shift) in zip(
        range(1, 1201), words._b_rows(2), brackets
    ):
        assert lo_sum << shift <= sum(row) <= (lo_sum + width) << shift, n
    assert width > 2**1030


def cut_rows(d, guard, n_max):
    """Reference: the full rows [0, b(n,1), ..., b(n,n)] with their shift,
    each cut back to guard bits once its last entry is longer (no cut
    without a guard)."""
    row, shift = [0, 1], 0
    for n in range(1, n_max + 1):
        yield row, shift
        acc = list(accumulate(row))
        acc.append(acc[-1])
        row = [a * math.comb(d * (n + 1) + m - 2, d - 1) for m, a in enumerate(acc)]
        cut = 0 if guard is None else row[-1].bit_length() - guard
        if cut > 0:
            row = [x >> cut for x in row]
            shift += cut


@pytest.mark.parametrize("d", range(2, 7))
def test_b_rows_windows_are_the_cut_rows(d):
    for guard in (64, 128 + 300 // 8):
        for (row, z, total, shift), (full, full_shift) in zip(
            words._b_rows(d, guard), cut_rows(d, guard, 300)
        ):
            # the window starts at the first nonzero entry of the cut row
            assert [0] * z + row == full and row[0] > 0, (guard, z)
            assert (total, shift) == (sum(full), full_shift)
        assert z > 100, guard  # the window is live
    table = words.b_table_int(d, 300)
    for n, (row, z, total, shift), (full, _) in zip(
        range(1, 301), words._b_rows(d), cut_rows(d, None, 300)
    ):
        assert row == full == table.rows[n] and (z, total, shift) == (0, sum(row), 0)


# sha256 of c_log_sequence(d, 1999).tobytes(), as the exact big-integer rows
# give it
C_LOG_1999_SHA256 = {
    2: "1a9902fba2fd20b939d241b393e4ca8e7030550d3f815615ea843ff5187a5994",
    6: "da03daf60e785af096abef41d065ac8e6e7db48592ed217a4e909231596450f4",
}


def test_c_log_sequence_long_runs_certify_on_the_first_guard(monkeypatch):
    bracket, guards = words._c_log_bracket, []

    def count(d, n_max, guard):
        guards.append(guard)
        return bracket(d, n_max, guard)

    monkeypatch.setattr(words, "_c_log_bracket", count)
    pinned = {}
    for d, digest in C_LOG_1999_SHA256.items():
        guards.clear()
        pinned[d] = words.c_log_sequence(d, 1999).tobytes()
        assert hashlib.sha256(pinned[d]).hexdigest() == digest, d
        assert guards == [377], d
    # the width, in units of 2**shift, stays below 2**365 up to n = 3500
    # here; test_c_brackets_hold_past_the_float_range covers wider ones
    guards.clear()
    log_c = words.c_log_sequence(2, 3500)
    assert guards == [565]
    assert log_c[:2000].tobytes() == pinned[2]


def test_round53_matches_cpython():
    rng = random.Random(53)
    xs = [
        rng.getrandbits(bits) | 1 << (bits - 1)
        for bits in rng.choices(range(54, 1101), k=3000)
    ]
    # exact ties below and above 2**1024: an even kept bit stays, an odd
    # one rounds up (all ones carry into the next power of two)
    for kept in ((1 << 52) | 6, (1 << 52) | 7, (1 << 53) - 1):
        for cut in (1, 2, 60, 900, 970, 1000, 1047):
            xs.append(kept << cut | 1 << (cut - 1))
    for x in xs:
        r = words._round53(x)
        if r < 2**1024:
            assert r == int(float(x)), x
        else:
            # true division of ints is correctly rounded too
            cut = x.bit_length() - 1000
            assert r == int(x / (1 << cut)) << cut, x
        assert math.log(r) == math.log(x), x
    assert words._round53(12345) == 12345


def test_tc_max_count_log_rejects_short_log_c():
    log_c = words.c_log_sequence(2, 10)
    assert words.tc_max_count_log(2, 11, log_c) == words.tc_max_count_log(2, 11)
    for n in (12, 100):
        with pytest.raises(ValueError, match=f"need at least {n} "):
            words.tc_max_count_log(2, n, log_c=log_c)


def test_word_to_str_formats():
    assert words.word_to_str((1, 2, 1), 2) == "121"
    assert words.word_to_str((10, 2), 10) == "10,2"
