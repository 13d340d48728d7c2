"""The word encoding of maximally reticulated networks.

Words over letters 1..n, each appearing d+1 times, with a prefix dominance
rule: once a letter has occurred more than d-2 times it must stay at least
as frequent as every larger letter.  Their count times n! gives the number
of tree-child networks with one more leaf and the maximal number of
reticulations.
"""

from collections import Counter

from treechild import distributions as dist
from treechild import exact, words

d, n = 2, 2
print(f"All members of the word class for d={d}, n={n}:")
for w in words.enumerate_words(d, n):
    print(f"  {words.word_to_str(w, n)}  (suffix index m = {words.suffix_index(w, d)})")

print()
print("A failing word and its witness:")
bad = (2, 2, 1, 1, 1, 2)
pos, i, j = words.first_violation(bad, d)
print(f"  {words.word_to_str(bad, n)}: after {pos} letters, occ({i}) < occ({j})")

print()
print("Grouping by suffix index reproduces the b-table:")
for dd, nn in [(2, 3), (3, 2)]:
    table = words.b_table_int(dd, nn)
    counts = Counter(words.suffix_index(w, dd) for w in words.enumerate_words(dd, nn))
    print(f"  d={dd}, n={nn}: enumerated {dict(sorted(counts.items()))} "
          f"vs table {[table.b(nn, m) for m in range(1, nn + 1)]}")

print()
print("Both recurrences fill the same table (rational path lands on integers):")
for dd in (2, 3, 4):
    same = words.b_table_int(dd, 20).rows == words.b_table_rational(dd, 20).rows
    print(f"  d={dd}, n<=20: {same}")

print()
print("Bridge to networks: n! * c_(n-1) matches the fixture tables at k = n-1:")
for dd in exact.fixture_d_values():
    table = exact.appendix_table(dd)
    for nn in table.n_values:
        assert words.tc_max_count(dd, nn) == table[(nn, nn - 1)]
    print(f"  d={dd}: verified on rows n = {table.n_values}")

print()
print("Exploratory (d=2): words with only the first k letters tripled,")
print("compared against the conjectured identity TC(n,k) = n!/(n-k)! * c(n-1,k):")
report = dist.conjecture_words_report(exact.appendix_table(2), 4)
for row in report["comparison"]:
    print(f"  k={row['k']}: word count {row['word_count']:4d} -> predicted "
          f"{row['predicted_tc']:5d}, fixture {row['fixture_tc']}")
