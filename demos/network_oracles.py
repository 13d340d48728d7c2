"""Brute-force network enumeration as ground truth.

Every tree-child network is generated exactly once from its tree
components: the leaf labels split into blocks, a tree on each block, and
the reticulations inserted in order of name, each with d parent stubs in
the components that its own component cannot reach.  One-component networks
are the restriction where each reticulation sits over a single leaf and all
stubs lie in the root component.  Both classes are oracles for the counting
formulas and the reference tables.
"""

from treechild import exact, networks as nw

print("One-component oracle vs the closed formula:")
for d, n, k in [(2, 4, 2), (3, 3, 2), (3, 4, 3), (4, 3, 2)]:
    got = nw.count_otc_networks(d, n, k)
    print(f"  d={d}, n={n}, k={k}: enumerated {got}, formula {exact.otc_count(d, n, k)}")

print()
print("General tree-child oracle vs the reference tables:")
for d, n, k in [(2, 3, 2), (2, 4, 2), (3, 3, 2), (5, 2, 1)]:
    got = nw.count_tc_networks(d, n, k)
    print(f"  d={d}, n={n}, k={k}: enumerated {got}, "
          f"fixture {exact.appendix_table(d)[(n, k)]}")

print()
print("Structure of an enumerated network (d=3, n=3, k=2):")
net = nw.enumerate_otc(3, 3, 2)[0]
print(nw.to_dot(net).decode())

print("Every enumerated network passes the validators and the edge counts:")
for net in nw.enumerate_tc(2, 4, 2)[:200]:
    assert nw.validate(net).ok
    assert nw.is_tree_child(net)
    assert len(nw.free_edges(net)) == 2 * (net.n - net.k - 1)
print("  free edge count 2(n-k-1) confirmed on 200 networks")

print()
print("The free-edge insertion is injective (distinct results per free edge):")
tree = nw.enumerate_otc(2, 3, 0)[0]
keys = {nw.canonical_key(nw.ret_insertion(tree, fe)) for fe in nw.free_edges(tree)}
print(f"  {len(nw.free_edges(tree))} free edges -> {len(keys)} distinct networks")

print()
print("Filtering the general enumeration with the node-level one-component")
print("check recovers the closed formula:")
for d, n, k in [(2, 4, 2), (3, 3, 2)]:
    nets = nw.enumerate_tc(d, n, k)
    one_comp = sum(1 for x in nets if nw.is_one_component(x))
    print(f"  d={d}, n={n}, k={k}: {one_comp} one-component of {len(nets)} total, "
          f"formula {exact.otc_count(d, n, k)}")
