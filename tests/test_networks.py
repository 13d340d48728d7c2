import ast
import json
import random
import re
from collections import Counter
from itertools import combinations_with_replacement
from math import comb

import pytest

from treechild import exact, networks as nw


def permuted(net, perm):
    """Relabel node ids by perm (old -> new); an isomorphic network."""
    inv = sorted(range(net.num_nodes), key=lambda old: perm[old])
    roles = [None] * net.num_nodes
    for old, new in enumerate(perm):
        roles[new] = net.roles[old]
    return nw.PhyloNetwork(
        d=net.d,
        roles=tuple(roles),
        edges=tuple(sorted((perm[u], perm[v]) for u, v in net.edges)),
        leaf_labels=tuple(sorted((perm[node], lab) for node, lab in net.leaf_labels)),
    )


def single_leaf(d=2):
    return nw.PhyloNetwork(
        d=d, roles=(nw.ROOT, nw.LEAF), edges=((0, 1),), leaf_labels=((1, 1),)
    )


def non_tree_child_net():
    # both children of tree node 2 (and 3) are reticulations; valid network,
    # not tree-child
    return nw.PhyloNetwork(
        d=2,
        roles=(nw.ROOT, nw.TREE, nw.TREE, nw.TREE, nw.RET, nw.RET, nw.LEAF, nw.LEAF),
        edges=(
            (0, 1), (1, 2), (1, 3),
            (2, 4), (2, 5), (3, 4), (3, 5),
            (4, 6), (5, 7),
        ),
        leaf_labels=((6, 1), (7, 2)),
    )


def test_validate_single_leaf():
    assert nw.validate(single_leaf()).ok


def test_validate_rejects_in1_out1_node():
    net = nw.PhyloNetwork(
        d=2,
        roles=(nw.ROOT, nw.TREE, nw.LEAF),
        edges=((0, 1), (1, 2)),
        leaf_labels=((2, 1),),
    )
    report = nw.validate(net)
    assert not report.ok
    failed = {rule for rule, ok, _ in report.checks if not ok}
    assert "role_degrees" in failed
    witness = [w for rule, ok, w in report.checks if rule == "role_degrees"][0]
    assert witness[0] == 1  # the offending node


def test_validate_reports_unknown_role():
    net = nw.PhyloNetwork(
        d=2, roles=(nw.ROOT, "stub"), edges=((0, 1),), leaf_labels=(),
    )
    report = nw.validate(net)
    assert ("role_degrees", False, (1, "stub")) in report.checks


def test_validate_rejects_parallel_edges_and_cycles():
    net = nw.PhyloNetwork(
        d=2,
        roles=(nw.ROOT, nw.LEAF),
        edges=((0, 1), (0, 1)),
        leaf_labels=((1, 1),),
    )
    assert not nw.validate(net).ok


@pytest.mark.parametrize("bad_edge", [(0, 5), (-1, 1), (1, 1), (0, 1)])
def test_validate_reports_out_of_range_edge(bad_edge):
    # a node id outside 0..N-1, a loop or a repeat fails simple_graph with
    # the edge as witness, and the same network read from JSON is refused by
    # canonicalisation
    net = nw.PhyloNetwork(
        d=2, roles=(nw.ROOT, nw.LEAF), edges=((0, 1), bad_edge), leaf_labels=((1, 1),)
    )
    report = nw.validate(net)
    assert [(rule, w) for rule, ok, w in report.checks if not ok] == [
        ("simple_graph", bad_edge)
    ]
    data = json.dumps({
        "d": 2,
        "nodes": [{"id": 0, "role": nw.ROOT}, {"id": 1, "role": nw.LEAF}],
        "edges": [[0, 1], list(bad_edge)],
        "leaf_labels": {"1": 1},
    })
    with pytest.raises(ValueError, match="simple_graph"):
        nw.canonical_key(nw.from_json(data))
    # the public child lists refuse it too, naming the edge, instead of
    # wrapping -1 to the last node, raising IndexError or listing it
    with pytest.raises(ValueError, match=re.escape(f"edge {bad_edge}")):
        net.children()


def test_non_tree_child_detected():
    net = non_tree_child_net()
    assert nw.validate(net).ok
    assert not nw.is_tree_child(net)
    with pytest.raises(ValueError):
        nw.is_one_component(net)


def test_tree_child_and_one_component_on_enumerated_networks():
    for net in nw.enumerate_tc(3, 3, 1):
        assert nw.is_tree_child(net)
    for net in nw.enumerate_otc(3, 3, 2):
        assert nw.is_one_component(net)
    assert nw.is_tree_child(single_leaf())


def test_free_edges_counts():
    # trees: every tree node is free, 2(n-1) free edges
    for net in nw.enumerate_otc(2, 4, 0):
        assert len(nw.free_edges(net)) == 2 * (4 - 1)
    # maximally reticulated: no free edges
    for net in nw.enumerate_otc(2, 3, 2):
        assert len(nw.free_edges(net)) == 0
    # spec sample: every network with d=2, n=3, k=1 has 2 free edges
    nets = nw.enumerate_tc(2, 3, 1)
    assert len(nets) == 21
    for net in nets:
        assert len(nw.free_edges(net)) == 2


def test_candidate_edges_counts():
    for net in nw.enumerate_otc(2, 4, 0):
        assert len(nw.candidate_edges(net)) == 2 * 4 - 1
    # classification count 2n + (d-2)k - 1 on every small one-component net
    for d in (2, 3):
        for n in range(1, 5):
            for k in range(n):
                for net in nw.enumerate_otc(d, n, k):
                    assert len(nw.candidate_edges(net)) == 2 * n + (d - 2) * k - 1
                    assert len(nw.free_edges(net)) == 2 * (n - k - 1)
                    t, total = exact.node_counts(d, n, k)
                    assert net.num_nodes == total
                    assert sum(r == nw.TREE for r in net.roles) == t


def test_otc_insertion_from_single_leaf():
    base = single_leaf(d=2)
    edge = nw.candidate_edges(base)[0]
    results = set()
    for label in (1, 2):
        child = nw.otc_insertion(base, [edge, edge], label)
        assert nw.is_one_component(child)
        results.add(nw.canonical_key(child))
    assert len(results) == exact.otc_count(2, 2, 1) == 2


def test_otc_insertion_rejects_bad_positions():
    nets = nw.enumerate_otc(2, 3, 1)
    net = nets[0]
    ret_edge = next(
        (u, v) for u, v in net.edges if net.roles[v] == nw.RET
    )
    with pytest.raises(ValueError):
        nw.otc_insertion(net, [ret_edge, ret_edge], 1)


def test_otc_insertion_refuses_other_inputs():
    two_leaf_block = next(
        net for net in nw.enumerate_tc(2, 3, 1) if not nw.is_one_component(net)
    )
    edge = nw.candidate_edges(two_leaf_block)[0]
    with pytest.raises(ValueError, match="^otc_insertion expects a one-component"):
        nw.otc_insertion(two_leaf_block, [edge, edge], 1)
    net = nw.enumerate_otc(2, 3, 1)[0]
    edge = nw.candidate_edges(net)[0]
    for positions in ([edge], [edge] * 3):
        with pytest.raises(ValueError, match=r"^need exactly d=2 positions$"):
            nw.otc_insertion(net, positions, 1)
    for label in (0, 5):
        with pytest.raises(ValueError, match=rf"^label {label} outside 1\.\.4$"):
            nw.otc_insertion(net, [edge, edge], label)


def test_otc_insertion_multiplicity_law():
    # every (n, k) target arises exactly k times across all parents
    for d, n, k in [(2, 3, 2), (3, 3, 2), (2, 4, 2)]:
        seen = Counter()
        for parent in nw.enumerate_otc(d, n - 1, k - 1):
            cand = nw.candidate_edges(parent)
            for combo in combinations_with_replacement(cand, d):
                for label in range(1, n + 1):
                    child = nw.otc_insertion(parent, list(combo), label)
                    seen[nw.canonical_key(child)] += 1
        assert len(seen) == exact.otc_count(d, n, k)
        assert set(seen.values()) == {k}


def test_ret_insertion():
    trees = nw.enumerate_otc(2, 3, 0)
    keys = set()
    for tree in trees:
        fedges = nw.free_edges(tree)
        assert len(fedges) == 4
        for fe in fedges:
            grown = nw.ret_insertion(tree, fe)
            assert nw.validate(grown).ok
            assert nw.is_tree_child(grown)
            assert grown.n == 3 and grown.k == 1
            _, total = exact.node_counts(2, 3, 1)
            assert grown.num_nodes == total
            keys.add(nw.canonical_key(grown))
    # distinct (parent, free edge) pairs give pairwise distinct networks
    assert len(keys) == 4 * len(trees) == 12
    assert len(keys) <= exact.appendix_table(2)[(3, 1)]


def test_ret_insertion_rejects_non_free_edge():
    net = nw.enumerate_otc(2, 3, 1)[0]
    root_edge = (net.root, net.children()[net.root][0])
    with pytest.raises(ValueError):
        nw.ret_insertion(net, root_edge)


def test_insertions_validate_the_network_once(monkeypatch):
    tree = nw.enumerate_otc(2, 3, 0)[0]
    edge = nw.candidate_edges(tree)[0]
    free = nw.free_edges(tree)[0]
    bad = non_tree_child_net()
    calls = []
    validate = nw._validate
    monkeypatch.setattr(nw, "_validate", lambda net: calls.append(net) or validate(net))
    for insert, message in [
        (lambda net: nw.otc_insertion(net, [edge, edge], 1),
         "is_one_component expects a tree-child network"),
        (lambda net: nw.ret_insertion(net, free),
         "ret_insertion expects a tree-child network"),
    ]:
        calls.clear()
        insert(tree)
        assert calls == [tree]
        calls.clear()
        with pytest.raises(ValueError, match=message):
            insert(bad)
        assert calls == [bad]


def test_canonical_key_invariance():
    net = nw.enumerate_otc(2, 3, 1)[0]
    rotated = list(range(1, net.num_nodes)) + [0]
    assert nw.canonical_key(permuted(net, rotated)) == nw.canonical_key(net)
    reversed_ids = list(reversed(range(net.num_nodes)))
    assert nw.canonical_key(permuted(net, reversed_ids)) == nw.canonical_key(net)
    # general (tc|) branch: a reticulation over a cherry, not over a leaf
    general = next(x for x in nw.enumerate_tc(2, 3, 1) if not nw.is_one_component(x))
    assert nw.canonical_key(general).startswith(b"tc|")
    assert nw.canonical_key(permuted(general, rotated)) == nw.canonical_key(general)


@pytest.mark.parametrize(
    "fn", [nw.canonical_key, nw.canonical_form, nw.to_json, nw.to_dot]
)
def test_canonicalization_rejects_non_tree_child(fn):
    with pytest.raises(ValueError, match="tree-child"):
        fn(non_tree_child_net())


def test_canonical_key_separates_leaf_relabelings():
    # 3-leaf trees are asymmetric: swapping two leaf labels changes the network
    net = nw.enumerate_otc(2, 3, 0)[0]
    swapped = dict(net.leaf_labels)
    items = list(swapped.items())
    (n1, l1), (n2, l2) = items[0], items[1]
    swapped[n1], swapped[n2] = l2, l1
    net2 = nw.PhyloNetwork(
        d=net.d, roles=net.roles, edges=net.edges,
        leaf_labels=tuple(sorted(swapped.items())),
    )
    assert nw.canonical_key(net2) != nw.canonical_key(net)


def coords(d, n, k, one_component=False):
    """What the component generator alone yields, as coordinates."""
    return [
        nw._attach(*state)
        for state in nw._tc_search(d, n, k, nw.DEFAULT_NETWORK_BUDGET, one_component)
    ]


def test_otc_generator_builds_each_network_once():
    # the one-component restriction of the generator, with no dedup, must
    # yield the formula's count of pairwise distinct coordinates
    for d in (2, 3, 4, 5):
        for n in range(1, (4 if d <= 3 else 3) + 1):
            for k in range(n):
                got = coords(d, n, k, one_component=True)
                assert len(got) == exact.otc_count(d, n, k), (d, n, k)
                assert len(set(got)) == len(got), (d, n, k)


def tree_leaves(node):
    """Leaf labels of a bare-node tree, in the order the tree lists them."""
    return [node[1]] if node[0] == 0 else tree_leaves(node[1]) + tree_leaves(node[2])


def tree_canon(node):
    """A bare-node tree with every node's two children sorted."""
    if node[0] == 0:
        return node
    return (1, *sorted((tree_canon(node[1]), tree_canon(node[2]))))


def test_tree_generator_gives_each_tree_once():
    # (2b-3)!! phylogenetic trees on b labeled leaves, none of them twice up
    # to the order of children, each on exactly its labels
    for b in range(1, 8):
        labels = list(range(3, 3 + 2 * b, 2))
        trees = list(nw._trees(labels))
        assert len(trees) == exact.double_factorial_odd(2 * b - 3), b
        assert len({tree_canon(t) for t in trees}) == len(trees), b
        for tree in trees:
            assert sorted(tree_leaves(tree)) == labels


def tuple_mu(net):
    """Per node, the tuple of directed path counts to each leaf label, one
    label at a time: the reference for the packed ints of the module."""
    children = net.children()
    n = net.n
    labels = net.labels
    order = []
    state = [0] * net.num_nodes
    stack = [net.root]
    while stack:  # iterative postorder
        u = stack[-1]
        if state[u] == 0:
            state[u] = 1
            stack.extend(children[u])
        else:
            stack.pop()
            if state[u] == 1:
                state[u] = 2
                order.append(u)
    vecs = [[0] * n for _ in range(net.num_nodes)]
    for u in order:
        if net.roles[u] == nw.LEAF:
            vecs[u][labels[u] - 1] = 1
        else:
            for c in children[u]:
                vu, vc = vecs[u], vecs[c]
                for i in range(n):
                    vu[i] += vc[i]
    return [tuple(v) for v in vecs]


def audit_key(net):
    """Sorted multiset of (role, path-count vector): the mu-representation of
    Cardona, Rossello and Valiente, independent of the coordinates and of
    the packed mu."""
    return tuple(sorted(zip(net.roles, tuple_mu(net))))


def test_packed_mu_sorts_nodes_as_tuple_mu():
    # the canonical numbering sorts nodes by role and packed mu; sorting by
    # role and the tuple of path counts must give the same order
    for d, n in [(2, 4), (3, 3)]:
        for k in range(n):
            for net in nw.enumerate_tc(d, n, k):
                packed = nw._path_count_vectors(net, net.children())
                vecs = tuple_mu(net)
                rank = [nw._ROLE_RANK[role] for role in net.roles]
                nodes = range(net.num_nodes)
                assert sorted(nodes, key=lambda i: (rank[i], packed[i])) == sorted(
                    nodes, key=lambda i: (rank[i], vecs[i])
                ), (d, n, k)


TC_GENERATOR_CELLS = [
    (d, n, k) for d in (2, 3) for n in (2, 3, 4) for k in range(n)
] + [(4, 3, 2), (5, 3, 2), (6, 3, 2)]


@pytest.mark.parametrize("d,n,k", TC_GENERATOR_CELLS)
def test_tc_generator_builds_each_network_once(d, n, k):
    # the generator alone, with no dedup, yields the fixture's count of
    # networks that two independent keys tell pairwise apart
    nets = [nw._coord_to_network(c, d) for c in coords(d, n, k)]
    assert len(nets) == exact.appendix_table(d)[(n, k)]
    assert len({nw.canonical_key(net) for net in nets}) == len(nets)
    audits = [audit_key(net) for net in nets]
    assert len(set(audits)) == len(nets)
    # (role, mu) tells every node apart, so sorting by it numbers the nodes
    # canonically: the invariant the canonical key rests on
    for net, audit in zip(nets, audits):
        assert len(set(audit)) == net.num_nodes


# the criterion-3 cells with n <= 4 but d = 4 and 5 at n = 4, which hold
# 158,355 and 3,128,343 coordinates: too many to build twice in every run
OC_COORD_CELLS = [(2, 4), (3, 4), (4, 3), (5, 3)]


@pytest.mark.parametrize("d,n_max", OC_COORD_CELLS)
def test_one_component_coordinate_lists_no_component(d, n_max):
    # the bare leaf that each reticulation's component is, left out of the
    # coordinate, is hung back under the reticulation in name order
    for n in range(1, n_max + 1):
        for k in range(n):
            for root_edge, components in coords(d, n, k, one_component=True):
                assert all(edge == ((), (0, name)) for name, edge in components)
                assert nw._coord_to_network((root_edge, ()), d) == (
                    nw._coord_to_network((root_edge, components), d)
                ), (d, n, k)


def strip(edge, keep):
    """The edge with only the reticulation labels in keep left on it, with
    the children of each node sorted again."""
    stack, node = edge
    if node[0] == 1:
        node = (1, *sorted((strip(node[1], keep), strip(node[2], keep))))
    return (tuple(x for x in stack if x in keep), node)


def partial_networks(coords_list):
    """Distinct partial networks on the way down: each coordinate with only
    its j smallest-named reticulations inserted, j = 1..k."""
    seen = set()
    for root_edge, components in coords_list:
        names = [name for name, _ in components]
        for j in range(1, len(names) + 1):
            keep = set(names[:j])
            seen.add((j, strip(root_edge, keep),
                      *(strip(e, keep) for _, e in components)))
    return len(seen)


def check_budget(counter, enumerator, d, n, k, insertions, want):
    # every partial network is built by exactly one insertion, so that many
    # insertions fit and one fewer does not
    assert counter(d, n, k, budget=insertions) == want
    for fn in (counter, enumerator):
        with pytest.raises(nw.BudgetExceeded):
            fn(d, n, k, budget=insertions - 1)
        with pytest.raises(nw.BudgetExceeded):
            fn(d, n, k, budget=10)


def test_otc_budget_counts_insertions():
    d, n, k = 3, 4, 3
    insertions = partial_networks(coords(d, n, k, one_component=True))
    # with the k reticulation leaves fixed, level j holds 1 / C(m, j) of the
    # one-component networks on m = n-k+j leaves with j reticulations
    assert insertions == comb(n, k) * sum(
        exact.otc_count(d, n - k + j, j) // comb(n - k + j, j)
        for j in range(1, k + 1)
    )
    check_budget(nw.count_otc_networks, nw.enumerate_otc, d, n, k,
                 insertions, exact.otc_count(d, n, k))


def test_tc_budget_counts_insertions():
    d, n, k = 3, 4, 3
    insertions = partial_networks(coords(d, n, k))
    check_budget(nw.count_tc_networks, nw.enumerate_tc, d, n, k,
                 insertions, exact.appendix_table(d)[(n, k)])


# k = 1, where the first level is also the last, and d = 2; every cell
# takes more than the 11 insertions that check_budget's budget of 10 needs
SMALL_BUDGET_CELLS = [(2, 3, 1), (3, 3, 1), (2, 3, 2), (2, 4, 3)]


@pytest.mark.parametrize("d,n,k", SMALL_BUDGET_CELLS)
@pytest.mark.parametrize("one_component", [True, False])
def test_budget_counts_insertions_on_small_cells(one_component, d, n, k):
    if one_component:
        counter, enumerator, want = (
            nw.count_otc_networks, nw.enumerate_otc, exact.otc_count(d, n, k)
        )
    else:
        counter, enumerator, want = (
            nw.count_tc_networks, nw.enumerate_tc, exact.appendix_table(d)[(n, k)]
        )
    insertions = partial_networks(coords(d, n, k, one_component))
    check_budget(counter, enumerator, d, n, k, insertions, want)


def search_outcome(d, n, k, one_component, count_only, budget):
    """What the search amounts to: its number of networks, or the message
    of the BudgetExceeded it raised."""
    search = nw._tc_search(d, n, k, budget, one_component, count_only=count_only)
    try:
        return sum(search) if count_only else sum(1 for _ in search)
    except nw.BudgetExceeded as exc:
        return str(exc)


@pytest.mark.parametrize(
    "d,n,k",
    [(2, 3, 0), (3, 1, 0), (2, 2, 1), (3, 3, 1), (2, 4, 3), (3, 3, 2),
     (2, 3, 2), (4, 3, 2), (2, 4, 2)],
)
@pytest.mark.parametrize("one_component", [True, False])
def test_counting_path_does_the_same_work(one_component, d, n, k):
    # the counting search yields counts that add up to what the building
    # search yields, and it runs out of budget at the same insertion with
    # the same message: at every budget up to one past the insertions, or
    # at about 15 evenly spaced ones plus 1 and the midpoint on the general
    # d = 2, n = 4 cells
    built = coords(d, n, k, one_component)
    insertions = partial_networks(built)
    fn = "enumerate_otc" if one_component else "enumerate_tc"
    step = 1 if insertions <= 600 else insertions // 14
    for budget in sorted({
        0, 1, insertions // 2, *range(0, insertions + 2, step),
        insertions - 1, insertions, insertions + 1,
    }):
        if budget < 0:
            continue
        outcome = search_outcome(d, n, k, one_component, False, budget)
        assert search_outcome(d, n, k, one_component, True, budget) == outcome
        if budget < insertions:
            assert outcome == f"{fn}(d={d}, n={n}, k={k}) exceeded {budget} insertions"
        else:
            assert outcome == len(built)


BEYOND_OLD_ORACLES = (
    [(2, 5, k) for k in range(5)]
    + [(3, 5, k) for k in range(3)]
    + [(d, 4, k) for d in (4, 5) for k in range(3)]
    + [(6, 4, k) for k in range(2)]
)


@pytest.mark.parametrize("d,n,k", BEYOND_OLD_ORACLES)
def test_count_tc_matches_fixtures_beyond_criterion_2(d, n, k):
    # the reference tables at n = 4, 5, past the cells that criterion 2 checks
    assert nw.count_tc_networks(d, n, k) == exact.appendix_table(d)[(n, k)]


BAD_PARAMS = {
    (1, 3, 1): "multiplicity d",
    (2, 0, 0): "leaf count n",
    (2, 3, -1): "out of range",
    (2, 3, 3): "out of range",
}


@pytest.mark.parametrize("d,n,k", list(BAD_PARAMS))
@pytest.mark.parametrize(
    "fn",
    [nw.enumerate_tc, nw.count_tc_networks, nw.enumerate_otc, nw.count_otc_networks],
)
def test_network_enumerators_reject_bad_parameters(fn, d, n, k):
    with pytest.raises(ValueError, match=BAD_PARAMS[d, n, k]):
        fn(d, n, k)


@pytest.mark.parametrize(
    "d,n,k",
    [(2, 2, 1), (2, 3, 1), (2, 4, 2), (3, 3, 2), (3, 4, 3), (4, 3, 2), (5, 3, 2)],
)
def test_enumerate_otc_matches_formula(d, n, k):
    assert nw.count_otc_networks(d, n, k) == exact.otc_count(d, n, k)


def test_enumerate_otc_agrees_with_object_level_insertion():
    # the fast coordinate path must reproduce object-level insertion + dedup
    for d, n, k in [(2, 3, 2), (3, 3, 2)]:
        level = {nw.canonical_key(t): t for t in nw.enumerate_otc(d, n - k, 0)}
        for _ in range(k):
            grown = {}
            for parent in level.values():
                cand = nw.candidate_edges(parent)
                for combo in combinations_with_replacement(cand, d):
                    for label in range(1, parent.n + 2):
                        child = nw.otc_insertion(parent, list(combo), label)
                        grown[nw.canonical_key(child)] = child
            level = grown
        fast = {nw.canonical_key(net) for net in nw.enumerate_otc(d, n, k)}
        assert set(level) == fast


@pytest.mark.parametrize(
    "d,n,k,expected",
    [(2, 3, 2, 42), (3, 3, 2, 150), (5, 2, 1, 2), (2, 4, 1, 228), (4, 3, 1, 48)],
)
def test_enumerate_tc_matches_fixtures(d, n, k, expected):
    assert exact.appendix_table(d)[(n, k)] == expected
    nets = nw.enumerate_tc(d, n, k)
    assert len(nets) == expected
    for net in nets[:50]:
        assert nw.validate(net).ok
        assert nw.is_tree_child(net)
        assert len(nw.free_edges(net)) == 2 * (n - k - 1)
        t, total = exact.node_counts(d, n, k)
        assert net.num_nodes == total
        # tree-child + degrees force every reticulation parent to be a tree node
        for u, v in net.edges:
            if net.roles[v] == nw.RET:
                assert net.roles[u] == nw.TREE


@pytest.mark.parametrize("d,n,k", [(2, 1, 0), (2, 3, 1), (3, 3, 2)])
def test_enumerate_otc_is_a_lazy_sequence_of_sorted_coordinates(d, n, k):
    # the networks of the sorted coordinates that the search yields, built
    # when read; len, indexing, slicing and iteration all agree with them
    coords = sorted(nw._attach(*s) for s in nw._tc_search(d, n, k, 10**6, True))
    want = [nw._coord_to_network(c, d) for c in coords]
    nets = nw.enumerate_otc(d, n, k)
    assert len(nets) == len(want) == exact.otc_count(d, n, k)
    assert list(nets) == want
    assert [nets[i] for i in range(len(want))] == want
    assert nets[-1] == want[-1]
    assert nets[1:4] == want[1:4] and nets[:] == want
    with pytest.raises(IndexError):
        nets[len(want)]


def test_enumerate_tc_one_component_subset_matches_otc():
    # filtering the general enumeration with the node-level one-component
    # check recovers the closed formula
    for d, n, k in [(2, 3, 2), (2, 4, 2), (3, 3, 2), (4, 3, 2)]:
        nets = nw.enumerate_tc(d, n, k)
        one_comp = [net for net in nets if nw.is_one_component(net)]
        assert len(one_comp) == exact.otc_count(d, n, k)


def test_enumerate_tc_budget():
    with pytest.raises(nw.BudgetExceeded):
        nw.enumerate_tc(3, 4, 3, budget=1000)


def test_export_json_round_trip():
    for net in nw.enumerate_otc(3, 3, 2)[:5]:
        data = nw.to_json(net)
        clone = nw.from_json(data)
        assert nw.canonical_key(clone) == nw.canonical_key(net)
        payload = json.loads(data)
        assert payload["d"] == 3 and payload["n"] == 3 and payload["k"] == 2
        assert sorted(payload["leaf_labels"].values()) == [1, 2, 3]


# (enumerator, d, n, k, random node renumberings per network)
PROPERTY_CELLS = (
    [(nw.enumerate_tc, 2, n, k, 3) for n in (1, 2, 3) for k in range(n)]
    + [(nw.enumerate_tc, 3, 3, k, 3) for k in range(3)]
    + [(nw.enumerate_otc, d, 4, k, 3) for d in (2, 3) for k in range(4)]
    + [(nw.enumerate_tc, 2, 4, k, 1) for k in range(4)]
    + [(nw.enumerate_tc, 4, 3, k, 1) for k in range(3)]
)


@pytest.mark.parametrize(
    "enumerate_fn,d,n,k,relabellings", PROPERTY_CELLS,
    ids=[f"{fn.__name__}-d{d}-n{n}-k{k}" for fn, d, n, k, _ in PROPERTY_CELLS],
)
def test_key_and_json_invariant_over_enumerated_networks(
    enumerate_fn, d, n, k, relabellings
):
    # every network an oracle enumerates: it is its own canonical form, so
    # the writers the CLI calls on it give the public exporters' bytes; random
    # node renumberings keep the key and the exported JSON and DOT bytes, and
    # JSON round-trips to the same key.  The list is strictly sorted.
    rng = random.Random(0)
    keys = []
    for net in enumerate_fn(d, n, k):
        key, data, dot = nw.canonical_key(net), nw.to_json(net), nw.to_dot(net)
        keys.append(key)
        assert nw.canonical_form(net) == net
        assert json.dumps(nw._json_payload(net)).encode() == data
        assert nw._dot_text(net, "network").encode() == dot
        assert nw.canonical_key(nw.from_json(data)) == key
        for _ in range(relabellings):
            perm = list(range(net.num_nodes))
            rng.shuffle(perm)
            other = permuted(net, perm)
            assert nw.canonical_key(other) == key
            assert nw.to_json(other) == data
            assert nw.to_dot(other) == dot
    if enumerate_fn is nw.enumerate_otc:
        # ordered by the root coordinate that the oc| key spells out: tuple
        # order, not byte order ((2,) < (2, 2) but b"(2,)" > b"(2, 2)")
        keys = [ast.literal_eval(key.removeprefix(b"oc|").decode()) for key in keys]
    assert keys == sorted(set(keys))


def test_export_dot():
    net = nw.enumerate_otc(2, 3, 1)[0]
    dot = nw.to_dot(net).decode()
    assert dot.count(" -> ") == len(net.edges)
    for _, lab in net.leaf_labels:
        assert f'label="{lab}"' in dot
    assert "shape=box" in dot  # reticulation present


def test_export_deterministic_across_isomorphs():
    net = nw.enumerate_otc(2, 3, 1)[3]
    rotated = permuted(net, list(range(1, net.num_nodes)) + [0])
    assert nw.to_json(net) == nw.to_json(rotated)
    assert nw.to_dot(net) == nw.to_dot(rotated)
