"""Network objects, class validators, insertions, and brute-force oracles.

A network is a rooted simple DAG: one root (indegree 0, outdegree 1), tree
nodes (in 1, out 2), reticulation nodes (in d, out 1), and leaves (in 1,
out 0) bijectively labeled 1..n.  This module provides validators for the
tree-child and one-component classes, the two insertion constructions used
in the counting proofs, canonicalization of tree-child networks up to
label-preserving isomorphism, and exhaustive enumerators whose cardinalities
are the ground truth against which formulas and reference tables are
checked.

Every tree-child network decomposes into tree components.  The root and
each reticulation hang over a phylogenetic tree on a block of the leaf
labels, and every tree node is either a branching node of one of those
trees or a stub: a node with one reticulation child, recorded as that
reticulation's name in a stack on a component edge (top-to-bottom order is
structural).  A reticulation is named by the
smallest label of its block.  A network is therefore a split of 1..n into
blocks with one root block, a tree per block, and the stacks, with an
acyclic component graph; the enumerators generate exactly this data, each
network once, by inserting the reticulations in name order into the
components that their own component cannot reach, and each reticulation's
component carries its name.  One-component networks are the case where
every reticulation's block is one leaf and every stub sits in the root
component, so they are coordinates that list no component beyond the
root's; the nested tuples of their root component are their canonical
key.  Every other tree-child network is keyed by its nodes
sorted by role and by mu, the vector of path counts to each leaf label: two
nodes of a tree-child network share mu only as the root or a reticulation
and its single child, which differ in role (Cardona, Rossello and Valiente,
"Comparison of tree-child phylogenetic networks", TCBB 2009), so that sort
alone numbers the nodes canonically.

canonical_key and canonical_form validate and canonicalise any network
they are given, and so do the public exporters to_json and to_dot.
The enumerators enumerate_tc and enumerate_otc return networks that are
already canonical forms; the private writers _json_payload and _dot_text
take such a network as it is and do not renumber it.  enumerate_tc returns
a list.  enumerate_otc keeps only the sorted root coordinates and returns a
read-only sequence that builds each network when it is read, so a writer
that takes one network at a time never holds more than one.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice, product
from operator import itemgetter

from .exact import _check_d, _check_int, _check_params
from .words import BudgetExceeded

ROOT = "root"
TREE = "tree"
RET = "reticulation"
LEAF = "leaf"
_ROLES = (ROOT, TREE, RET, LEAF)

DEFAULT_NETWORK_BUDGET = 50_000_000


@dataclass(frozen=True)
class PhyloNetwork:
    """Immutable leaf-labeled network with role-typed nodes.

    Node ids are 0..N-1; leaf_labels holds (node id, label) pairs.
    """

    d: int
    roles: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    leaf_labels: tuple[tuple[int, int], ...]

    @property
    def num_nodes(self) -> int:
        return len(self.roles)

    @property
    def n(self) -> int:
        return sum(1 for r in self.roles if r == LEAF)

    @property
    def k(self) -> int:
        return sum(1 for r in self.roles if r == RET)

    @property
    def root(self) -> int:
        return self.roles.index(ROOT)

    @property
    def labels(self) -> dict[int, int]:
        return dict(self.leaf_labels)

    def children(self) -> list[list[int]]:
        """Child lists; ValueError naming an edge that is not simple."""
        children, bad = _simple_children(self)
        if bad is not None:
            raise ValueError(
                f"edge {bad} is a loop, a repeat or names a node outside "
                f"0..{self.num_nodes - 1}"
            )
        return children


@dataclass
class ValidationReport:
    checks: list[tuple[str, bool, object]]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list[tuple[str, bool, object]]:
        return [c for c in self.checks if not c[1]]


def validate(net: PhyloNetwork) -> ValidationReport:
    """Check every structural invariant; failures carry a witness."""
    return _validate(net)[0]


def _simple_children(net: PhyloNetwork) -> tuple[list[list[int]], tuple | None]:
    """The child lists of the simple edges, and the last edge that is not.

    An edge with an end outside 0..N-1, a loop or a repeat is not simple;
    it is left out, so no later check indexes by a node id that is absent.
    """
    num = net.num_nodes
    children: list[list[int]] = [[] for _ in range(num)]
    bad = None
    for u, v in net.edges:
        if not (0 <= u < num and 0 <= v < num) or u == v or v in children[u]:
            bad = (u, v)
            continue
        children[u].append(v)
    return children, bad


def _validate(net: PhyloNetwork) -> tuple[ValidationReport, list[list[int]]]:
    """The report, and the child lists of the simple edges."""
    checks: list[tuple[str, bool, object]] = []
    num = net.num_nodes
    children, witness_edge = _simple_children(net)
    indeg = [0] * num
    for kids in children:
        for v in kids:
            indeg[v] += 1
    checks.append(("simple_graph", witness_edge is None, witness_edge))

    roots = [i for i, r in enumerate(net.roles) if r == ROOT]
    checks.append(("single_root", len(roots) == 1, roots))

    expected = {ROOT: (0, 1), TREE: (1, 2), RET: (net.d, 1), LEAF: (1, 0)}
    bad_deg = None
    for i, role in enumerate(net.roles):
        if role not in expected:
            bad_deg = (i, role)
            break
        want_in, want_out = expected[role]
        if indeg[i] != want_in or len(children[i]) != want_out:
            bad_deg = (i, role, indeg[i], len(children[i]))
            break
    checks.append(("role_degrees", bad_deg is None, bad_deg))

    # acyclicity via Kahn
    pending = indeg[:]
    queue = [i for i in range(num) if pending[i] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in children[u]:
            pending[v] -= 1
            if pending[v] == 0:
                queue.append(v)
    checks.append(("acyclic", seen == num, None if seen == num else seen))

    labels = net.labels
    leaves = [i for i, r in enumerate(net.roles) if r == LEAF]
    bijective = (
        sorted(labels) == sorted(leaves)
        and sorted(labels.values()) == list(range(1, len(leaves) + 1))
    )
    checks.append(("leaf_labels_bijective", bijective, labels))
    return ValidationReport(checks), children


def _require_valid(net: PhyloNetwork) -> list[list[int]]:
    """The child lists of a valid network, built once; ValueError otherwise."""
    report, children = _validate(net)
    if not report.ok:
        raise ValueError(f"invalid network: {report.failures()}")
    return children


def _is_tree_child(net: PhyloNetwork, children: list[list[int]]) -> bool:
    """Every non-leaf node has at least one child that is not a reticulation."""
    roles = net.roles
    above = {u for u, kids in enumerate(children) for c in kids if roles[c] != RET}
    return all(role == LEAF or u in above for u, role in enumerate(roles))


def _require_tree_child(net: PhyloNetwork, caller: str) -> list[list[int]]:
    """The child lists of a valid tree-child network; ValueError otherwise."""
    children = _require_valid(net)
    if not _is_tree_child(net, children):
        raise ValueError(f"{caller} expects a tree-child network")
    return children


def is_tree_child(net: PhyloNetwork) -> bool:
    """Every non-leaf node has at least one child that is not a reticulation."""
    return _is_tree_child(net, _require_valid(net))


def is_one_component(net: PhyloNetwork) -> bool:
    """Every reticulation is directly followed by a leaf."""
    return _rets_lead_to_leaves(net, _require_tree_child(net, "is_one_component"))


def _rets_lead_to_leaves(net: PhyloNetwork, children: list[list[int]]) -> bool:
    return all(
        net.roles[children[i][0]] == LEAF
        for i, role in enumerate(net.roles)
        if role == RET
    )


def free_edges(net: PhyloNetwork) -> list[tuple[int, int]]:
    """Out-edges of free tree nodes (tree nodes with no reticulation child)."""
    return _free_edges(net, _require_tree_child(net, "free_edges"))


def _free_edges(net: PhyloNetwork, children: list[list[int]]) -> list[tuple[int, int]]:
    out = []
    for i, role in enumerate(net.roles):
        if role == TREE and all(net.roles[c] != RET for c in children[i]):
            out.extend((i, c) for c in sorted(children[i]))
    return sorted(out)


def candidate_edges(net: PhyloNetwork) -> list[tuple[int, int]]:
    """Edges incident to no reticulation node (insertion sites)."""
    return _candidate_edges(net, _require_valid(net))


def _candidate_edges(
    net: PhyloNetwork, children: list[list[int]]
) -> list[tuple[int, int]]:
    return sorted(
        (u, v)
        for u, kids in enumerate(children)
        for v in kids
        if net.roles[u] != RET and net.roles[v] != RET
    )


# ---------------------------------------------------------------------------
# Component coordinates.
#
# node  = (0, label)            component leaf
#       | (1, edge_a, edge_b)   component branching node, edge_a <= edge_b
# edge  = (stack, node)         stack: tuple of reticulation names along the
#                               edge, top to bottom
# coord = the edge above one component's tree.
#
# A network's coordinates are (root coord, ((name, coord), ...)): the root
# component's coord, then each listed reticulation's name and coord, in name
# order.  Reticulations are named by the smallest leaf label of their
# component, so the coordinates determine the network up to label-preserving
# isomorphism, and sorted tuples make them canonical.  A reticulation met in
# a stack with no listed component has a bare leaf labelled with its name as
# its component, so a one-component network's coordinates are
# (root coord, ()) and the root coord alone is its canonical coordinate.
#
# The generator's trees are bare nodes, (0, label) | (1, a, b), with no
# stacks and children in the order they were built; _attach adds the stacks
# and sorts the children, and _network_to_coord sorts them as it builds them.
# ---------------------------------------------------------------------------

Coord = tuple


def _trees(labels: list[int]):
    """Every phylogenetic tree on the given leaf labels once, as a bare node.

    Leaf insertion: the last leaf hangs on any of the 2j-3 edges of a tree
    on the first j-1 leaves, which gives every labeled tree exactly once.
    """
    if len(labels) == 1:
        yield (0, labels[0])
        return
    leaf = (0, labels[-1])
    for tree in _trees(labels[:-1]):
        yield from _hang(tree, leaf)


def _hang(node, leaf):
    """node with leaf hung on each edge of its subtree, the edge above node first."""
    yield (1, node, leaf)
    if node[0] == 1:
        _, a, b = node
        for x in _hang(a, leaf):
            yield (1, x, b)
        for x in _hang(b, leaf):
            yield (1, a, x)


def _attach(trees: tuple, stacks: list[tuple[int, ...]], names: list[int]) -> tuple:
    """Coordinates of bare-node trees whose edges, in preorder, carry stacks.

    trees holds the root component's tree and then the tree of each
    reticulation in names, which ascend; the result is
    (root edge, ((name, edge), ...)).  The children of every branching node
    are sorted here, so the result is canonical whatever order the trees
    were built in.
    """
    it = iter(stacks)

    def walk(node):
        stack = next(it)
        if node[0] == 1:
            ea, eb = walk(node[1]), walk(node[2])
            if eb < ea:
                ea, eb = eb, ea
            node = (1, ea, eb)
        return (stack, node)

    root_edge, *edges = map(walk, trees)
    return root_edge, tuple(zip(names, edges))


def _coord_to_network(coord, d: int) -> PhyloNetwork:
    """Expand network coordinates back into an explicit node/edge network.

    coord is (root edge, ((name, edge), ...)) as _attach builds it.  The
    root component is walked first, then each listed component under its
    reticulation, in name order; a reticulation node is numbered where it
    is first met.  Last, every reticulation met in a stack with no listed
    component gets a bare leaf labelled with its name, in name order, so
    (root edge, ()) builds the one-component network of that root edge.
    """
    root_edge, components = coord
    roles: list[str] = [ROOT]
    edges: list[tuple[int, int]] = []
    leaf_label_pairs: list[tuple[int, int]] = []
    ret_node: dict[int, int] = {}

    def new_node(role: str) -> int:
        roles.append(role)
        return len(roles) - 1

    def ret_of(name: int) -> int:
        if name not in ret_node:
            ret_node[name] = new_node(RET)
        return ret_node[name]

    def walk(edge, parent: int) -> None:
        stack, node = edge
        u = parent
        for name in stack:
            stub = new_node(TREE)
            edges.append((u, stub))
            edges.append((stub, ret_of(name)))
            u = stub
        if node[0] == 0:
            leaf = new_node(LEAF)
            edges.append((u, leaf))
            leaf_label_pairs.append((leaf, node[1]))
        else:
            v = new_node(TREE)
            edges.append((u, v))
            walk(node[1], v)
            walk(node[2], v)

    walk(root_edge, 0)
    for name, edge in components:
        walk(edge, ret_of(name))
    for name in sorted(ret_node.keys() - dict(components).keys()):
        walk(((), (0, name)), ret_node[name])
    return PhyloNetwork(
        d=d,
        roles=tuple(roles),
        edges=tuple(edges),
        leaf_labels=tuple(sorted(leaf_label_pairs)),
    )


def _network_to_coord(net: PhyloNetwork, children: list[list[int]]) -> Coord:
    """Decompose a network whose reticulations all lead to leaves."""
    labels = net.labels
    ret_label = {
        i: labels[children[i][0]] for i, role in enumerate(net.roles) if role == RET
    }

    def ret_child_of(u: int) -> int | None:
        for c in children[u]:
            if net.roles[c] == RET:
                return c
        return None

    def build_edge(v: int) -> Coord:
        stack: list[int] = []
        while net.roles[v] == TREE:
            ret = ret_child_of(v)
            if ret is None:
                break
            stack.append(ret_label[ret])
            v = next(c for c in children[v] if net.roles[c] != RET)
        if net.roles[v] == LEAF:
            return (tuple(stack), (0, labels[v]))
        ea, eb = sorted(map(build_edge, children[v]))
        return (tuple(stack), (1, ea, eb))

    return build_edge(children[net.root][0])


# ---------------------------------------------------------------------------
# Canonical keys for tree-child networks.
# ---------------------------------------------------------------------------

_ROLE_RANK = {ROOT: 0, TREE: 1, RET: 2, LEAF: 3}


def _path_count_vectors(net: PhyloNetwork, children: list[list[int]]) -> list[int]:
    """Per node, mu (the directed path counts to each leaf label) as one int.

    Label j takes a field of num_nodes + 1 bits, with label 1 the most
    significant.  A path is fixed by its set of nodes, so a node has fewer
    than 2**num_nodes paths to any leaf: no field overflows into the next,
    a node's int is the sum of its children's, and the ints compare as the
    vectors (c_1, ..., c_n) compare as tuples.
    """
    num = net.num_nodes
    n = net.n
    labels = net.labels
    order: list[int] = []
    state = [0] * num
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
    width = num + 1
    mu = [0] * num
    for u in order:
        if net.roles[u] == LEAF:
            mu[u] = 1 << width * (n - labels[u])
        for c in children[u]:
            mu[u] += mu[c]
    return mu


def _renumbered_by_mu(net: PhyloNetwork, children: list[list[int]]) -> PhyloNetwork:
    """The copy of a tree-child network with nodes sorted by (role, mu)."""
    mu = _path_count_vectors(net, children)
    order = sorted(
        range(net.num_nodes), key=lambda i: (_ROLE_RANK[net.roles[i]], mu[i])
    )
    pos = [0] * net.num_nodes
    for new, old in enumerate(order):
        pos[old] = new
    return PhyloNetwork(
        d=net.d,
        roles=tuple(net.roles[old] for old in order),
        edges=tuple(sorted((pos[u], pos[v]) for u, v in net.edges)),
        leaf_labels=tuple(sorted((pos[node], lab) for node, lab in net.leaf_labels)),
    )


def _oc_key(root_edge: Coord) -> bytes:
    return b"oc|" + repr(root_edge).encode()


def _canonical(
    net: PhyloNetwork, children: list[list[int]]
) -> tuple[bytes, PhyloNetwork]:
    """(canonical key, canonical form) of a valid tree-child network.

    A one-component network is keyed by its root coordinate (``oc|``) and
    rebuilt from it.  Any other tree-child network has its nodes sorted by
    role and then by mu, the vector of path counts to each leaf label,
    which is a total order on the nodes of a tree-child network (see the
    module docstring); it is keyed by that form (``tc|``).
    """
    if _rets_lead_to_leaves(net, children):
        root_edge = _network_to_coord(net, children)
        return _oc_key(root_edge), _coord_to_network((root_edge, ()), net.d)
    form = _renumbered_by_mu(net, children)
    roles = ",".join(form.roles)
    key = f"tc|{form.d}|{roles}|{list(form.edges)}|{list(form.leaf_labels)}"
    return key.encode(), form


def canonical_key(net: PhyloNetwork) -> bytes:
    """Equal keys exactly for label-preserving isomorphic tree-child networks.

    The key starts with ``oc|`` for a one-component network and ``tc|``
    for any other.  Raises ValueError on a network that is invalid or not
    tree-child.
    """
    children = _require_tree_child(net, "canonical_key")
    if _rets_lead_to_leaves(net, children):  # the root coordinate alone
        return _oc_key(_network_to_coord(net, children))
    return _canonical(net, children)[0]


def canonical_form(net: PhyloNetwork) -> PhyloNetwork:
    """Isomorphic copy with canonical node numbering (deterministic bytes).

    canonical_form(canonical_form(x)) == canonical_form(x).  Raises
    ValueError on a network that is invalid or not tree-child.
    """
    return _canonical(net, _require_tree_child(net, "canonical_form"))[1]


# ---------------------------------------------------------------------------
# Insertions.
# ---------------------------------------------------------------------------

def otc_insertion(
    net: PhyloNetwork,
    positions: list[tuple[int, int]],
    label: int,
) -> PhyloNetwork:
    """Grow a one-component network by one reticulation and one leaf.

    positions is a multiset of d candidate edges; several of the d new
    parent stubs may stack in series on the same edge.  The new leaf takes
    `label`, and existing labels >= label shift up by one.
    """
    # is_one_component's checks and messages, on one pass of _validate
    children = _require_tree_child(net, "is_one_component")
    if not _rets_lead_to_leaves(net, children):
        raise ValueError("otc_insertion expects a one-component network")
    if len(positions) != net.d:
        raise ValueError(f"need exactly d={net.d} positions")
    cand = set(_candidate_edges(net, children))
    for e in positions:
        if tuple(e) not in cand:
            raise ValueError(f"{e} is not a candidate edge")
    if not 1 <= label <= net.n + 1:
        raise ValueError(f"label {label} outside 1..{net.n + 1}")

    roles = [*net.roles, RET, LEAF]
    ret, new_leaf = len(roles) - 2, len(roles) - 1
    leaf_labels = [(new_leaf, label)] + [
        (node, lab + 1 if lab >= label else lab) for node, lab in net.leaf_labels
    ]
    edges = {*net.edges, (ret, new_leaf)}
    for edge, count in Counter(map(tuple, positions)).items():
        _feed(roles, edges, edge, count, ret)
    return PhyloNetwork(
        d=net.d,
        roles=tuple(roles),
        edges=tuple(sorted(edges)),
        leaf_labels=tuple(sorted(leaf_labels)),
    )


def ret_insertion(net: PhyloNetwork, free_edge: tuple[int, int]) -> PhyloNetwork:
    """Add a reticulation on a free edge, fed from a chain in the root edge.

    d-1 new tree nodes subdivide the root edge and each gains an edge to
    the new reticulation; the free edge's top endpoint supplies the d-th
    in-edge.  (Node counts force d-1 chain nodes, not d: the total grows by
    exactly d when k increases by one.)  Leaves and labels are unchanged.
    """
    children = _require_tree_child(net, "ret_insertion")
    if tuple(free_edge) not in set(_free_edges(net, children)):
        raise ValueError(f"{free_edge} is not a free edge")
    u, v = free_edge
    roles = [*net.roles, RET]
    ret = len(roles) - 1
    edges = set(net.edges)
    edges.remove((u, v))
    edges |= {(u, ret), (ret, v)}
    _feed(roles, edges, (net.root, children[net.root][0]), net.d - 1, ret)
    return PhyloNetwork(
        d=net.d,
        roles=tuple(roles),
        edges=tuple(sorted(edges)),
        leaf_labels=net.leaf_labels,
    )


def _feed(roles: list[str], edges: set, edge: tuple, count: int, ret: int) -> None:
    """Subdivide edge by count new stubs in series, each feeding ret."""
    u, v = edge
    edges.remove(edge)
    for _ in range(count):
        roles.append(TREE)
        stub = len(roles) - 1
        edges.add((u, stub))
        edges.add((stub, ret))
        u = stub
    edges.add((u, v))


# ---------------------------------------------------------------------------
# Enumeration over component coordinates.
# ---------------------------------------------------------------------------

def _set_partitions(n: int, m: int):
    """Every partition of 1..n into m blocks; blocks ascend by smallest label."""

    def place(label: int, blocks: list[list[int]]):
        if n - label + 1 < m - len(blocks):
            return
        if label > n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(label)
            yield from place(label + 1, blocks)
            b.pop()
        if len(blocks) < m:
            blocks.append([label])
            yield from place(label + 1, blocks)
            blocks.pop()

    yield from place(1, [])


def _tc_search(
    d: int, n: int, k: int, budget: int, one_component: bool = False,
    count_only: bool = False,
):
    """Yield every tree-child network once, depth-first, as (trees, stacks, names).

    A network is its tree components: the leaf labels split into k+1
    blocks, one of them the root block, each block carrying a phylogenetic
    tree with a stack of reticulation labels on every edge.  A reticulation
    is named by the smallest label of its block.  The reticulations are
    inserted in ascending name order, each putting its d stubs as a multiset
    over the stack gaps of the components that its own component cannot
    reach, so the component graph stays acyclic and every partial network
    extends.  Blocks, trees and gaps are all labeled, so no network is
    built twice.  One-component networks are the restriction to singleton
    reticulation blocks with every stub in the root component.

    trees holds the tree of each component as a bare node from _trees, the
    root block first and then the reticulations in name order; stacks holds
    the stack on every edge of those trees in preorder; names holds the
    reticulation names in ascending order, and _attach turns the three into
    sorted coordinates.  The budget counts insertions.

    With count_only the last level builds nothing: it walks every multiset
    of the last reticulation's stubs inside combinations_with_replacement,
    stopping one past what the budget has left, charges the budget one
    insertion per multiset as the building search does, and yields how many
    it walked, once for the whole level (1 for each tree choice when
    k == 0).  The sum of what it yields is the number of networks, still
    found one by one and not from a formula.
    """
    budget = _check_int("budget", budget, 0)
    fn = "enumerate_otc" if one_component else "enumerate_tc"
    exceeded = f"{fn}(d={d}, n={n}, k={k}) exceeded {budget} insertions"
    built = 0

    def grow(stacks: list[tuple[int, ...]], reach: list[int], i: int):
        # inserts reticulation i into the block split that the loop below
        # has set up: owner[a] is the component of edge a, and reach[j] is
        # the bitmask of the components that component j reaches
        nonlocal built
        blocked = ~1 if one_component else reach[i]  # ~1: all but the root
        slots = [
            (a, g)
            for a, j in enumerate(owner)
            if not blocked >> j & 1
            for g in range(len(stacks[a]) + 1)
        ]
        name = (names[i - 1],)
        if count_only and i == k:
            # every multiset is a nonempty tuple, so this counts them in C
            walk = combinations_with_replacement(slots, d)
            walked = sum(map(bool, islice(walk, budget - built + 1)))
            built += walked
            if built > budget:
                raise BudgetExceeded(exceeded)
            yield walked
            return
        for comb in combinations_with_replacement(slots, d):
            built += 1
            if built > budget:
                raise BudgetExceeded(exceeded)
            child = stacks[:]
            fed = 0
            for a, g in reversed(comb):
                child[a] = child[a][:g] + name + child[a][g:]
                fed |= 1 << owner[a]
            if i == k:
                yield trees, child, names
            else:
                grown = [r | reach[i] if r & fed else r for r in reach]
                yield from grow(child, grown, i + 1)

    for blocks in _set_partitions(n, k + 1):
        for r, root_block in enumerate(blocks):
            rets = blocks[:r] + blocks[r + 1:]
            if one_component and any(len(b) > 1 for b in rets):
                continue
            names = [b[0] for b in rets]
            components = [root_block] + rets
            owner = [j for j, b in enumerate(components) for _ in range(2 * len(b) - 1)]
            empty = [()] * len(owner)
            for trees in product(*map(_trees, components)):
                if k == 0:
                    yield 1 if count_only else (trees, empty, names)
                else:
                    yield from grow(empty, [1 << j for j in range(k + 1)], 1)


def count_otc_networks(
    d: int, n: int, k: int, budget: int = DEFAULT_NETWORK_BUDGET
) -> int:
    """|enumerate_otc|, from the one-component search with its last level
    walked inside itertools and not built."""
    d, n, k = _check_params(d, n, k)
    return sum(_tc_search(d, n, k, budget, True, count_only=True))


def enumerate_otc(
    d: int, n: int, k: int, budget: int = DEFAULT_NETWORK_BUDGET
) -> Sequence[PhyloNetwork]:
    """All one-component networks with n leaves and k reticulations.

    Every reticulation block is one leaf and every stub sits in the root
    component.  The search runs to the end here, but only the root
    coordinates are kept: the result is a lazy read-only sequence that
    builds each network from its coordinate when it is read, so every
    element is a canonical form (canonical_form(x) == x).  It supports
    len(), indexing, slicing (which gives a list) and iteration.  It is
    sorted by root coordinate as a tuple, which is not the byte order of
    the ``oc|`` keys that spell those coordinates out.
    """
    d, n, k = _check_params(d, n, k)
    return _OneComponentNetworks(
        sorted(_attach(*s)[0] for s in _tc_search(d, n, k, budget, True)), d
    )


class _OneComponentNetworks(Sequence):
    """Networks built on each read from a list of one-component root coords."""

    def __init__(self, root_edges: list[Coord], d: int):
        self._root_edges, self._d = root_edges, d

    def __len__(self) -> int:
        return len(self._root_edges)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [_coord_to_network((e, ()), self._d) for e in self._root_edges[i]]
        return _coord_to_network((self._root_edges[i], ()), self._d)


def enumerate_tc(
    d: int, n: int, k: int, budget: int = DEFAULT_NETWORK_BUDGET
) -> list[PhyloNetwork]:
    """All tree-child networks with n leaves and k reticulations.

    Each network is built once from its component coordinates and
    canonicalised once; the result holds the canonical forms, so
    canonical_form(x) == x for every x returned, sorted by canonical key.
    """
    d, n, k = _check_params(d, n, k)
    coords = [_attach(*s) for s in _tc_search(d, n, k, budget)]
    nets = (_coord_to_network(c, d) for c in coords)
    keyed = (_canonical(net, net.children()) for net in nets)
    return [form for _, form in sorted(keyed, key=itemgetter(0))]


def count_tc_networks(
    d: int, n: int, k: int, budget: int = DEFAULT_NETWORK_BUDGET
) -> int:
    """|enumerate_tc|, from the search with its last level walked inside
    itertools and not built."""
    d, n, k = _check_params(d, n, k)
    return sum(_tc_search(d, n, k, budget, count_only=True))


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def to_json(net: PhyloNetwork) -> bytes:
    """Deterministic JSON of any tree-child network, canonicalised first."""
    return json.dumps(_json_payload(canonical_form(net))).encode()


def _json_payload(cf: PhyloNetwork) -> dict:
    """The JSON object of a network already in canonical numbering."""
    return {
        "d": cf.d,
        "n": cf.n,
        "k": cf.k,
        "nodes": [{"id": i, "role": r} for i, r in enumerate(cf.roles)],
        "edges": [[u, v] for u, v in sorted(cf.edges)],
        "leaf_labels": {str(node): lab for node, lab in cf.leaf_labels},
    }


_JSON_KEYS = ("d", "nodes", "edges", "leaf_labels")


def from_json(data: bytes | str) -> PhyloNetwork:
    """The network of a JSON export; ValueError naming what is malformed."""
    payload = json.loads(data)
    if not isinstance(payload, dict):
        raise ValueError(
            f"network JSON must be an object, got {type(payload).__name__}")
    missing = [key for key in _JSON_KEYS if key not in payload]
    if missing:
        raise ValueError(f"network JSON lacks the keys {missing}")
    for key, shape in (("nodes", list), ("edges", list), ("leaf_labels", dict)):
        if not isinstance(payload[key], shape):
            raise ValueError(f"network JSON {key} must be a {shape.__name__}, "
                             f"got {type(payload[key]).__name__}")
    roles = [None] * len(payload["nodes"])
    seen = set()
    for entry in payload["nodes"]:
        if not (isinstance(entry, dict) and "id" in entry and "role" in entry):
            raise ValueError(
                f"node entry {entry!r} is not an object with an id and a role")
        i = entry["id"]
        if type(i) is not int or not 0 <= i < len(roles):
            raise ValueError(f"node id {i!r} is outside 0..{len(roles) - 1}")
        if i in seen:
            raise ValueError(f"node id {i} is used twice")
        seen.add(i)
        if entry["role"] not in _ROLES:
            raise ValueError(f"node {i} has role {entry['role']!r}, "
                             f"not one of {list(_ROLES)}")
        roles[i] = entry["role"]
    for edge in payload["edges"]:
        if not (isinstance(edge, list) and len(edge) == 2
                and all(type(v) is int for v in edge)):
            raise ValueError(f"edge {edge!r} is not a pair of node ids")
    return PhyloNetwork(
        d=_check_d(payload["d"]),
        roles=tuple(roles),
        edges=tuple((u, v) for u, v in payload["edges"]),
        leaf_labels=tuple(
            sorted((int(node), lab) for node, lab in payload["leaf_labels"].items())
        ),
    )


_DOT_SHAPE = {ROOT: "diamond", TREE: "circle", RET: "box", LEAF: "plaintext"}


def to_dot(net: PhyloNetwork) -> bytes:
    """Deterministic DOT of any tree-child network, canonicalised first."""
    return _dot_text(canonical_form(net), "network").encode()


def _dot_text(cf: PhyloNetwork, name: str) -> str:
    """DOT with role-based node shapes for a network in canonical numbering."""
    labels = cf.labels
    lines = [f"digraph {name} {{"]
    for i, role in enumerate(cf.roles):
        label = labels[i] if role == LEAF else ""
        lines.append(f'  n{i} [shape={_DOT_SHAPE[role]}, label="{label}"];')
    for u, v in sorted(cf.edges):
        lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
