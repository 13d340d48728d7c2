"""Network objects, class validators, insertions, and brute-force oracles.

A network is a rooted simple DAG: one root (indegree 0, outdegree 1), tree
nodes (in 1, out 2), reticulation nodes (in d, out 1), and leaves (in 1,
out 0) bijectively labeled 1..n.  This module provides validators for the
tree-child and one-component classes, the two insertion constructions used
in the counting proofs, canonicalization up to label-preserving isomorphism,
and exhaustive enumerators whose cardinalities are the ground truth against
which formulas and reference tables are checked.

One-component networks have a rigid decomposition that drives the fast
canonical form: deleting every reticulation together with its leaf child and
suppressing the resulting degree-2 nodes leaves a phylogenetic "base" tree;
the deleted material is recorded as a stack of reticulation labels on each
base-tree edge (top-to-bottom order is structural).  Networks are in
bijection with (base tree, stacks) pairs, so nested tuples of ints act as a
canonical key and the insertion step becomes cheap tuple surgery.  Their
enumeration is orderly: the parent of a network is the one left by deleting
its largest reticulation label, so growing only with labels above every
existing reticulation label builds each network exactly once, depth-first.
General tree-child networks fall back to an invariant-plus-search
canonicalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

from .words import BudgetExceeded

ROOT = "root"
TREE = "tree"
RET = "reticulation"
LEAF = "leaf"

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
        out: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            out[u].append(v)
        return out

    def parents(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            out[v].append(u)
        return out


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
    checks: list[tuple[str, bool, object]] = []
    num = net.num_nodes
    indeg = [0] * num
    outdeg = [0] * num
    seen_edges = set()
    simple = True
    witness_edge = None
    for u, v in net.edges:
        if not (0 <= u < num and 0 <= v < num) or u == v or (u, v) in seen_edges:
            simple = False
            witness_edge = (u, v)
            continue
        seen_edges.add((u, v))
        outdeg[u] += 1
        indeg[v] += 1
    checks.append(("simple_graph", simple, witness_edge))

    roots = [i for i, r in enumerate(net.roles) if r == ROOT]
    checks.append(("single_root", len(roots) == 1, roots))

    expected = {ROOT: (0, 1), TREE: (1, 2), RET: (net.d, 1), LEAF: (1, 0)}
    bad_deg = None
    for i, role in enumerate(net.roles):
        if role not in expected:
            bad_deg = (i, role)
            break
        want_in, want_out = expected[role]
        if indeg[i] != want_in or outdeg[i] != want_out:
            bad_deg = (i, role, indeg[i], outdeg[i])
            break
    checks.append(("role_degrees", bad_deg is None, bad_deg))

    # acyclicity via Kahn
    children = net.children()
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
    return ValidationReport(checks)


def _require_valid(net: PhyloNetwork) -> None:
    report = validate(net)
    if not report.ok:
        raise ValueError(f"invalid network: {report.failures()}")


def is_tree_child(net: PhyloNetwork) -> bool:
    """Every non-leaf node has at least one child that is not a reticulation."""
    _require_valid(net)
    children = net.children()
    for i, role in enumerate(net.roles):
        if role == LEAF:
            continue
        if all(net.roles[c] == RET for c in children[i]):
            return False
    return True


def is_one_component(net: PhyloNetwork) -> bool:
    """Every reticulation is directly followed by a leaf."""
    if not is_tree_child(net):
        raise ValueError("is_one_component expects a tree-child network")
    return _rets_lead_to_leaves(net)


def _rets_lead_to_leaves(net: PhyloNetwork) -> bool:
    children = net.children()
    for i, role in enumerate(net.roles):
        if role == RET and net.roles[children[i][0]] != LEAF:
            return False
    return True


def _one_component_shaped(net: PhyloNetwork) -> bool:
    """Tree-child with every reticulation on a leaf: the coordinate domain."""
    children = net.children()
    for i, role in enumerate(net.roles):
        if role == RET and net.roles[children[i][0]] != LEAF:
            return False
        if role != LEAF and children[i] and all(
            net.roles[c] == RET for c in children[i]
        ):
            return False
    return True


def free_edges(net: PhyloNetwork) -> list[tuple[int, int]]:
    """Out-edges of free tree nodes (tree nodes with no reticulation child)."""
    if not is_tree_child(net):
        raise ValueError("free_edges expects a tree-child network")
    children = net.children()
    out = []
    for i, role in enumerate(net.roles):
        if role == TREE and all(net.roles[c] != RET for c in children[i]):
            out.extend((i, c) for c in sorted(children[i]))
    return sorted(out)


def candidate_edges(net: PhyloNetwork) -> list[tuple[int, int]]:
    """Edges incident to no reticulation node (insertion sites)."""
    _require_valid(net)
    return sorted(
        (u, v)
        for u, v in net.edges
        if net.roles[u] != RET and net.roles[v] != RET
    )


# ---------------------------------------------------------------------------
# Canonical coordinates for one-component networks.
#
# node  = (0, label)            base-tree leaf
#       | (1, edge_a, edge_b)   base-tree internal node, edge_a <= edge_b
# edge  = (stack, node)         stack: tuple of reticulation labels along the
#                               edge, top to bottom
# coord = the root edge.
#
# Reticulations are identified by the label of their leaf child, so the pair
# (base tree, stacks) determines the network up to label-preserving
# isomorphism, and sorted tuples make the representation canonical.
# ---------------------------------------------------------------------------

Coord = tuple


def _canon_node(node):
    if node[0] == 0:
        return node
    _, ea, eb = node
    ea = (ea[0], _canon_node(ea[1]))
    eb = (eb[0], _canon_node(eb[1]))
    if eb < ea:
        ea, eb = eb, ea
    return (1, ea, eb)


def _coord_canon(coord: Coord) -> Coord:
    stack, node = coord
    return (stack, _canon_node(node))


def _coord_slot_count(coord: Coord) -> int:
    """Number of candidate edges: one gap per stack position plus one."""
    stack, node = coord
    total = len(stack) + 1
    if node[0] == 1:
        total += _coord_slot_count(node[1]) + _coord_slot_count(node[2])
    return total


def _coord_labels(coord: Coord) -> tuple[set[int], set[int]]:
    """(base leaf labels, reticulation labels)."""
    leaves: set[int] = set()
    rets: set[int] = set()

    def walk(edge):
        stack, node = edge
        rets.update(stack)
        if node[0] == 0:
            leaves.add(node[1])
        else:
            walk(node[1])
            walk(node[2])

    walk(coord)
    return leaves, rets


def _coord_insert(coord: Coord, placement: dict[int, int], new_label: int) -> Coord:
    """Insert one reticulation: runs of new stubs at the chosen gaps.

    placement maps candidate-slot index (preorder over edges, one slot per
    gap in each stack) to the number of new parent stubs placed there; the
    counts must sum to d.  Existing labels >= new_label shift up by one.
    The result is re-canonicalized bottom-up.
    """
    shift = new_label

    def relabel(x: int) -> int:
        return x + 1 if x >= shift else x

    def walk(edge, base: int):
        stack, node = edge
        m = len(stack)
        new_stack: list[int] = []
        for g in range(m + 1):
            c = placement.get(base + g, 0)
            if c:
                new_stack.extend([new_label] * c)
            if g < m:
                new_stack.append(relabel(stack[g]))
        base += m + 1
        if node[0] == 0:
            new_node = (0, relabel(node[1]))
        else:
            ea, base = walk(node[1], base)
            eb, base = walk(node[2], base)
            if eb < ea:
                ea, eb = eb, ea
            new_node = (1, ea, eb)
        return (tuple(new_stack), new_node), base

    new_coord, _ = walk(coord, 0)
    return new_coord


def _tree_coords(m: int) -> list[Coord]:
    """All phylogenetic trees on leaves 1..m as coords (empty stacks).

    Leaf-insertion generation: leaf j subdivides any of the 2j-3 edges of a
    tree on j-1 leaves, producing every labeled tree exactly once.
    """
    if m < 1:
        raise ValueError(f"need at least one leaf, got {m}")
    trees: list[Coord] = [((), (0, 1))]
    for j in range(2, m + 1):
        grown: list[Coord] = []
        for tr in trees:
            for pos in range(2 * (j - 1) - 1):
                grown.append(_coord_canon(_subdivide_with_leaf(tr, pos, j)))
        trees = grown
    return trees


def _subdivide_with_leaf(coord: Coord, pos: int, label: int):
    """Replace base edge number pos (preorder) by a cherry with a new leaf."""

    def walk(edge, base: int):
        stack, node = edge
        if base == pos:
            return (stack, (1, ((), node), ((), (0, label)))), -1
        base += 1
        if node[0] == 1:
            ea, base = walk(node[1], base)
            if base == -1:
                return (stack, (1, ea, node[2])), -1
            eb, base = walk(node[2], base)
            if base == -1:
                return (stack, (1, node[1], eb)), -1
        return edge, base

    new_coord, marker = walk(coord, 0)
    if marker != -1:
        raise ValueError(f"edge position {pos} out of range")
    return new_coord


def _coord_to_network(coord: Coord, d: int) -> PhyloNetwork:
    """Expand coordinates back into an explicit node/edge network."""
    leaves, ret_labels = _coord_labels(coord)
    roles: list[str] = [ROOT]
    edges: list[tuple[int, int]] = []
    leaf_label_pairs: list[tuple[int, int]] = []
    ret_node: dict[int, int] = {}

    def new_node(role: str) -> int:
        roles.append(role)
        return len(roles) - 1

    def ret_of(label: int) -> int:
        if label not in ret_node:
            ret_node[label] = new_node(RET)
        return ret_node[label]

    def walk(edge, parent: int) -> None:
        stack, node = edge
        u = parent
        for lab in stack:
            stub = new_node(TREE)
            edges.append((u, stub))
            edges.append((stub, ret_of(lab)))
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

    walk(coord, 0)
    for lab in sorted(ret_labels):
        leaf = new_node(LEAF)
        edges.append((ret_of(lab), leaf))
        leaf_label_pairs.append((leaf, lab))
    return PhyloNetwork(
        d=d,
        roles=tuple(roles),
        edges=tuple(edges),
        leaf_labels=tuple(sorted(leaf_label_pairs)),
    )


def _network_to_coord(net: PhyloNetwork) -> Coord:
    """Decompose a network whose reticulations all lead to leaves."""
    children = net.children()
    labels = net.labels
    ret_label = {}
    for i, role in enumerate(net.roles):
        if role == RET:
            child = children[i][0]
            if net.roles[child] != LEAF:
                raise ValueError("network is not one-component")
            ret_label[i] = labels[child]

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
            node = (0, labels[v])
        else:
            a, b = children[v]
            node = (1, build_edge(a), build_edge(b))
        return (tuple(stack), node)

    root_child = children[net.root][0]
    return _coord_canon(build_edge(root_child))


# ---------------------------------------------------------------------------
# Canonical keys for arbitrary valid networks.
# ---------------------------------------------------------------------------

_ROLE_RANK = {ROOT: 0, TREE: 1, RET: 2, LEAF: 3}
_FALLBACK_CAP = 2_000_000


def _path_count_vectors(net: PhyloNetwork) -> list[tuple[int, ...]]:
    """Per node, the vector of directed path counts to each labeled leaf."""
    num = net.num_nodes
    n = net.n
    children = net.children()
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
    vecs: list[list[int]] = [[0] * n for _ in range(num)]
    for u in order:
        if net.roles[u] == LEAF:
            vecs[u][labels[u] - 1] = 1
        else:
            for c in children[u]:
                vu, vc = vecs[u], vecs[c]
                for i in range(n):
                    vu[i] += vc[i]
    return [tuple(v) for v in vecs]


def _encode_numbering(net: PhyloNetwork, order: list[int]) -> bytes:
    pos = {old: new for new, old in enumerate(order)}
    roles = ",".join(net.roles[old] for old in order)
    edges = sorted((pos[u], pos[v]) for u, v in net.edges)
    labels = sorted((pos[node], lab) for node, lab in net.leaf_labels)
    return f"{net.d}|{roles}|{edges}|{labels}".encode()


def _general_canonical_bytes(net: PhyloNetwork) -> bytes:
    vecs = _path_count_vectors(net)
    children = net.children()
    parents = net.parents()
    base = [(_ROLE_RANK[net.roles[i]], vecs[i]) for i in range(net.num_nodes)]
    inv = [
        (
            base[i],
            tuple(sorted(base[c] for c in children[i])),
            tuple(sorted(base[p] for p in parents[i])),
        )
        for i in range(net.num_nodes)
    ]
    order = sorted(range(net.num_nodes), key=lambda i: inv[i])

    groups: list[list[int]] = []
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or inv[order[i]] != inv[order[start]]:
            groups.append(order[start:i])
            start = i
    if all(len(g) == 1 for g in groups):
        return _encode_numbering(net, order)

    # invariants collide: exhaust role-preserving numberings within each tie
    # group and keep the lexicographically smallest encoding
    total = 1
    for g in groups:
        for j in range(2, len(g) + 1):
            total *= j
        if total > _FALLBACK_CAP:
            raise RuntimeError(
                f"canonicalization fallback too large ({total}+ numberings)"
            )
    best: bytes | None = None
    perms_per_group = [list(permutations(g)) for g in groups]

    def rec(idx: int, acc: list[int]) -> None:
        nonlocal best
        if idx == len(groups):
            enc = _encode_numbering(net, acc)
            if best is None or enc < best:
                best = enc
            return
        for p in perms_per_group[idx]:
            rec(idx + 1, acc + list(p))

    rec(0, [])
    assert best is not None
    return best


def canonical_key(net: PhyloNetwork) -> bytes:
    """Equal keys exactly for label-preserving isomorphic networks.

    One-component-shaped networks (tree-child with every reticulation
    followed by a leaf, an isomorphism-invariant condition) use the
    coordinate form; everything else goes through invariant sorting with
    an exact search fallback on invariant collisions, so correctness never
    rests on the invariants separating all nodes.
    """
    _require_valid(net)
    if _one_component_shaped(net):
        return b"oc|" + repr(_network_to_coord(net)).encode()
    return b"tc|" + _general_canonical_bytes(net)


def canonical_form(net: PhyloNetwork) -> PhyloNetwork:
    """Isomorphic copy with canonical node numbering (deterministic bytes)."""
    _require_valid(net)
    if _one_component_shaped(net):
        return _coord_to_network(_network_to_coord(net), net.d)
    return _network_from_encoding(_general_canonical_bytes(net))


def _network_from_encoding(enc: bytes) -> PhyloNetwork:
    d_str, roles_str, edges_str, labels_str = enc.decode().split("|")
    roles = tuple(roles_str.split(","))
    edges = tuple(tuple(pair) for pair in json.loads(edges_str.replace("(", "[").replace(")", "]")))
    labels = tuple(tuple(pair) for pair in json.loads(labels_str.replace("(", "[").replace(")", "]")))
    return PhyloNetwork(d=int(d_str), roles=roles, edges=edges, leaf_labels=labels)


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
    if not is_one_component(net):
        raise ValueError("otc_insertion expects a one-component network")
    if len(positions) != net.d:
        raise ValueError(f"need exactly d={net.d} positions")
    cand = set(candidate_edges(net))
    for e in positions:
        if tuple(e) not in cand:
            raise ValueError(f"{e} is not a candidate edge")
    if not 1 <= label <= net.n + 1:
        raise ValueError(f"label {label} outside 1..{net.n + 1}")

    counts: dict[tuple[int, int], int] = {}
    for e in positions:
        counts[tuple(e)] = counts.get(tuple(e), 0) + 1

    roles = list(net.roles)
    leaf_labels = [
        (node, lab + 1 if lab >= label else lab) for node, lab in net.leaf_labels
    ]
    edges = set(net.edges)

    def new_node(role: str) -> int:
        roles.append(role)
        return len(roles) - 1

    ret = new_node(RET)
    new_leaf = new_node(LEAF)
    leaf_labels.append((new_leaf, label))
    for (u, v), c in counts.items():
        edges.remove((u, v))
        prev = u
        for _ in range(c):
            stub = new_node(TREE)
            edges.add((prev, stub))
            edges.add((stub, ret))
            prev = stub
        edges.add((prev, v))
    edges.add((ret, new_leaf))
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
    if not is_tree_child(net):
        raise ValueError("ret_insertion expects a tree-child network")
    if tuple(free_edge) not in set(free_edges(net)):
        raise ValueError(f"{free_edge} is not a free edge")
    u, v = free_edge
    root = net.root
    root_child = net.children()[root][0]

    roles = list(net.roles)
    edges = set(net.edges)

    def new_node(role: str) -> int:
        roles.append(role)
        return len(roles) - 1

    ret = new_node(RET)
    edges.remove((u, v))
    edges.add((u, ret))
    edges.add((ret, v))
    edges.remove((root, root_child))
    prev = root
    for _ in range(net.d - 1):
        w = new_node(TREE)
        edges.add((prev, w))
        edges.add((w, ret))
        prev = w
    edges.add((prev, root_child))
    return PhyloNetwork(
        d=net.d,
        roles=tuple(roles),
        edges=tuple(sorted(edges)),
        leaf_labels=net.leaf_labels,
    )


def _check_params(d: int, n: int, k: int) -> None:
    """The (d, n, k) domain shared by every network enumerator."""
    if d < 2 or n < 1 or k < 0 or k > n - 1:
        raise ValueError(f"bad parameters d={d}, n={n}, k={k}")


# ---------------------------------------------------------------------------
# One-component enumeration.
# ---------------------------------------------------------------------------

def _otc_coords(d: int, n: int, k: int, budget: int):
    """Yield the coordinates of every one-component network once, depth-first.

    Orderly generation: the parent of a network is the network left by
    deleting its largest reticulation label (its stubs and its leaf) and
    shifting the labels above it down by one.  Children are therefore built
    only with a new label above every reticulation label of the parent;
    base-tree leaves are labeled, so distinct placements give distinct
    children and no network is built twice.  The budget counts insertions.
    """
    built = 0

    def grow(coord: Coord, top: int, leaves: int):
        nonlocal built
        if leaves == n:
            yield coord
            return
        leaves += 1
        slots = _coord_slot_count(coord)
        for comb in combinations_with_replacement(range(slots), d):
            placement: dict[int, int] = {}
            for s in comb:
                placement[s] = placement.get(s, 0) + 1
            for label in range(top + 1, leaves + 1):
                built += 1
                if built > budget:
                    raise BudgetExceeded(
                        f"enumerate_otc(d={d}, n={n}, k={k}) exceeded "
                        f"{budget} constructions"
                    )
                child = _coord_insert(coord, placement, label)
                yield from grow(child, label, leaves)

    for tree in _tree_coords(n - k):
        yield from grow(tree, 0, n - k)


def count_otc_networks(
    d: int, n: int, k: int, budget: int = DEFAULT_NETWORK_BUDGET
) -> int:
    """|enumerate_otc|, counting coordinates as they are generated."""
    _check_params(d, n, k)
    return sum(1 for _ in _otc_coords(d, n, k, budget))


def enumerate_otc(
    d: int, n: int, k: int, budget: int = DEFAULT_NETWORK_BUDGET
) -> list[PhyloNetwork]:
    """All one-component networks with n leaves and k reticulations.

    Seeds with every phylogenetic tree on n-k leaves and applies the
    reticulation-and-leaf insertion k times, each time with a label above
    every existing reticulation label, so that each network is built from
    its unique parent only; the result is sorted by canonical key.
    """
    _check_params(d, n, k)
    return [_coord_to_network(c, d) for c in sorted(_otc_coords(d, n, k, budget))]


# ---------------------------------------------------------------------------
# General tree-child enumeration by degree-constrained backtracking.
# ---------------------------------------------------------------------------

def _tc_search(d: int, n: int, k: int, budget: int, emit) -> None:
    """Backtrack over child assignments for the fixed node inventory.

    Nodes: 0 root, 1..t tree, then k reticulations, then n leaves (labeled
    by id order).  Out-slots are processed owner-major; each assignment
    respects degrees, simplicity, the tree-child conditions, acyclicity
    (incremental reachability bitmasks), and two symmetry breaks: a new
    (indegree-0) tree or reticulation target must be the lowest unused id
    of its kind, and the two children of a tree node are chosen in
    increasing id order.  Residual isomorphs are removed by the caller via
    canonical keys.
    """
    t = n + (d - 1) * k - 1
    num = 1 + t + k + n
    tree_lo, tree_hi = 1, t  # inclusive
    ret_lo, ret_hi = t + 1, t + k
    leaf_lo = t + k + 1

    roles = (
        [ROOT]
        + [TREE] * t
        + [RET] * k
        + [LEAF] * n
    )
    cap = [0] + [1] * t + [d] * k + [1] * n

    # slots[i] = (owner, first_sibling_slot or -1)
    slots: list[tuple[int, int]] = [(0, -1)]
    for u in range(1, t + 1):
        slots.append((u, -1))
        slots.append((u, len(slots) - 1))
    for r in range(ret_lo, ret_hi + 1):
        slots.append((r, -1))
    total_slots = len(slots)

    # suffix count of slots owned by tree nodes (only they may feed rets)
    tree_slots_after = [0] * (total_slots + 1)
    for i in range(total_slots - 1, -1, -1):
        owner = slots[i][0]
        tree_slots_after[i] = tree_slots_after[i + 1] + (
            1 if tree_lo <= owner <= tree_hi else 0
        )

    indeg = [0] * num
    reach = [1 << i for i in range(num)]  # bitmask of nodes reachable from i
    chosen = [-1] * total_slots
    ret_demand = d * k
    steps = 0

    def assign(idx: int) -> None:
        nonlocal ret_demand, steps
        if idx == total_slots:
            edges = tuple(
                sorted((slots[i][0], chosen[i]) for i in range(total_slots))
            )
            leaf_labels = tuple(
                (leaf_lo + i, i + 1) for i in range(n)
            )
            emit(
                PhyloNetwork(
                    d=d,
                    roles=tuple(roles),
                    edges=edges,
                    leaf_labels=leaf_labels,
                )
            )
            return
        owner, first_slot = slots[idx]
        owner_is_tree = tree_lo <= owner <= tree_hi
        first_choice = chosen[first_slot] if first_slot >= 0 else -1
        lowest_new_tree = next(
            (v for v in range(tree_lo, tree_hi + 1) if indeg[v] == 0), -1
        )
        lowest_new_ret = next(
            (v for v in range(ret_lo, ret_hi + 1) if indeg[v] == 0), -1
        )
        start = first_choice + 1 if first_slot >= 0 else 1
        for v in range(start, num):
            if indeg[v] >= cap[v] or v == owner:
                continue
            is_ret = ret_lo <= v <= ret_hi
            if is_ret:
                if not owner_is_tree:
                    continue  # root and reticulations never feed a reticulation
                if first_slot >= 0 and ret_lo <= first_choice <= ret_hi:
                    continue  # tree node needs one non-reticulation child
                if indeg[v] == 0 and v != lowest_new_ret:
                    continue
            elif tree_lo <= v <= tree_hi:
                if indeg[v] == 0 and v != lowest_new_tree:
                    continue
            if owner == 0 and t >= 1 and v != lowest_new_tree:
                continue  # root edge must open the tree part
            if (reach[v] >> owner) & 1:
                continue  # would close a cycle
            new_ret_demand = ret_demand - 1 if is_ret else ret_demand
            remaining_tree_slots = tree_slots_after[idx + 1]
            if new_ret_demand > remaining_tree_slots:
                continue
            steps += 1
            if steps > budget:
                raise BudgetExceeded(
                    f"enumerate_tc(d={d}, n={n}, k={k}) exceeded {budget} steps"
                )
            # apply
            indeg[v] += 1
            chosen[idx] = v
            old_ret_demand = ret_demand
            ret_demand = new_ret_demand
            saved = reach[:]
            rv = reach[v]
            for x in range(num):
                if (reach[x] >> owner) & 1:
                    reach[x] |= rv
            assign(idx + 1)
            reach[:] = saved
            ret_demand = old_ret_demand
            chosen[idx] = -1
            indeg[v] -= 1

    if num == 2:  # single leaf under the root
        emit(
            PhyloNetwork(
                d=d,
                roles=(ROOT, LEAF),
                edges=((0, 1),),
                leaf_labels=((1, 1),),
            )
        )
        return
    assign(0)


def enumerate_tc(
    d: int, n: int, k: int, budget: int = DEFAULT_NETWORK_BUDGET
) -> list[PhyloNetwork]:
    """All tree-child networks with n leaves and k reticulations."""
    _check_params(d, n, k)
    found: dict[bytes, PhyloNetwork] = {}

    def emit(net: PhyloNetwork) -> None:
        key = canonical_key(net)
        if key not in found:
            found[key] = net

    _tc_search(d, n, k, budget, emit)
    return [found[key] for key in sorted(found)]


def count_tc_networks(
    d: int, n: int, k: int, budget: int = DEFAULT_NETWORK_BUDGET
) -> int:
    """|enumerate_tc| keeping only canonical keys."""
    _check_params(d, n, k)
    keys: set[bytes] = set()
    _tc_search(d, n, k, budget, lambda net: keys.add(canonical_key(net)))
    return len(keys)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def to_json(net: PhyloNetwork) -> bytes:
    """Deterministic JSON; nodes renumbered canonically first."""
    cf = canonical_form(net)
    payload = {
        "d": cf.d,
        "n": cf.n,
        "k": cf.k,
        "nodes": [{"id": i, "role": r} for i, r in enumerate(cf.roles)],
        "edges": [[u, v] for u, v in sorted(cf.edges)],
        "leaf_labels": {str(node): lab for node, lab in cf.leaf_labels},
    }
    return json.dumps(payload).encode()


def from_json(data: bytes | str) -> PhyloNetwork:
    payload = json.loads(data)
    roles = [None] * len(payload["nodes"])
    for entry in payload["nodes"]:
        roles[entry["id"]] = entry["role"]
    return PhyloNetwork(
        d=payload["d"],
        roles=tuple(roles),
        edges=tuple((u, v) for u, v in payload["edges"]),
        leaf_labels=tuple(
            sorted((int(node), lab) for node, lab in payload["leaf_labels"].items())
        ),
    )


_DOT_SHAPE = {ROOT: "diamond", TREE: "circle", RET: "box", LEAF: "plaintext"}


def to_dot(net: PhyloNetwork, name: str = "network") -> bytes:
    """Deterministic DOT export with role-based node shapes."""
    cf = canonical_form(net)
    labels = cf.labels
    lines = [f"digraph {name} {{"]
    for i, role in enumerate(cf.roles):
        if role == LEAF:
            lines.append(
                f'  n{i} [shape={_DOT_SHAPE[role]}, label="{labels[i]}"];'
            )
        else:
            lines.append(f'  n{i} [shape={_DOT_SHAPE[role]}, label=""];')
    for u, v in sorted(cf.edges):
        lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def export(net: PhyloNetwork, format: str) -> bytes:
    if format == "json":
        return to_json(net)
    if format == "dot":
        return to_dot(net)
    raise ValueError(f"unknown export format {format!r}")
