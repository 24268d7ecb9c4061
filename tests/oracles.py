"""Independent oracles the tests compare against.

Everything here deliberately avoids the package's own algorithms: counting
by raw permutations or unpruned DFS, isomorphism and connectivity through
networkx, subgraph matching by generic backtracking, and a triangulation
generator driven by diagonal flips instead of vertex splitting.  The
exceptions are slow routes a fast path must reproduce exactly:
``split_dedupe_levels``, the generate-then-dedupe route that builds every
split child, ``split_edge_wins_built`` and ``split_codes_built``, the
split decision taken on each child's rotation system instead of from its
parent, ``filtered_level_codes``, the full level filtered,
``square_regions_loop``, the region loop that builds every candidate,
``full_traversal_canonical_code``, every traversal run to the end,
``traversal_relabel``, the canonical numbering taken from such a traversal
instead of read off the code, ``scan_face_index``, the scan over every
face, ``eager_tables``, the tables ``PlaneGraph`` built at construction
before it built them on first read, ``adjacency_sets`` and
``neighbour_answers``, each vertex's neighbours and the neighbour queries
read off the rotation, and the earlier copies of searches now folded into one:
``reference_tutte_path`` and ``reference_tutte_path_two_edges``,
``region_paths_loop``, ``two_edge_family_loop`` and
``reference_special_set`` / ``reference_special_set_mindeg5``, the
Hamiltonian backtracker before its bitmask kernel: ``reference_prepare``
and ``ReferenceSearch``, Theorem 2's cycle tree before its cycles
became edge bitmasks: ``reference_theorem2_tree``, and the two-path
lemmas on rebuilt restrictions: ``reference_two_ham_paths_uw`` /
``_uv`` and ``restriction_faces_rebuilt``, and the closures and
contractions that built a closure to learn a side of a cycle:
``reference_closure``, ``reference_closure_containing`` and
``reference_contract_interior``, and the graph edits as they were when
they rebuilt their result from its faces: ``contract_interior_rebuilt``,
``contract_edge_rebuilt``, ``add_edge_in_face_rebuilt`` and
``flip_edge_rebuilt``, and the triangle-edge cycle search and the
Hamiltonicity checks before they ran on neighbour masks:
``reference_ham_cycle_through_triangle_edges``, one constrained
enumeration per (e1, e2) pair with every check per triple, and
``reference_is_ham_cycle`` / ``reference_is_ham_path_of``, on edge and
vertex sets.  ``mirror`` and ``outer_rooted_code`` are small helpers only
the tests use.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import networkx as nx

from hamforge.errors import (
    BadOrder,
    DisconnectedInterior,
    EmptyInterior,
    HypothesisViolated,
    MultiEdge,
    NotACycle,
    NotContractible,
    SearchExhausted,
    SearchTimeout,
)
from hamforge.ham_enum import enumerate_ham_cycles_raw, search_budget
from hamforge.plane_graph import (
    Cycle,
    NearTriangulation,
    PlaneGraph,
    _blocks_and_cuts,
    _connected_after_removal,
    block_chain,
    build,
    canonical_code,
    canonical_cycle,
    disc_faces,
    edge_key,
    mask_bits,
    path_edges,
    plane_graph_from_faces,
    vertex_mask,
)
from hamforge.tutte import (
    OuterPlanarWitness,
    PathPair,
    PathWitness,
    _is_path_between,
    _require_square_region,
    clockwise_order_ok,
    tutte_path,
    tutte_path_two_edges,
)


def mirror(g: PlaneGraph) -> PlaneGraph:
    """The reflected embedding (all rotations reversed)."""
    return PlaneGraph([tuple(reversed(r)) for r in g.rotation],
                      require_connected=False)


def outer_rooted_code(g: PlaneGraph) -> tuple[int, ...]:
    """Canonical form that additionally fixes the designated outer face."""
    f = g.outer_face
    k = len(f)
    roots = [(f[i], f[(i + 1) % k]) for i in range(k)]
    roots += [(f[(i + 1) % k], f[i]) for i in range(k)]
    return canonical_code(g, roots=roots)


def adjacency_sets(g: PlaneGraph) -> tuple[frozenset[int], ...]:
    """Each vertex's neighbour set, read off its rotation."""
    return tuple(frozenset(nbrs) for nbrs in g.rotation)


def to_nx(g: PlaneGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edge_set)
    return G


def naive_count_ham_cycles(g: PlaneGraph, required=(), forbidden=()) -> int:
    """Unpruned DFS over all directed cycles through vertex 0, halved by a
    fixed orientation; no degree reasoning at all."""
    required = {edge_key(*e) for e in required}
    forbidden = {edge_key(*e) for e in forbidden}
    n = g.n
    adj = adjacency_sets(g)
    count = 0

    def extend(path, onpath):
        nonlocal count
        v = path[-1]
        if len(path) == n:
            if 0 in adj[v] and path[1] < path[-1]:
                edges = {edge_key(path[i], path[(i + 1) % n]) for i in range(n)}
                if required <= edges and not (forbidden & edges):
                    count += 1
            return
        for w in adj[v]:
            if w not in onpath:
                path.append(w)
                onpath.add(w)
                extend(path, onpath)
                path.pop()
                onpath.remove(w)

    extend([0], {0})
    return count


def permutation_count_ham_cycles(g: PlaneGraph) -> int:
    """Brute force over vertex permutations; only viable for n <= 8."""
    n = g.n
    count = 0
    for perm in itertools.permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue
        seq = (0,) + perm
        if all(g.has_edge(seq[i], seq[(i + 1) % n]) for i in range(n)):
            count += 1
    return count


def naive_count_ham_paths(g: PlaneGraph, a: int, b: int) -> int:
    n = g.n
    adj = adjacency_sets(g)
    count = 0

    def extend(path, onpath):
        nonlocal count
        v = path[-1]
        if len(path) == n:
            count += v == b
            return
        for w in adj[v]:
            if w not in onpath:
                path.append(w)
                onpath.add(w)
                extend(path, onpath)
                path.pop()
                onpath.remove(w)

    extend([a], {a})
    return count


def nx_connectivity(g: PlaneGraph) -> int:
    return nx.node_connectivity(to_nx(g))


def nx_isomorphic(g1: PlaneGraph, g2: PlaneGraph) -> bool:
    return nx.is_isomorphic(to_nx(g1), to_nx(g2))


def nx_outerplanar(g: PlaneGraph, keep) -> bool:
    """Outerplanarity via the apex trick: G + universal vertex is planar."""
    G = nx.Graph()
    keep = sorted(keep)
    G.add_nodes_from(keep)
    G.add_edges_from((u, v) for u, v in g.edge_set if u in keep and v in keep)
    apex = max(keep) + 1
    for v in keep:
        G.add_edge(apex, v)
    ok, _emb = nx.check_planarity(G)
    return ok


def match_pattern(g: PlaneGraph, pattern_edges, pattern_vertices):
    """All subgraph embeddings of a small pattern, as frozen edge sets,
    by plain backtracking over role assignments."""
    roles = sorted(pattern_vertices)
    adj_pat = {r: set() for r in roles}
    for a, b in pattern_edges:
        adj_pat[a].add(b)
        adj_pat[b].add(a)
    found = set()

    def extend(assignment):
        if len(assignment) == len(roles):
            found.add(frozenset(
                edge_key(assignment[a], assignment[b]) for a, b in pattern_edges))
            return
        role = roles[len(assignment)]
        used = set(assignment.values())
        for cand in range(g.n):
            if cand in used:
                continue
            ok = True
            for other in adj_pat[role]:
                if other in assignment and not g.has_edge(cand, assignment[other]):
                    ok = False
                    break
            if ok:
                assignment[role] = cand
                extend(assignment)
                del assignment[role]

    extend({})
    return found


def stacked_triangulation(n: int) -> PlaneGraph:
    """Repeatedly stack a degree-3 vertex into the first face: an
    independent seed for the flip search."""
    from hamforge.plane_graph import plane_graph_from_faces

    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    for new in range(4, n):
        a, b, c = faces.pop(0)
        faces += [(a, b, new), (b, c, new), (c, a, new)]
    return plane_graph_from_faces(faces)


def flip_bfs_triangulations(n: int) -> list[PlaneGraph]:
    """All triangulations on n vertices by diagonal-flip BFS from a stacked
    seed, deduplicated with networkx isomorphism: independent of the
    vertex-splitting generator."""
    from hamforge.corpus import flip_edge, flippable_edges

    seed = stacked_triangulation(n)
    reps: dict[tuple, list[PlaneGraph]] = {}

    def signature(g):
        return tuple(sorted(g.degrees))

    def known(g):
        bucket = reps.setdefault(signature(g), [])
        for h in bucket:
            if nx_isomorphic(g, h):
                return True
        bucket.append(g)
        return False

    queue = [seed]
    known(seed)
    out = [seed]
    while queue:
        g = queue.pop()
        for u, v in flippable_edges(g):
            h = flip_edge(g, u, v)
            if not known(h):
                out.append(h)
                queue.append(h)
    return out


def all_splits(g: PlaneGraph, k: int = 3):
    """Every split (v, i, j) of g that leaves both ends at least k
    neighbors: (i, j) from ``corpus._vertex_splits`` of each vertex."""
    from hamforge.corpus import _vertex_splits

    for v in range(g.n):
        for i, j in _vertex_splits(g.degrees[v], k):
            yield v, i, j


def split_dedupe_levels(n_max: int) -> dict[int, list[PlaneGraph]]:
    """All triangulations on 4..n_max vertices by generate-then-dedupe: every
    vertex split of every parent is built by ``split_vertex`` and keyed by
    ``canonical_code``; the first child with a new key is kept and each level
    is sorted by key.  The slow route the exhaustive generator's rotation
    edit replaces."""
    from hamforge.corpus import k4, split_vertex
    from hamforge.plane_graph import canonical_code

    levels = {4: [k4()]}
    for n in range(5, n_max + 1):
        out = {}
        for parent in levels[n - 1]:
            for v, i, j in all_splits(parent):
                child = split_vertex(parent, v, i, j)
                out.setdefault(canonical_code(child), child)
        levels[n] = [out[k] for k in sorted(out)]
    return levels


def contraction_rank(g, x: int, y: int):
    """The rank of edge xy of a triangulation with n >= 5 among the
    contractible edges, those whose ends have exactly two common neighbors
    a and b, as a tuple: (deg x + deg y, -|deg x - deg y|, deg a + deg b).
    None when xy is not contractible."""
    common = set(g.rotation[x]).intersection(g.rotation[y])
    if len(common) != 2:
        return None
    degs = g.degrees
    a, b = common
    return degs[x] + degs[y], -abs(degs[x] - degs[y]), degs[a] + degs[b]


def contraction_separates_by_sets(g, x: int, y: int) -> bool:
    """Whether some neighbor of x only is adjacent to some neighbor of y
    only, from neighbor sets read off the rotation."""
    rotation = g.rotation
    only_x = set(rotation[x]).difference(rotation[y], (y,))
    only_y = set(rotation[y]).difference(rotation[x], (x,))
    return any(not only_y.isdisjoint(rotation[p]) for p in only_x)


def split_edge_wins_built(parent: PlaneGraph, v: int, i: int, j: int,
                          k: int = 3) -> bool:
    """Whether no k-contractible edge (k = 3: contractible) of the split
    child outranks its split edge (v, new) by ``contraction_rank``, found
    by building the child's rotation system (``corpus._split_rotation``)
    and scanning its edges: the decision ``corpus._winning_splits`` makes from
    the parent.  Edges whose degree sum is below the split edge's cannot
    outrank it, and are skipped."""
    from hamforge.corpus import _split_rotation

    child = _split_rotation(parent, v, i, j)
    rotation, degs = child.rotation, child.degrees
    best = contraction_rank(child, v, child.n - 1)
    for x, around in enumerate(rotation):
        reach = best[0] - degs[x]
        for y in around:
            if y > x and degs[y] >= reach:
                rank = contraction_rank(child, x, y)
                if (rank is not None and rank > best and (
                        k == 3 or not contraction_separates_by_sets(child, x, y))):
                    return False
    return True


def split_codes_built(parents, k: int) -> set:
    """The canonical codes of the split children of ``parents`` that
    ``split_edge_wins_built`` keeps: the level step before its splits were
    decided from the parent."""
    from hamforge.corpus import _split_rotation
    from hamforge.plane_graph import canonical_code

    return {canonical_code(_split_rotation(parent, v, i, j))
            for parent in parents for v, i, j in all_splits(parent, k)
            if split_edge_wins_built(parent, v, i, j, k)}


def scan_face_index(g: PlaneGraph, vertices):
    """Lowest index of a face equal to the cyclic sequence ``vertices`` up to
    rotation and reflection, or None: the scan over every face that
    ``PlaneGraph.face_index`` replaces."""
    want = canonical_cycle(vertices)
    for i, f in enumerate(g.faces):
        if canonical_cycle(f) == want:
            return i
    return None


def eager_tables(g: PlaneGraph) -> dict:
    """``faces``, ``edge_set``, ``nbr_masks`` and ``_face_at`` of g by the
    formulas ``PlaneGraph.__init__`` ran on every graph before its
    tables were built on first read (the masks by ``ham_enum._prepare``'s
    loop, over each rotation), each face traced through the position table."""
    n, rotation = g.n, g.rotation
    edge_set = frozenset(edge_key(v, w) for v in range(n) for w in rotation[v])
    pos = tuple({w: i for i, w in enumerate(nbrs)} for nbrs in rotation)
    faces = []
    face_at = {}
    for u0 in range(n):
        for v0 in rotation[u0]:
            if (u0, v0) in face_at:
                continue
            walk = []
            u, v = u0, v0
            while (u, v) not in face_at:
                face_at[(u, v)] = len(faces)
                walk.append(v)
                nbrs = rotation[v]
                u, v = v, nbrs[(pos[v][u] + 1) % len(nbrs)]
            faces.append(tuple(walk))
    masks = []
    for nbrs in rotation:
        m = 0
        for w in nbrs:
            m |= 1 << w
        masks.append(m)
    return {"faces": tuple(faces), "edge_set": edge_set, "nbr_masks": tuple(masks),
            "_face_at": face_at}


def neighbour_answers(g: PlaneGraph) -> dict:
    """What ``PlaneGraph``'s neighbour queries must answer, from the rotation
    alone: each vertex's degree and ascending neighbour list, whether each
    ordered pair is an edge, each ordered pair's common neighbours, and the
    3-cycles as ascending triples in ascending order."""
    n, adj = g.n, adjacency_sets(g)
    return {
        "degrees": tuple(len(nbrs) for nbrs in g.rotation),
        "neighbours": [sorted(a) for a in adj],
        "has_edge": [[v in adj[u] for v in range(n)] for u in range(n)],
        "common": [[adj[u] & adj[v] for v in range(n)] for u in range(n)],
        "triangles": [(u, v, w) for u, v, w in itertools.combinations(range(n), 3)
                      if v in adj[u] and w in adj[u] and w in adj[v]],
    }


def filtered_level_codes(n: int, flt) -> list[tuple[int, ...]]:
    """The sorted canonical codes of the triangulations on n >= 5 vertices
    that ``flt`` keeps, by building every distinct split child of the full
    level n - 1 and filtering it: the route the 4-connected level replaces,
    without holding level n."""
    from hamforge.corpus import _split_rotation, _triangulation_level, split_vertex
    from hamforge.plane_graph import canonical_code

    seen, keep = set(), []
    for parent in _triangulation_level(n - 1):
        for v, i, j in all_splits(parent):
            key = canonical_code(_split_rotation(parent, v, i, j))
            if key not in seen:
                seen.add(key)
                if flt.matches(split_vertex(parent, v, i, j)):
                    keep.append(key)
    return sorted(keep)


def square_regions_loop(n_max: int):
    """Every degree-4 vertex link of every triangulation on 5..n_max+1
    vertices, built as a region and kept when its ``outer_rooted_code`` is
    new: the loop the cached region levels replace."""
    from hamforge.corpus import enumerate_triangulations
    from hamforge.errors import HamforgeError
    from hamforge.plane_graph import Cycle, NearTriangulation

    seen = set()
    for n in range(5, n_max + 2):
        for g in enumerate_triangulations(n):
            for v in range(g.n):
                if g.degrees[v] != 4:
                    continue
                sub, origin = g.delete_vertices({v})
                fwd = {old: new for new, old in enumerate(origin)}
                oc = Cycle(tuple(fwd[w] for w in g.rotation[v]))
                try:
                    nt = NearTriangulation(sub, oc)
                except HamforgeError:
                    continue
                key = outer_rooted_code(nt.graph)
                if key in seen:
                    continue
                seen.add(key)
                yield nt


def _full_traversals(g: PlaneGraph, roots=None):
    """(code, label, entry, direction) of every BFS traversal from a root of
    minimum (deg u, deg v) in both directions, each run to the end.  The
    code lists the turn of every queued vertex; v gets label 2 before the
    traversal, is never queued, and counts as entered from u."""
    degs = g.degrees
    if roots is None:
        roots = [(u, v) for u in range(g.n) for v in g.rotation[u]]
    best_key = min((degs[u], degs[v]) for u, v in roots)
    for u, v in roots:
        if (degs[u], degs[v]) != best_key:
            continue
        for direction in (1, -1):
            label = [0] * g.n
            label[u], label[v] = 1, 2
            order, entry, code = [u], {u: v, v: u}, []
            qi = 0
            while qi < len(order):
                w = order[qi]
                qi += 1
                rot = g.rotation[w]
                d = len(rot)
                start = rot.index(entry[w])
                for i in range(d):
                    nb = rot[(start + direction * i) % d]
                    if label[nb] == 0:
                        label[nb] = max(label) + 1
                        order.append(nb)
                        entry[nb] = w
                    code.append(label[nb])
                code.append(0)
            yield tuple(code), label, entry, direction


def full_traversal_canonical_code(g: PlaneGraph, roots=None) -> tuple[int, ...]:
    """The minimum BFS code over every root of minimum (deg u, deg v) in
    both directions, each traversal run to the end: the route
    ``canonical_code`` cuts short."""
    if g.n == 1:
        return (0,)
    return min(code for code, _label, _entry, _dir in _full_traversals(g, roots))


def traversal_relabel(g: PlaneGraph) -> PlaneGraph:
    """g renumbered by a traversal with the minimum code: vertex label - 1,
    each rotation turned that traversal's way from the neighbor it entered
    by.  The relabel the exhaustive generator reads off the code instead."""
    _code, label, entry, direction = min(_full_traversals(g),
                                         key=lambda t: t[0])
    rotation = [None] * g.n
    for w in range(g.n):
        rot = g.rotation[w]
        d = len(rot)
        start = rot.index(entry[w])
        rotation[label[w] - 1] = tuple(
            label[rot[(start + direction * i) % d]] - 1 for i in range(d))
    return build(rotation)


# ---------------------------------------------------------------------------
# the separate implementations the shared searches replace
# ---------------------------------------------------------------------------

def reference_tutte_path(g, c, x, y, e, hamiltonian=False):
    """``tutte_path`` on a bare graph as its own search: a Hamiltonian x-y
    path through e, else the lexicographically first C-Tutte path."""
    from hamforge.errors import HypothesisViolated, SearchExhausted
    from hamforge.ham_enum import enumerate_ham_paths
    from hamforge.plane_graph import path_edges
    from hamforge.tutte import TuttePathCert, _check_tutte, _simple_paths_lex, verify_tutte

    c.validate(g)
    if x not in c.vertices:
        raise HypothesisViolated("x_on_outer_cycle")
    e = edge_key(*e)
    if e not in c.edges():
        raise HypothesisViolated("e_on_outer_cycle")
    for p in enumerate_ham_paths(g, x, y, required_edges=[e], cap=1):
        return verify_tutte(g, p, c)
    if hamiltonian:
        raise SearchExhausted(
            f"no Hamiltonian {x}-{y} path through {e} (n={g.n})")
    for p in _simple_paths_lex(g, x, y):
        if e not in path_edges(p):
            continue
        if _check_tutte(g, p, c.edges()) is None:
            return TuttePathCert(path=p, constraint_edges=c.edges(),
                                 is_hamiltonian=len(p) == g.n)
    raise SearchExhausted(f"no {x}-{y} C-Tutte path through {e} (n={g.n})")


def reference_tutte_path_two_edges(g, c, u, v, e, f, hamiltonian=False):
    """``tutte_path_two_edges`` on a bare graph as its own search: the same
    two stages through both e and f, Tutte for the clockwise u-v subpath."""
    from hamforge.errors import BadOrder, HypothesisViolated, SearchExhausted
    from hamforge.ham_enum import enumerate_ham_paths
    from hamforge.plane_graph import path_edges
    from hamforge.tutte import (
        TuttePathCert,
        _check_tutte,
        _simple_paths_lex,
        clockwise_order_ok,
        verify_tutte,
    )

    c.validate(g)
    e, f = edge_key(*e), edge_key(*f)
    if e not in c.edges() or f not in c.edges():
        raise HypothesisViolated("edges_on_outer_cycle")
    if not clockwise_order_ok(c, u, e, f, v):
        raise BadOrder(f"{u}, {e}, {f}, {v} not in clockwise order on {c.vertices}")
    constraint = c.subpath(u, v)
    for p in enumerate_ham_paths(g, u, v, required_edges=[e, f], cap=1):
        return verify_tutte(g, p, constraint)
    if hamiltonian:
        raise SearchExhausted(
            f"no Hamiltonian {u}-{v} path through {e} and {f} (n={g.n})")
    for p in _simple_paths_lex(g, u, v):
        pe = path_edges(p)
        if e not in pe or f not in pe:
            continue
        if _check_tutte(g, p, path_edges(constraint)) is None:
            return TuttePathCert(path=p, constraint_edges=path_edges(constraint),
                                 is_hamiltonian=len(p) == g.n)
    raise SearchExhausted(f"no {u}-{v} uCv-Tutte path through {e}, {f} (n={g.n})")


def region_paths_loop(g, drop, a, b, cap=None, budget=None):
    """Hamiltonian a-b paths of g minus ``drop`` in g's ids, None when that
    is disconnected: the delete-relabel-enumerate-lift loop, inline."""
    from hamforge.ham_enum import enumerate_ham_paths

    region, origin = g.delete_vertices(set(drop))
    if not region.connected:
        return None
    rf = {origin[i]: i for i in range(region.n)}
    return [tuple(origin[z] for z in p)
            for p in enumerate_ham_paths(region, rf[a], rf[b], cap=cap,
                                         budget=budget)]


def two_edge_family_loop(g, cert, e, f, cap=10 ** 6):
    """The edge-family branch of ``lemma_2edge_family`` as its own loop: per
    family F, the first Hamiltonian b-c path of G - F through e = ab and not
    f = bc, closed by f.  Returns (family size, log entry)."""
    from hamforge.errors import FourConnectivityLost, SearchExhausted, StructureViolation
    from hamforge.ham_enum import HamFamily, enumerate_ham_paths
    from hamforge.indset import edge_families, guaranteed_family_floor
    from hamforge.plane_graph import is_k_connected, path_edges

    e, f = edge_key(*e), edge_key(*f)
    b = (set(e) & set(f)).pop()
    c = (set(f) - {b}).pop()
    fam = HamFamily(g)
    count = 0
    for family in edge_families(g, cert):
        if count >= cap:
            break
        count += 1
        reduced = g.delete_edges(family.edges)
        if not is_k_connected(reduced, 4):
            raise FourConnectivityLost(family.edges)
        found = enumerate_ham_paths(reduced.delete_edges([f]), b, c,
                                    required_edges=[e], cap=1)
        if not found:
            raise SearchExhausted(f"no Hamiltonian {b}-{c} path through {e} in G-F")
        fam.add(path_edges(found[0]) | {f}, "edge_family")
    floor = guaranteed_family_floor(len(cert))
    if count and len(fam) < floor:
        raise StructureViolation(
            f"family of {len(fam)} below the (3/2)^{len(cert)} floor")
    return len(fam), {"branch": "edge_families", "set_size": len(cert),
                      "families": count, "distinct": len(fam), "floor": floor}


# ---------------------------------------------------------------------------
# the two-path lemmas on rebuilt restrictions
# ---------------------------------------------------------------------------

def restriction_faces_rebuilt(g, drop):
    """The faces of g minus ``drop`` as ``restriction_faces`` reports them,
    from the rebuilt restriction: its faces in g's ids, each with whether
    ``g.face_index`` finds no face of g on that cycle."""
    sub, origin = g.delete_vertices(set(drop))
    out = []
    for f in sub.faces:
        walk = tuple(origin[z] for z in f)
        out.append((walk, g.face_index(walk) is None))
    return out

def reference_two_ham_paths_uw(r, budget=None):
    """``two_ham_paths_uw`` as it was when every block was built as its own
    graph (``delete_vertices``) and searched there.

    Dichotomy for an outer 4-cycle u v w x (G != C+vx, no separating
    triangles): two Hamiltonian u-w paths of G - {v, x}, or a witness that
    G - {v, x} is a bare path.

    Construction: block chain of G - {v, x}; in the first block with >= 3
    vertices take Tutte paths through each of the two outer-cycle edges at
    its entry cut vertex; elsewhere one Hamiltonian path per block.  A
    block's outer cycle is its one face through entry and exit that is not
    a face of the region (with no separating triangles, the face holding v,
    x and the other blocks).
    """
    u, v, w, x = _require_square_region(r)
    g = r.graph
    if g.has_edge(v, x):
        raise HypothesisViolated("not_c_plus_vx" if g.n == 4 else
                                 "no_separating_triangles", "chord vx present")
    budget = search_budget(budget)

    keep = [z for z in range(g.n) if z not in (v, x)]
    witness = _is_path_between(g, set(keep), u, w)
    if witness is not None:
        return PathWitness(witness)

    chain = block_chain(g, u, w, exclude={v, x})
    s = next(i for i, bvs in enumerate(chain.blocks) if len(bvs) >= 3)
    pieces_before = []
    pieces_after = []
    big_first = None
    big_second = None
    for i, bvs in enumerate(chain.blocks):
        a_i, b_i = chain.endpoints[i], chain.endpoints[i + 1]
        if len(bvs) == 2:
            seg = [(a_i, b_i)]
            segs = (seg, seg)
        else:
            bg, borigin = g.delete_vertices(set(range(g.n)) - set(bvs))
            entry = borigin.index(a_i)
            exit_ = borigin.index(b_i)
            cands = [f for f in _faces_not_in_host(g, bg, borigin)
                     if entry in f and exit_ in f]
            if len(cands) != 1:
                raise SearchExhausted(
                    f"block outer face not unique: {len(cands)} candidates")
            c_i = Cycle(cands[0])
            at_entry = [e for e in c_i.edges() if entry in e]
            if i == s:
                certs = [tutte_path(bg, c_i, entry, exit_, e, hamiltonian=True,
                                    budget=budget) for e in sorted(at_entry)[:2]]
                segs = tuple(
                    [ (borigin[p], borigin[q]) for p, q in zip(cert.path, cert.path[1:]) ]
                    for cert in certs)
            else:
                cert = tutte_path(bg, c_i, entry, exit_, sorted(at_entry)[0],
                                  hamiltonian=True, budget=budget)
                seg = [(borigin[p], borigin[q]) for p, q in zip(cert.path, cert.path[1:])]
                segs = (seg, seg)
        if i < s:
            pieces_before.append(segs[0])
        elif i == s:
            big_first, big_second = segs
        else:
            pieces_after.append(segs[0])

    def assemble(mid):
        seq = [u]
        for seg in pieces_before + [mid] + pieces_after:
            for p, q in seg:
                seq.append(q)
        return tuple(seq)

    p1, p2 = assemble(big_first), assemble(big_second)
    for p in (p1, p2):
        if not reference_is_ham_path_of(g, p, u, w, exclude={v, x}):
            raise SearchExhausted(f"assembled path is not Hamiltonian: {p}")
    return PathPair(graph_n=g.n, a=u, b=w, first=p1, second=p2)


def _outer_planar_witness(g, keep):
    """A face of the restriction whose walk visits every kept vertex."""
    sub, origin = g.delete_vertices(set(range(g.n)) - set(keep))
    for f in sub.faces:
        if set(f) == set(range(sub.n)):
            return OuterPlanarWitness(tuple(origin[z] for z in f))
    return None


def reference_two_ham_paths_uv(r, budget=None):
    """``two_ham_paths_uv`` as it was when every peel level built its graph
    and a ``NearTriangulation`` on it, the 2-connected branch its restriction,
    and every level its own outer-planar witness by tracing all faces.

    Dichotomy for an outer 4-cycle u v w x (no separating triangles):
    a witness that G - {w, x} is an outer planar near triangulation, or two
    Hamiltonian u-v paths of it.

    Recursive construction: peel an end of the u-v edge with a unique
    interior neighbor; otherwise the 2-connected branch combines a
    Thomassen path with a Thomas-Yu two-edge path.
    """
    u, v, w, x = _require_square_region(r)
    g = r.graph
    budget = search_budget(budget)

    if g.n == 4:
        return OuterPlanarWitness((u, v))

    if g.has_edge(u, w) or g.has_edge(v, x):
        raise HypothesisViolated("no_separating_triangles", "outer chord present")

    keep = set(range(g.n)) - {w, x}
    square = vertex_mask((u, v, w, x))

    def interior_nbrs(z):
        return mask_bits(g.nbr_masks[z] & ~square)

    iu, iv = interior_nbrs(u), interior_nbrs(v)
    if len(iu) == 1 or len(iv) == 1:
        if len(iu) == 1:
            peel, anchor, new_outer = u, iu[0], None
        else:
            peel, anchor, new_outer = v, iv[0], None
        sub, origin = g.delete_vertices({peel})
        fwd = {old: new for new, old in enumerate(origin)}
        if peel == u:
            oc = Cycle((fwd[anchor], fwd[v], fwd[w], fwd[x]))
        else:
            oc = Cycle((fwd[u], fwd[anchor], fwd[w], fwd[x]))
        sub_nt = NearTriangulation(sub, oc, origin=origin)
        res = reference_two_ham_paths_uv(sub_nt, budget=budget)
        if isinstance(res, OuterPlanarWitness):
            wit = _outer_planar_witness(g, keep)
            if wit is None:
                raise SearchExhausted("peel recursion claimed outer planarity "
                                      "but no covering face exists")
            return wit
        first = tuple(origin[z] for z in res.first)
        second = tuple(origin[z] for z in res.second)
        if peel == u:
            first, second = (u,) + first, (u,) + second
        else:
            first, second = first + (v,), second + (v,)
        for p in (first, second):
            if not reference_is_ham_path_of(g, p, u, v, exclude={w, x}):
                raise SearchExhausted(f"peel-extended path invalid: {p}")
        return PathPair(graph_n=g.n, a=u, b=v, first=first, second=second)

    # both u and v have >= 2 interior neighbors: one of the two apex
    # deletions is 2-connected
    for apex, other in ((u, v), (v, u)):
        drop = {w, x, apex}
        if (g.n - len(drop) < 3 or not _connected_after_removal(g, vertex_mask(drop))
                or _blocks_and_cuts(g, vertex_mask(drop))[1]):
            continue
        sub, origin = g.delete_vertices(drop)
        fwd = {old: new for new, old in enumerate(origin)}
        # the face merging the deleted vertices' faces is the outer cycle
        cands = _faces_not_in_host(g, sub, origin)
        if len(cands) != 1 or len(set(cands[0])) != len(cands[0]):
            continue
        d = Cycle(cands[0])
        res = _reference_uv_two_connected_case(g, sub, origin, fwd, d, apex, other,
                                     u, v, w, x, budget)
        if res is not None:
            return res
    raise SearchExhausted("two_ham_paths_uv: no branch applied "
                          f"(outer {u},{v},{w},{x}, n={g.n})")


def _faces_not_in_host(host, sub, origin) -> list:
    """The faces of ``sub``, a restriction of ``host`` whose vertex i is
    host vertex ``origin[i]``, that are not faces of the host."""
    return [f for f in sub.faces
            if host.face_index([origin[z] for z in f]) is None]


def _reference_uv_two_connected_case(g, sub, origin, fwd, d, apex, other, u, v, w, x, budget):
    """The Thomassen + Thomas-Yu construction for the 2-connected branch.

    With apex = u: a1 is u's unique interior neighbor adjacent to x, a2 the
    one adjacent to v; P runs a1 -> v through an outer edge at the w,x
    common neighbor y; Q is a (v D a2)-Tutte path v -> a2 through that edge
    and one at a1.  Extending both through the apex gives the pair.  The
    apex = v case is the u<->v, x<->w mirror.
    """
    side_back, side_fwd = (x, v) if apex == u else (w, u)
    masks = g.nbr_masks
    inner_nbrs = mask_bits(masks[apex] & ~vertex_mask((u, v, w, x)))
    n1 = [z for z in inner_nbrs if g.has_edge(z, side_back)]
    n2 = [z for z in inner_nbrs if g.has_edge(z, side_fwd)]
    ys = mask_bits(masks[w] & masks[x] & ~vertex_mask((u, v)))
    if len(n1) != 1 or len(n2) != 1 or len(ys) != 1:
        return None
    a1, a2, y = n1[0], n2[0], ys[0]
    a1s, a2s, ys_, others = fwd[a1], fwd[a2], fwd[y], fwd[other]
    if a1s not in d.vertices or a2s not in d.vertices:
        return None

    e_opts = sorted(e for e in d.edges() if ys_ in e)
    f_opts = sorted(e for e in d.edges() if a1s in e)
    for e in e_opts:
        try:
            cert1 = tutte_path(sub, d, a1s, others, e, hamiltonian=True,
                               budget=budget)
        except SearchExhausted:
            continue
        for dd in (d, Cycle(tuple(reversed(d.vertices)))):
            for f in f_opts:
                if f == e or not clockwise_order_ok(dd, others, e, f, a2s):
                    continue
                try:
                    cert2 = tutte_path_two_edges(sub, dd, others, a2s, e, f,
                                                 hamiltonian=True, budget=budget)
                except (SearchExhausted, BadOrder):
                    continue
                p1 = tuple(origin[z] for z in cert1.path)        # a1 .. other
                q = tuple(origin[z] for z in cert2.path)         # other .. a2
                if apex == u:
                    first = (u,) + p1                            # u a1 .. v
                    second = (u,) + tuple(reversed(q))           # u a2 .. v
                else:
                    first = tuple(reversed(p1)) + (v,)           # u .. v1 v
                    second = q + (v,)                            # u .. v2 v
                if not reference_is_ham_path_of(g, first, u, v, exclude={w, x}):
                    continue
                if not reference_is_ham_path_of(g, second, u, v, exclude={w, x}):
                    continue
                if path_edges(first) == path_edges(second):
                    continue
                return PathPair(graph_n=g.n, a=u, b=v, first=first, second=second)
    return None


# ---------------------------------------------------------------------------
# closures and contractions, each side found by building a closure
# ---------------------------------------------------------------------------

def _reference_side_faces(g, c):
    """(faces reached from the outer face without crossing c, the rest), by
    breadth-first search over a face adjacency table."""
    ce = c.edges()
    adj_faces = {i: set() for i in range(len(g.faces))}
    face_at = g._face_at
    for (u, v), i in face_at.items():
        if edge_key(u, v) in ce:
            continue
        j = face_at[(v, u)]
        adj_faces[i].add(j)
        adj_faces[j].add(i)
    outside = {g.outer_face_index}
    queue = deque([g.outer_face_index])
    while queue:
        for j in adj_faces[queue.popleft()]:
            if j not in outside:
                outside.add(j)
                queue.append(j)
    inside = set(range(len(g.faces))) - outside
    if not inside:
        raise NotACycle(f"{c.vertices} does not separate the sphere into two sides")
    return outside, inside


def reference_closure(g, c) -> NearTriangulation:
    """The closure of c away from the outer face: the disc's vertices, the
    edges of c and the edges with both faces inside."""
    c.validate(g)
    _outside, inside = _reference_side_faces(g, c)
    vertices = set(c.vertices)
    for i in inside:
        vertices.update(g.faces[i])
    keep_edges = set(c.edges())
    face_at = g._face_at
    for u, v in g.edge_set:
        if face_at[(u, v)] in inside and face_at[(v, u)] in inside:
            keep_edges.add((u, v))
    keep_sorted = sorted(vertices)
    relabel = {old: new for new, old in enumerate(keep_sorted)}
    rotation = [tuple(relabel[w] for w in g.rotation[v]
                      if w in vertices and edge_key(v, w) in keep_edges)
                for v in keep_sorted]
    cyc = Cycle(tuple(relabel[v] for v in c.vertices))
    return NearTriangulation(PlaneGraph(rotation), cyc, origin=keep_sorted)


def _rooted_on_side_of(g, c, v):
    """g, or g re-rooted at a face inside c when v is not inside."""
    _outside, inside = _reference_side_faces(g, c)
    inside_vertices = set()
    for i in inside:
        inside_vertices.update(g.faces[i])
    if v in inside_vertices - set(c.vertices):
        return g
    return g.with_outer_face(next(iter(inside)))


def reference_closure_containing(g, c, v) -> NearTriangulation:
    c.validate(g)
    if v in c.vertices:
        raise ValueError(f"vertex {v} lies on the cycle")
    return reference_closure(_rooted_on_side_of(g, c, v), c)


def reference_contract_interior(g, c, v=None):
    """The interior of c (on the side holding v, if given) read off its
    closure and contracted to one new vertex: ``(graph, star, origin)``."""
    if v is not None:
        g = _rooted_on_side_of(g, c, v)
    cl = reference_closure(g, c)
    inner = {cl.to_origin(z) for z in range(cl.graph.n) if z not in cl.outer_cycle}
    if not inner:
        raise EmptyInterior(f"{c.vertices} bounds a face")
    if not nx.is_connected(to_nx(g).subgraph(inner)):
        raise DisconnectedInterior(f"interior of {c.vertices} is disconnected")
    attachments = [z for z in c.vertices if set(g.rotation[z]) & inner]
    if len(attachments) < 2:
        raise DisconnectedInterior("interior attaches to fewer than 2 cycle vertices")
    outside, _inside = _reference_side_faces(g, c)
    keep = [z for z in range(g.n) if z not in inner]
    relabel = {old: new for new, old in enumerate(keep)}
    star = len(keep)
    new_faces = [tuple(relabel[w] for w in g.faces[i]) for i in outside]
    k = len(c.vertices)
    starts = [i for i in range(k) if c.vertices[i] in attachments]
    for pos, i in enumerate(starts):
        j = starts[(pos + 1) % len(starts)]
        stretch = [c.vertices[i]]
        while i != j:
            i = (i + 1) % k
            stretch.append(c.vertices[i])
        new_faces.append(tuple([star] + [relabel[z] for z in stretch]))
    return plane_graph_from_faces(new_faces), star, keep + [None]


@dataclass
class FrozensetCycleTree:
    """``replay.CycleTree`` as it was when its leaves were edge frozensets."""

    levels: int
    branching: list[list[int]]
    leaves: list[frozenset]
    partial: bool
    log: list[dict] = field(default_factory=list)

    def leaf_count(self):
        return len(self.leaves)


def reference_theorem2_tree(g, chain, budget=None) -> FrozensetCycleTree:
    """``theorem2_tree`` before its cycles became edge bitmasks: every cycle
    a frozenset of labeled-edge tuples, each leaf certified here."""
    from hamforge.errors import ChainBroken
    from hamforge.ham_enum import first_ham_cycle

    cap = budget if budget is not None else 10 ** 6
    t = chain.t
    h1 = chain.h_ladders[0]
    base = first_ham_cycle(h1.graph)
    if base is None:
        raise ChainBroken(0, "outermost contraction has no Hamiltonian cycle")
    lab = h1.labels
    # one tuple per labeled edge, shared by every cycle that holds it
    pool = {}
    frontier = [_interned(pool, (_labeled_edge(lab[a], lab[b]) for a, b in base))]
    branching: list[list[int]] = []
    partial = False
    log = []
    for level in range(1, t + 1):
        ladder = chain.g_ladders[level - 1]
        cvs = set(chain.cycles[level - 1].vertices)
        z = ("z", level)
        nxt = []
        level_branching = []
        full = False
        for cyc in frontier:
            zedges = [e for e in cyc if z in e]
            if len(zedges) != 2:
                raise ChainBroken(level, "pocket vertex not on the cycle")
            a, b = sorted(q for e in zedges for q in e if q != z)
            rest = set(cyc) - set(zedges)
            paths = _ladder_paths(ladder, cvs, a, b, cap)
            if not paths:
                raise ChainBroken(level, f"no completion between {a} and {b}")
            level_branching.append(len(paths))
            for pathseq in paths:
                child = frozenset(rest | _interned(pool, _labeled_path_edges(pathseq)))
                nxt.append(child)
                if len(nxt) >= cap:
                    # truncate breadth only; every level still completes so
                    # leaf depth stays uniform
                    partial = True
                    full = True
                    break
            if full:
                break
        log.append({"level": level, "nodes": len(frontier),
                    "branching": level_branching})
        branching.append(level_branching)
        frontier = nxt

    leaves = []
    seen = set()
    # leaves hold the graph's own edge tuples
    own = {e: e for e in g.edge_set}
    for cyc in frontier:
        edges = _interned(own, (edge_key(a, b) for a, b in cyc))
        if not reference_is_ham_cycle(g, edges):
            raise ChainBroken(t, "leaf is not a Hamiltonian cycle")
        if edges not in seen:
            seen.add(edges)
            leaves.append(edges)
    tree = FrozensetCycleTree(levels=t, branching=branching, leaves=leaves,
                              partial=partial, log=log)
    tree.log.append({"leaves": len(leaves), "partial": partial})
    return tree


def _label_sort_key(lab):
    return (1, lab, 0) if isinstance(lab, tuple) else (0, (), lab)


def _interned(pool, edges) -> frozenset:
    """``edges`` as the equal tuples ``pool`` holds, adding those it lacks."""
    return frozenset(pool.setdefault(e, e) for e in edges)


def _labeled_edge(a, b):
    return (a, b) if _label_sort_key(a) <= _label_sort_key(b) else (b, a)


def _labeled_path_edges(seq):
    return [_labeled_edge(a, b) for a, b in zip(seq, seq[1:])]


def _ladder_paths(ladder, cycle_vertices, a, b, cap):
    """Hamiltonian a-b paths of the ladder minus the other two outer
    vertices, as label sequences, at most ``cap`` of them."""
    from hamforge.ham_enum import enumerate_ham_paths

    drop = [i for i, lab in enumerate(ladder.labels)
            if lab in cycle_vertices and lab not in (a, b)]
    paths = enumerate_ham_paths(ladder.graph, ladder.local(a), ladder.local(b),
                                cap=cap, exclude=drop)
    return [tuple(ladder.labels[z] for z in p) for p in paths]


def _reference_sat_pairs(g, length):
    """Non-adjacent pairs lying together on some cycle of ``length``."""
    from hamforge.structures import enumerate_cycles

    out = set()
    for c in enumerate_cycles(g, length):
        for u, v in itertools.combinations(sorted(c.vertices), 2):
            if not g.has_edge(u, v):
                out.add((u, v))
    return out


def _reference_flag_holds(g, s, flag):
    from hamforge.indset import FLAG_NO_SAT_4CYCLE, FLAG_NO_SAT_5CYCLE, flag_holds
    from hamforge.structures import enumerate_cycles

    s = set(s)
    if flag == FLAG_NO_SAT_4CYCLE:
        return all(len(s & set(c.vertices)) != 2 for c in enumerate_cycles(g, 4))
    if flag == FLAG_NO_SAT_5CYCLE:
        return all(len(s & set(c.vertices)) != 2 for c in enumerate_cycles(g, 5))
    return flag_holds(g, s, flag)


def _reference_filters(g, cert):
    """The 4-cycle, 5-cycle and diamond-6 saturation filters in turn."""
    from hamforge.indset import (
        FLAG_NO_SAT_4CYCLE,
        FLAG_NO_SAT_5CYCLE,
        _filter_diamond6,
    )
    from hamforge.structures import check_independent

    for length, flag in ((4, FLAG_NO_SAT_4CYCLE), (5, FLAG_NO_SAT_5CYCLE)):
        check_independent(g, cert.vertices)
        pairs = _reference_sat_pairs(g, length)
        kept = []
        for v in cert.vertices:
            if all(edge_key(u, v) not in pairs for u in kept):
                kept.append(v)
        ratio = f"{len(kept)}/{len(cert.vertices)}" if cert.vertices else "1/1"
        cert = cert.with_stage(kept, flag, f"greedy_no_sat_{length}cycle", ratio)
    check_independent(g, cert.vertices)
    return _filter_diamond6(g, cert)


def _reference_verify_cert(g, cert):
    from hamforge.errors import HypothesisViolated, SNotIndependent
    from hamforge.structures import check_independent

    check_independent(g, cert.vertices)
    if cert.vertices and max(g.degrees[v] for v in cert.vertices) > cert.max_degree:
        raise SNotIndependent("recorded max_degree is wrong")
    for flag in cert.flags:
        if not _reference_flag_holds(g, cert.vertices, flag):
            raise HypothesisViolated(flag, "claimed flag fails a fresh scan")


def reference_special_set(g, t=None):
    """``special_set`` with its own pipeline and the per-length pair scans."""
    import math

    from hamforge.indset import _strip_separating_4cycles, low_degree_independent_set
    from hamforge.structures import max_common_neighborhood_pair

    if t is None:
        t = math.floor(16 * math.log2(g.n))
    pair = max_common_neighborhood_pair(g)
    if pair is not None and pair.size() > t:
        return pair
    cert = _reference_filters(g, low_degree_independent_set(g))
    cert = _strip_separating_4cycles(g, cert)
    _reference_verify_cert(g, cert)
    return cert


def reference_special_set_mindeg5(g, t):
    """``special_set_mindeg5`` with its own pipeline."""
    from hamforge.errors import MinDegreeViolated
    from hamforge.indset import low_degree_independent_set
    from hamforge.structures import max_common_neighborhood_pair

    if g.min_degree() < 5:
        raise MinDegreeViolated(f"min degree {g.min_degree()} < 5")
    if t < 2:
        raise ValueError("t must be >= 2")
    pair = max_common_neighborhood_pair(g)
    if pair is not None and pair.size() > t:
        return pair
    cert = _reference_filters(g, low_degree_independent_set(g))
    _reference_verify_cert(g, cert)
    return cert


# ---------------------------------------------------------------------------
# the Hamiltonian backtracker the bitmask kernel replaces, kept verbatim
# ---------------------------------------------------------------------------

def reference_prepare(g: PlaneGraph, required_edges, exclude=frozenset()):
    req = frozenset(edge_key(*e) for e in required_edges)
    for e in req:
        if e not in g.edge_set:
            raise ValueError(f"required edge {e} not in graph")
        if not exclude.isdisjoint(e):
            raise ValueError(f"required edge {e} has an excluded end")
    adj = [sorted(nbrs) for nbrs in adjacency_sets(g)]
    if exclude:
        adj = [[] if v in exclude else [w for w in a if w not in exclude]
               for v, a in enumerate(adj)]
    req_at = [[] for _ in range(g.n)]
    for u, v in req:
        req_at[u].append(v)
        req_at[v].append(u)
    if any(len(r) > 2 for r in req_at):
        return None
    return adj, req_at


class ReferenceSearch:
    """Shared engine for Hamiltonian cycle/path backtracking.

    ``free[z]`` tracks z's unvisited neighbors.  When the endpoint moves off
    v, each unvisited z adjacent to v loses direct access to the path there;
    the w terms cancel (z loses w as a free neighbor but gains it as the new
    endpoint), so the admissible prune is ``free[z] + closure_bonus < need``.
    """

    __slots__ = ("g", "adj", "adjset", "req_at", "budget", "nodes", "count",
                 "emit", "cap", "n")

    def __init__(self, g, adj, req_at, budget, emit, cap, excluded=0):
        self.g = g
        self.n = g.n - excluded  # vertices to cover; arrays keep g's ids
        self.adj = adj
        self.adjset = [frozenset(a) for a in adj]
        self.req_at = req_at
        self.budget = budget
        self.nodes = 0
        self.count = 0
        self.emit = emit
        self.cap = cap

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchTimeout(self.budget, partial=self.count)

    # -- cycles --

    def run_cycles(self):
        n = self.n
        if n < 3 or any(len(a) < 2 for a in self.adj):
            return 0
        start = 0
        visited = [False] * n
        visited[start] = True
        path = [start]
        free = [len(a) for a in self.adj]
        for z in self.adj[start]:
            free[z] -= 1
        self._cycle_extend(path, visited, free, start)
        return self.count

    def _cycle_extend(self, path, visited, free, start):
        self._tick()
        v = path[-1]
        if len(path) == self.n:
            if start in self.adjset[v] and path[1] < path[-1]:
                # required edges at the two closure vertices resolve only here
                if all(x in (path[1], v) for x in self.req_at[start]) and \
                   all(x in (path[-2], start) for x in self.req_at[v]):
                    self._found_cycle(path)
            return
        prev = path[-2] if len(path) > 1 else None
        req_v = self.req_at[v]
        for w in self.adj[v]:
            if visited[w]:
                continue
            if req_v and v != start and not all(x == w or x == prev for x in req_v):
                continue
            if v == start and len(req_v) == 2 and w not in req_v:
                continue
            ok = True
            for z in self.adj[v]:
                if z == w or visited[z]:
                    continue
                if free[z] + (1 if start in self.adjset[z] else 0) < 2:
                    ok = False
                    break
            if not ok:
                continue
            visited[w] = True
            path.append(w)
            for z in self.adj[w]:
                free[z] -= 1
            self._cycle_extend(path, visited, free, start)
            for z in self.adj[w]:
                free[z] += 1
            path.pop()
            visited[w] = False
            if self.cap is not None and self.count >= self.cap:
                return

    def _found_cycle(self, path):
        self.count += 1
        if self.emit is not None:
            n = self.n
            edges = frozenset(edge_key(path[i], path[(i + 1) % n]) for i in range(n))
            self.emit(edges, tuple(path))

    # -- paths --

    def run_paths(self, a, b):
        if a == b:
            raise ValueError("path endpoints must differ")
        if len(self.req_at[a]) > 1 or len(self.req_at[b]) > 1:
            return 0
        visited = [False] * self.g.n
        visited[a] = True
        path = [a]
        free = [len(x) for x in self.adj]
        for z in self.adj[a]:
            free[z] -= 1
        self._path_extend(path, visited, free, a, b)
        return self.count

    def _path_extend(self, path, visited, free, a, b):
        self._tick()
        v = path[-1]
        if len(path) == self.n:
            if v == b and all(x == path[-2] for x in self.req_at[v]) and \
               all(x == path[1] for x in self.req_at[a]):
                self._found_path(path)
            return
        prev = path[-2] if len(path) > 1 else None
        req_v = self.req_at[v]
        for w in self.adj[v]:
            if visited[w]:
                continue
            if w == b and len(path) != self.n - 1:
                continue
            if v == a:
                if req_v and not all(x == w for x in req_v):
                    continue
            elif req_v and not all(x == w or x == prev for x in req_v):
                continue
            ok = True
            for z in self.adj[v]:
                if z == w or visited[z]:
                    continue
                if free[z] < (1 if z == b else 2):
                    ok = False
                    break
            if not ok:
                continue
            visited[w] = True
            path.append(w)
            for z in self.adj[w]:
                free[z] -= 1
            self._path_extend(path, visited, free, a, b)
            for z in self.adj[w]:
                free[z] += 1
            path.pop()
            visited[w] = False
            if self.cap is not None and self.count >= self.cap:
                return

    def _found_path(self, path):
        self.count += 1
        if self.emit is not None:
            edges = frozenset(edge_key(u, v) for u, v in zip(path, path[1:]))
            self.emit(edges, tuple(path))


# ---------------------------------------------------------------------------
# graph edits rebuilt from their faces
# ---------------------------------------------------------------------------

def contract_interior_rebuilt(g, c, v=None):
    """``contract_interior`` (``_containing`` given v) as it was when the
    contracted graph was rebuilt from its faces: g's faces outside c and
    one fan face per pair of consecutive attachments on c."""
    inside, disc = disc_faces(g, c, v)
    inner = disc & ~vertex_mask(c.vertices)
    if not inner:
        raise EmptyInterior(f"{c.vertices} bounds a face")
    if not nx.is_connected(to_nx(g).subgraph(mask_bits(inner))):
        raise DisconnectedInterior(f"interior of {c.vertices} is disconnected")
    vs = c.vertices
    starts = [i for i, z in enumerate(vs) if g.nbr_masks[z] & inner]
    if len(starts) < 2:
        raise DisconnectedInterior("interior attaches to fewer than 2 cycle vertices")
    keep = [z for z in range(g.n) if not inner >> z & 1]
    relabel = {old: new for new, old in enumerate(keep)}
    star = len(keep)
    new_faces = [tuple(relabel[w] for w in f)
                 for i, f in enumerate(g.faces) if i not in inside]
    for i, j in zip(starts, starts[1:] + [starts[0] + len(vs)]):
        new_faces.append((star,) + tuple(relabel[z] for z in (vs + vs)[i:j + 1]))
    return plane_graph_from_faces(new_faces), star, keep + [None]


def contract_edge_rebuilt(g, u, v):
    """``contract_edge`` rebuilt from g's faces, the two on uv dropped."""
    if not g.has_edge(u, v):
        raise NotACycle(f"{u}-{v} is not an edge")
    if len(g.common_neighbors(u, v)) != 2:
        raise NotContractible(f"{u}-{v} has {len(g.common_neighbors(u, v))} common neighbors")
    keep = [w for w in range(g.n) if w not in (u, v)]
    relabel = {old: new for new, old in enumerate(keep)}
    merged = len(keep)
    new_faces = [tuple(merged if w in (u, v) else relabel[w] for w in f)
                 for f in g.faces if not (u in f and v in f)]
    return plane_graph_from_faces(new_faces), merged, keep + [None]


def add_edge_in_face_rebuilt(g, u, v):
    """``add_edge_in_face`` rebuilt from g's faces, the first face holding
    both ends split in two."""
    if g.has_edge(u, v):
        raise MultiEdge(f"{u}-{v} already present")
    for i, f in enumerate(g.faces):
        if u in f and v in f:
            iu = f.index(u)
            a = f[iu:] + f[:iu]
            cut = a.index(v)
            new_faces = [h for j, h in enumerate(g.faces) if j != i]
            return plane_graph_from_faces(new_faces + [a[:cut + 1], a[cut:] + (u,)])
    raise NotACycle(f"no face contains both {u} and {v}")


def flip_edge_rebuilt(g, u, v):
    """``flip_edge`` rebuilt from g's faces, the two triangles on uv
    replaced by the two on xy."""
    face_at = g._face_at
    x = next(w for w in g.faces[face_at[(u, v)]] if w not in (u, v))
    y = next(w for w in g.faces[face_at[(v, u)]] if w not in (u, v))
    if x == y or g.has_edge(x, y):
        raise ValueError(f"edge {u}-{v} is not flippable")
    keep = [f for f in g.faces if set(f) != {u, v, x} and set(f) != {u, v, y}]
    return plane_graph_from_faces(keep + [(u, x, y), (v, y, x)])


# ---------------------------------------------------------------------------
# cycles through triangle edges and the Hamiltonicity checks, on sets
# ---------------------------------------------------------------------------

def reference_is_ham_cycle(g: PlaneGraph, edges) -> bool:
    """Edge-set check: spanning, 2-regular, connected, edges exist."""
    edges = set(edge_key(*e) for e in edges)
    if len(edges) != g.n or not edges <= g.edge_set:
        return False
    deg = [0] * g.n
    nbr = [[] for _ in range(g.n)]
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        nbr[u].append(v)
        nbr[v].append(u)
    if any(d != 2 for d in deg):
        return False
    seen = {0}
    v, prev = nbr[0][0], 0
    while v != 0:
        seen.add(v)
        v, prev = (nbr[v][0] if nbr[v][0] != prev else nbr[v][1]), v
    return len(seen) == g.n


def reference_is_ham_path_of(g: PlaneGraph, seq, a, b, exclude=frozenset()) -> bool:
    """Hamiltonian a-b path of g minus ``exclude``."""
    want = set(range(g.n)) - set(exclude)
    return (set(seq) == want and len(seq) == len(want) and seq[0] == a
            and seq[-1] == b
            and all(g.has_edge(p, q) for p, q in zip(seq, seq[1:])))


def reference_ham_cycle_through_triangle_edges(g: PlaneGraph, t: Cycle,
                                               t1: Cycle, t2: Cycle,
                                               budget=None, separating=None):
    """A Hamiltonian cycle through uv, uw (u the first vertex of t) and one
    edge from each of t1, t2, all four distinct: (cycle edge set, e1, e2),
    or SearchExhausted."""
    from hamforge.structures import has_separating_triangle

    for tri in (t, t1, t2):
        tri.validate(g)
        if len(tri) != 3:
            raise HypothesisViolated("triangles_only")
    keys = {canonical_cycle(tri.vertices) for tri in (t, t1, t2)}
    if len(keys) != 3:
        raise HypothesisViolated("distinct_triangles")
    if separating is None:
        separating = has_separating_triangle(g)
    if separating:
        raise HypothesisViolated("no_separating_triangles")
    u, v, w = t.vertices
    base = [edge_key(u, v), edge_key(u, w)]
    budget = search_budget(budget)
    for e1 in sorted(t1.edges()):
        for e2 in sorted(t2.edges()):
            need = base + [e1, e2]
            if len(set(need)) != 4:
                continue
            found = enumerate_ham_cycles_raw(g, required_edges=need,
                                             budget=budget, cap=1)
            if found:
                return found[0][0], e1, e2
    raise SearchExhausted(
        f"no Hamiltonian cycle through {base} plus edges of {t1.vertices}, {t2.vertices}")
