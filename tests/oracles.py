"""Independent oracles the tests compare against.

Everything here deliberately avoids the package's own algorithms: counting
by raw permutations or unpruned DFS, isomorphism and connectivity through
networkx, subgraph matching by generic backtracking, and a triangulation
generator driven by diagonal flips instead of vertex splitting.  The
exceptions are slow routes a fast path must reproduce exactly:
``split_dedupe_levels``, the generate-then-dedupe route that builds every
split child, and ``scan_face_index``, the scan over every face.
"""

from __future__ import annotations

import itertools

import networkx as nx

from hamforge.plane_graph import PlaneGraph, canonical_cycle, edge_key


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
    count = 0

    def extend(path, onpath):
        nonlocal count
        v = path[-1]
        if len(path) == n:
            if 0 in g.adj[v] and path[1] < path[-1]:
                edges = {edge_key(path[i], path[(i + 1) % n]) for i in range(n)}
                if required <= edges and not (forbidden & edges):
                    count += 1
            return
        for w in g.adj[v]:
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
    count = 0

    def extend(path, onpath):
        nonlocal count
        v = path[-1]
        if len(path) == n:
            count += v == b
            return
        for w in g.adj[v]:
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


def split_dedupe_levels(n_max: int) -> dict[int, list[PlaneGraph]]:
    """All triangulations on 4..n_max vertices by generate-then-dedupe: every
    vertex split of every parent is built by ``split_vertex`` and keyed by
    ``canonical_code``; the first child with a new key is kept and each level
    is sorted by key.  The slow route the exhaustive generator's rotation
    edit replaces."""
    from hamforge.corpus import _all_splits, k4, split_vertex
    from hamforge.plane_graph import canonical_code

    levels = {4: [k4()]}
    for n in range(5, n_max + 1):
        out = {}
        for parent in levels[n - 1]:
            for v, i, j in _all_splits(parent):
                child = split_vertex(parent, v, i, j)
                out.setdefault(canonical_code(child), child)
        levels[n] = [out[k] for k in sorted(out)]
    return levels


def scan_face_index(g: PlaneGraph, vertices):
    """Lowest index of a face equal to the cyclic sequence ``vertices`` up to
    rotation and reflection, or None: the scan over every face that
    ``PlaneGraph.face_index`` replaces."""
    want = canonical_cycle(vertices)
    for i, f in enumerate(g.faces):
        if canonical_cycle(f) == want:
            return i
    return None
