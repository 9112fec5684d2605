"""Maximum matching for the per-part server-pairing step.

`max_general_matching` is blossom-contraction augmentation and accepts any
simple graph, which the pair-limited verifier needs because arbitrary codes
produce non-bipartite pair graphs.  (The paper's bipartite matchings, via
Hall's theorem, appear only in its proofs.)  A graph is given as a
neighbour map, vertex -> the collection of its neighbours listing every
edge both ways; the matcher checks it to be simple and undirected and
indexes it (vertices sorted, each neighbour row turned into ascending
indices).  Vertices are taken in ascending order and each vertex's
neighbours in ascending order, so a given graph always yields the same
matching.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Mapping

from .errors import ParameterError

__all__ = ["max_general_matching"]


def _lca(base: list[int], match: list[int], parent: list[int], a: int, b: int) -> int:
    flagged = [False] * len(base)
    while True:
        a = base[a]
        flagged[a] = True
        if match[a] == -1:
            break
        a = parent[match[a]]
    while True:
        b = base[b]
        if flagged[b]:
            return b
        b = parent[match[b]]


def _mark_path(
    base: list[int], match: list[int], parent: list[int], blossom: list[bool], v: int, stem: int, child: int
) -> None:
    while base[v] != stem:
        blossom[base[v]] = True
        blossom[base[match[v]]] = True
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


def _augment(adj: list[list[int]], match: list[int], root: int) -> bool:
    """One breadth-first search from the free vertex `root`, contracting
    blossoms; flips the augmenting path it finds into `match`."""
    n = len(adj)
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    used[root] = True
    queue: deque[int] = deque([root])
    # Until the first blossom is contracted, every vertex is its own base
    # (so base[v] == base[to] cannot hold, there being no self-loops), and
    # a vertex with a parent is an odd tree vertex whose mate has none, so
    # meeting it again changes nothing.
    contracted = False
    while queue:
        v = queue.popleft()
        # base[v] changes only when a blossom is contracted and match[v]
        # only on augmenting, which ends the search
        base_v = base[v]
        match_v = match[v]
        for to in adj[v]:
            if match_v == to:
                continue
            if contracted:
                if base_v == base[to]:
                    continue
            elif parent[to] != -1:
                continue
            mate = match[to]
            if to == root or (mate != -1 and parent[mate] != -1):
                stem = _lca(base, match, parent, v, to)
                blossom = [False] * n
                _mark_path(base, match, parent, blossom, v, stem, to)
                _mark_path(base, match, parent, blossom, to, stem, v)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = stem
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
                base_v = base[v]
                contracted = True
            elif parent[to] == -1:
                parent[to] = v
                if mate == -1:
                    u = to
                    while u != -1:
                        pv = parent[u]
                        nxt = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = nxt
                    return True
                used[mate] = True
                queue.append(mate)
    return False


def max_general_matching(neighbours: Mapping[int, Collection[int]]) -> list[tuple[int, int]]:
    """Maximum matching of a simple undirected graph as ascending vertex
    pairs in ascending order.

    `neighbours[v]` holds v's neighbours, and u is in `neighbours[v]`
    exactly when v is in `neighbours[u]`; a vertex with no neighbours maps
    to an empty collection.  A self-loop, a repeated neighbour, a neighbour
    that is not a key, or an edge listed one way only raises
    ParameterError.  The map is read, never changed.

    The vertices are indexed in ascending order, and row j of the index
    is filled with the i of every vertex that lists vertex j, in ascending
    i, so no row needs sorting; once every edge is checked to be listed
    both ways, that is exactly vertex j's own neighbours.
    """
    verts = sorted(neighbours)
    index = {v: i for i, v in enumerate(verts)}
    adj: list[list[int]] = [[] for _ in verts]
    for i, v in enumerate(verts):
        near = neighbours[v]
        if v in near:
            raise ParameterError(f"self-loop at vertex {v}")
        if not isinstance(near, (set, frozenset)) and len(set(near)) != len(near):
            raise ParameterError(f"vertex {v} lists a duplicate neighbour")
        for u in near:
            try:
                j = index[u]
            except KeyError:
                raise ParameterError(f"vertex {v} has an unknown neighbour {u}") from None
            if v not in neighbours[u]:
                raise ParameterError(f"edge ({v},{u}) is listed one way only")
            adj[j].append(i)
    n = len(verts)
    match = [-1] * n
    for v in range(n):  # greedy seed keeps the augmentation count low
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == -1:
            _augment(adj, match, v)
    return [(verts[v], verts[match[v]]) for v in range(n) if match[v] > v]
