"""Maximum matching for the per-part server-pairing step.

`max_general_matching` is blossom-contraction augmentation and accepts any
simple graph, which the pair-limited verifier needs because arbitrary codes
produce non-bipartite pair graphs.  (The paper's bipartite matchings, via
Hall's theorem, appear only in its proofs.)  It scans vertices in ascending order so a given input always yields the
same matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import ParameterError

__all__ = ["PairGraph", "max_general_matching"]


@dataclass(frozen=True)
class PairGraph:
    """A simple undirected graph on column indices."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        verts = tuple(sorted(set(self.vertices)))
        object.__setattr__(self, "vertices", verts)
        vset = set(verts)
        seen: set[tuple[int, int]] = set()
        normalized = []
        for u, v in self.edges:
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise ParameterError(f"edge ({u},{v}) uses an unknown vertex")
            edge = (u, v) if u < v else (v, u)
            if edge in seen:
                raise ParameterError(f"duplicate edge {edge}")
            seen.add(edge)
            normalized.append(edge)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @classmethod
    def general_graph(cls, vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> PairGraph:
        return cls(vertices=tuple(vertices), edges=tuple(edges))


def max_general_matching(g: PairGraph) -> list[tuple[int, int]]:
    """Maximum matching of any simple PairGraph as sorted vertex pairs."""
    verts = g.vertices
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    for rows in adj:
        rows.sort()

    match = [-1] * n
    for v in range(n):  # greedy seed keeps the augmentation count low
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    blossom = [False] * n

    def lca(a: int, b: int) -> int:
        flagged = [False] * n
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

    def mark_path(v: int, stem: int, child: int) -> None:
        while base[v] != stem:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_path(root: int) -> bool:
        for i in range(n):
            used[i] = False
            parent[i] = -1
            base[i] = i
        used[root] = True
        queue: deque[int] = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    stem = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, stem, to)
                    mark_path(to, stem, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = stem
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = parent[u]
                            nxt = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = nxt
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)

    pairs = []
    for v in range(n):
        if match[v] > v:
            pairs.append((verts[v], verts[match[v]]))
    return sorted(pairs)
