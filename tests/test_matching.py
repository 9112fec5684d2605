import copy
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pirarray import build_c1, max_general_matching
from pirarray.errors import ParameterError
from pirarray.gf2 import parts_of, pivot_insert, pivot_reduce


def bruteforce_max_matching(vertices, edges):
    """Exact maximum matching size by recursive search; fine for <= 10 vertices."""
    edges = list(edges)

    def go(idx, used):
        if idx == len(edges):
            return 0
        best = go(idx + 1, used)
        u, v = edges[idx]
        if u not in used and v not in used:
            best = max(best, 1 + go(idx + 1, used | {u, v}))
        return best

    return go(0, frozenset())


def graph(vertices, edges):
    """The neighbour map of a simple graph: every vertex, each edge both ways."""
    neighbours = {v: set() for v in vertices}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    return neighbours


def spans_part(code, columns, part):
    pivots = {}
    for j in columns:
        for cell in code.columns[j - 1]:
            pivot_insert(pivots, cell)
    return pivot_reduce(pivots, 1 << (part - 1)) == 0


def test_complete_bipartite_k33():
    g = graph(range(1, 7), [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    matching = max_general_matching(g)
    assert len(matching) == 3
    assert len({u for u, _ in matching}) == len({v for _, v in matching}) == 3


def test_empty_graph():
    g = graph([], [])
    assert max_general_matching(g) == []


def test_triangle_and_five_cycle():
    tri = graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert len(max_general_matching(tri)) == 1
    cyc = graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert len(max_general_matching(cyc)) == 2


def test_graph_validation():
    with pytest.raises(ParameterError, match="self-loop"):
        max_general_matching({1: {1}})
    with pytest.raises(ParameterError, match="duplicate"):
        max_general_matching({1: [2, 2], 2: [1]})
    with pytest.raises(ParameterError, match="unknown"):
        max_general_matching({1: {3}, 2: set()})
    with pytest.raises(ParameterError, match="one way"):
        max_general_matching({1: {2}, 2: set()})


def test_c1_pair_graph_has_perfect_matching():
    # for part 1 of the (t=2, d=2) family: three all-singleton avoiders on the
    # left, three sum servers involving part 1 on the right, and the matching
    # must be perfect
    code = build_c1(2, 2)
    target = 1
    left, right, edges = [], [], []
    for j, col in enumerate(code.columns, start=1):
        parts_stored = {c.bit_length() for c in col if c & (c - 1) == 0}
        involved = set()
        for c in col:
            involved |= set(parts_of(c))
        if all(c & (c - 1) == 0 for c in col):
            if target not in involved:
                left.append(j)
        elif target not in parts_stored:
            right.append(j)
    assert len(left) == len(right) == 3
    for u in left:
        for v in right:
            if spans_part(code, (u, v), target):
                edges.append((u, v))
    g = graph(left + right, edges)
    assert len(max_general_matching(g)) == 3


def test_intro_pair_graph_for_part_five(intro_code):
    assert spans_part(intro_code, (3, 4), 5)
    g = graph([3, 4], [(3, 4)])
    assert max_general_matching(g) == [(3, 4)]


def test_regular_bipartite_has_perfect_matching():
    # circulant d-regular bipartite graphs on n+n vertices
    for n, degree in [(4, 2), (6, 3), (7, 4), (9, 5)]:
        left = list(range(n))
        right = list(range(n, 2 * n))
        edges = [(i, n + (i + shift) % n) for i in range(n) for shift in range(degree)]
        assert len(max_general_matching(graph(left + right, edges))) == n


def test_matching_is_deterministic():
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)]
    g = graph(range(1, 7), edges)
    first = max_general_matching(g)
    assert first == max_general_matching(g)
    reversed_rows = {v: sorted(near, reverse=True) for v, near in g.items()}
    assert first == max_general_matching(reversed_rows)
    assert len(first) == 3


graph_strategy = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
            max_size=n * (n - 1) // 2,
        ),
    )
)


@settings(max_examples=120, deadline=None)
@given(graph_strategy)
def test_general_matching_matches_bruteforce(case):
    n, edges = case
    g = graph(range(n), edges)
    found = max_general_matching(g)
    assert len(found) == bruteforce_max_matching(range(n), edges)
    # result is a valid matching
    seen = [v for e in found for v in e]
    assert len(seen) == len(set(seen))
    assert all(e in edges for e in found)


# SHA-256 of the matchings the edge-list matcher found on these graphs; many
# of them are non-bipartite, and matching them contracts 990 blossoms.
GOLDEN_MATCHINGS_SHA256 = "2a1c702ba61136949cc6c1d8e08f33decab97f1b8c968df66afc20f73eb832f9"


def seeded_graphs():
    """The 300 seeded neighbour maps behind GOLDEN_MATCHINGS_SHA256."""
    rng = random.Random(2016)
    for _ in range(300):
        n = rng.randint(2, 30)
        density = rng.random() * 0.5
        vertices = rng.sample(range(1, 100), n)
        edges = [
            tuple(sorted((vertices[a], vertices[b])))
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < density
        ]
        yield graph(vertices, edges)


def test_matchings_on_seeded_graphs_are_unchanged():
    digest = hashlib.sha256()
    for g in seeded_graphs():
        before = copy.deepcopy(g)
        digest.update(repr(max_general_matching(g)).encode())
        # the matching reads the neighbour map and leaves it as it was
        assert g == before
    assert digest.hexdigest() == GOLDEN_MATCHINGS_SHA256


def test_matching_takes_set_and_list_rows():
    assert max_general_matching({}) == []
    assert max_general_matching({5: {2, 9}, 2: {5}, 9: [5]}) == [(2, 5)]
