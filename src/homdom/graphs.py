"""Finite simple graphs: constructors, algebra, enumeration, and I/O.

Vertex numbering conventions are frozen (tests depend on them):

* ``path_graph(m)``: vertices 0..m along the walk, edges {i, i+1}.
* ``cycle_graph(m)``: vertices 0..m-1 along the walk, closing edge {m-1, 0}.
  ``cycle_graph(2)`` is the sanctioned alias for a single edge.
* ``complete_bipartite(a, b)``: first part 0..a-1, second part a..a+b-1.
* ``k4_minus_e()``: vertices 0..3, every edge except {2, 3}.
* ``triangle_pendant()``: triangle 0,1,2 with the pendant edge {0, 3}.
* ``cycle_with_chord(k, l)``: odd cycle on 0..2k plus the chord {0, 2l},
  which closes one cycle of 2l+1 edges and one of 2k-2l+2 edges.
* ``chorded_fan(i)``: odd cycle on 0..2i plus chords {0, j} for 2 <= j <= 2i-1
  (a fan of 2i-1 triangles sharing vertex 0).
* ``star_graph(m)``: center 0, leaves 1..m.
"""
from __future__ import annotations

import functools
import importlib.util
import itertools
import json
import math
import sys
from dataclasses import dataclass


def _lazy_module(name):
    """The module ``name``, whose code runs on its first attribute access.

    A module already in ``sys.modules`` is returned as it is, so importing
    numpy before homdom leaves numpy's eager import in place. Otherwise the
    module is bound through ``importlib.util.LazyLoader`` and entered in
    ``sys.modules``: a later ``import numpy`` (``perfbench/workloads.py``
    imports it after homdom) returns the same object, loaded by that
    import, so either order runs the same numpy. The first access must come
    from one thread, since ``LazyLoader`` before Python 3.12 is not
    thread-safe on it; homdom starts no threads.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# every module takes np from here, so a query that builds no array (small-pair
# existence, the closed forms, lp, cone) never runs numpy's import
np = _lazy_module("numpy")


class HomdomError(Exception):
    """A refusal of the input; a failed self-check raises AssertionError."""


class GraphError(HomdomError, ValueError):
    """Invalid graph data or parameters."""


def exact_dtype(bound):
    """The one rule of every exact kernel: the narrowest arithmetic holding
    the integers up to ``bound`` exactly (float32 below 2**24, float64 below
    2**53, int64 below 2**63, else Python ints). Non-negative integer sums
    and products bounded by ``bound`` never round in it, in any order."""
    return (np.float32 if bound < 2 ** 24 else np.float64 if bound < 2 ** 53
            else np.int64 if bound < 2 ** 63 else object)


def _normalize_edges(n, edges):
    out = set()
    for e in edges:
        u, v = e
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {e} out of range for n={n}")
        out.add((min(u, v), max(u, v)))
    return frozenset(out)


@dataclass(frozen=True)
class SimpleGraph:
    """A finite simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("negative vertex count")
        object.__setattr__(self, "edges", _normalize_edges(self.n, self.edges))

    @property
    def num_edges(self):
        return len(self.edges)

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    @functools.cached_property
    def _structure(self):
        """Neighbour sets and degrees, built once."""
        adj = [set() for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(map(frozenset, adj)), tuple(map(len, adj))

    @functools.cached_property
    def _forest(self):
        """The sorted vertex tuples of the connected components, and each
        vertex's depth parity in the spanning forest of the one DFS that
        finds them (a vertex is pushed once, by its parent), built once."""
        adj = self._structure[0]
        parity = [-1] * self.n
        comps = []
        for s in range(self.n):
            if parity[s] >= 0:
                continue
            stack, comp = [s], []
            parity[s] = 0
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if parity[w] < 0:
                        parity[w] = 1 - parity[v]
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps), parity

    def degree(self, v):
        return self._structure[1][v]

    def neighbors(self, v):
        return self._structure[0][v]

    def adjacency_lists(self):
        """Neighbourhoods as a fresh list of frozensets."""
        return list(self._structure[0])

    @functools.cached_property
    def _masks(self):
        return tuple(sum(1 << w for w in s) for s in self._structure[0])

    def adjacency_masks(self):
        """Neighbourhoods as bitmasks (bit v set iff v is a neighbour), built once."""
        return self._masks

    def adjacency_matrix(self, dtype="int64"):
        a = np.zeros((self.n, self.n), dtype=dtype)
        uv = np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.intp,
                         count=2 * len(self.edges)).reshape(-1, 2)
        a[uv[:, 0], uv[:, 1]] = 1
        a[uv[:, 1], uv[:, 0]] = 1
        return a

    def components(self):
        """Connected components as a tuple of sorted vertex tuples."""
        return self._forest[0]

    def is_connected(self):
        return self.n <= 1 or len(self._forest[0]) == 1

    def is_tree(self):
        return self.is_connected() and self.num_edges == self.n - 1

    def is_path(self):
        """A path, a single vertex included."""
        return self.is_tree() and all(d <= 2 for d in self._structure[1])

    def is_cycle(self):
        """A cycle on at least 3 vertices."""
        return self.n >= 3 and self.is_connected() and all(d == 2 for d in self._structure[1])

    @functools.cached_property
    def _bipartite(self):
        """2-colourability, decided once: a 2-colouring of a component is
        fixed by any spanning tree, so the depth parities of the forest
        2-colour the graph iff every edge joins opposite parities."""
        parity = self._forest[1]
        return all(parity[u] != parity[v] for u, v in self.edges)

    def is_bipartite(self):
        """Whether the graph is 2-colourable (an edgeless graph included)."""
        return self._bipartite

    @functools.cached_property
    def _odd_girth(self):
        """Length of a shortest odd cycle, decided once. From a vertex s, an
        edge between two vertices at one BFS depth d closes an odd walk of
        length 2d + 1, which holds an odd cycle no longer; and a shortest
        odd cycle is isometric, so from each of its vertices the edge
        opposite it joins two vertices at its depth."""
        if self._bipartite:
            return math.inf
        adj = self._structure[0]
        best = math.inf
        for s in range(self.n):
            depth = {s: 0}
            queue = [s]
            for v in queue:  # the loop reaches the vertices appended as it runs
                d = depth[v]
                if 2 * d + 1 >= best:
                    break
                for w in adj[v]:
                    if w not in depth:
                        depth[w] = d + 1
                        queue.append(w)
                    elif depth[w] == d:
                        best = 2 * d + 1
        return best

    def odd_girth(self):
        """Length of a shortest odd cycle; math.inf when 2-colourable."""
        return self._odd_girth

    def has_clique(self, r):
        """Whether the graph holds a K_r, by the branch and bound of
        ``_clique_within``: exponential in the worst case, and r deep in
        recursion, so meant for small r."""
        return _clique_within(self._masks, (1 << self.n) - 1, r)

    @functools.cached_property
    def _clique_number(self):
        r = 0
        while self.has_clique(r + 1):
            r += 1
        return r

    def clique_number(self):
        """Order of a largest clique, decided once: the largest r for which
        ``has_clique(r)`` holds, so meant for small graphs."""
        return self._clique_number

    def subgraph(self, vertices):
        """Induced subgraph, relabeled to 0..len(vertices)-1 in given order;
        built from the chosen vertices' neighbour sets."""
        idx = {v: i for i, v in enumerate(vertices)}
        adj = self._structure[0]
        edges = [(i, j) for v, i in idx.items() for w in adj[v] if (j := idx.get(w, -1)) > i]
        return SimpleGraph(len(vertices), frozenset(edges))

    def relabeled(self, perm):
        """Apply the permutation old -> perm[old] to the vertex labels."""
        return SimpleGraph(self.n, frozenset((perm[a], perm[b]) for a, b in self.edges))


def _clique_within(masks, cand, need):
    """Whether the vertices of bitmask ``cand`` hold a K_need: branch and
    bound, first dropping candidates with fewer than need - 1 neighbours
    among the others until none is left to drop."""
    if need <= 0:
        return True
    while True:
        keep = rest = cand
        while rest:
            b = rest & -rest
            if (masks[b.bit_length() - 1] & cand).bit_count() < need - 1:
                keep ^= b
            rest ^= b
        if keep == cand:
            break
        cand = keep
    while cand.bit_count() >= need:
        b = cand & -cand
        cand ^= b
        if _clique_within(masks, cand & masks[b.bit_length() - 1], need - 1):
            return True
    return False


@dataclass(frozen=True)
class CliqueUnion:
    """A union of cliques on vertices 0..n-1, any two sharing at most one
    vertex, kept as its list of cliques.

    With N the n x r vertex/clique incidence matrix and D = diag(N 1), the
    adjacency matrix of the union is N N^T - D, so its closed walks reduce
    to r x r Grams (``homcount.GramCounter``); its clique overlaps are the
    Gram N^T N, of entries at most n, in ``exact_dtype(n)``. The expanded
    ``graph`` and its ``edges`` are built only when asked for, once each.
    """

    n: int
    cliques: tuple  # of ascending vertex tuples, in the given order

    def __post_init__(self):
        cliques = tuple(tuple(sorted({int(v) for v in c})) for c in self.cliques)
        object.__setattr__(self, "cliques", cliques)
        if self.n < 0:
            raise GraphError("negative vertex count")
        for c in cliques:
            if len(c) < 2:
                raise GraphError(f"clique {c} needs at least 2 distinct vertices")
            if c[0] < 0 or c[-1] >= self.n:
                raise GraphError(f"clique {c} out of range for n={self.n}")
        # entry (a, b) of N^T N counts the vertices cliques a and b share
        inc = self.incidence_matrix(exact_dtype(self.n))
        shared = inc.T @ inc
        np.fill_diagonal(shared, 0)
        if shared.max(initial=0) > 1:
            a, b = np.unravel_index(np.argmax(shared), shared.shape)
            raise GraphError(f"cliques {cliques[a]} and {cliques[b]} share "
                             f"{int(shared[a, b])} vertices")

    @property
    def num_edges(self):
        return sum(len(c) * (len(c) - 1) // 2 for c in self.cliques)

    def incidence_matrix(self, dtype="int64"):
        """The n x r matrix N with N[v, i] = 1 iff vertex v lies on clique i."""
        sizes = [len(c) for c in self.cliques]
        inc = np.zeros((self.n, len(sizes)), dtype=dtype)
        inc[np.fromiter(itertools.chain.from_iterable(self.cliques), dtype=np.intp,
                        count=sum(sizes)), np.repeat(np.arange(len(sizes)), sizes)] = 1
        return inc

    @functools.cached_property
    def edges(self):
        """The edge set of the expanded graph, normalised as in ``SimpleGraph``."""
        return frozenset(itertools.chain.from_iterable(
            itertools.combinations(c, 2) for c in self.cliques))

    @functools.cached_property
    def graph(self):
        """The expanded ``SimpleGraph``."""
        return SimpleGraph(self.n, self.edges)


@dataclass(frozen=True, eq=False)
class Biadjacency:
    """A bipartite graph kept as its r x c boolean biadjacency block B: row
    u is vertex u, column v is vertex r + v, and B[u, v] marks the edge
    {u, r + v}.

    Its closed walks reduce to powers of B B^T (``homcount.WalkCounter``).
    The block is read-only: a read-only boolean array owning its data is
    kept, any other copied. A target equals only itself, so a lookup keyed
    by it reads no bits of the block. The expanded ``graph`` and its
    ``edges`` are built only when asked for, once each.
    """

    block: np.ndarray

    def __post_init__(self):
        block = self.block
        if not (isinstance(block, np.ndarray) and block.dtype == bool
                and block.flags.owndata and not block.flags.writeable):
            block = np.array(block, dtype=bool)
        if block.ndim != 2:
            raise GraphError(f"biadjacency block must be 2-dimensional, got shape {block.shape}")
        block.flags.writeable = False
        object.__setattr__(self, "block", block)

    @property
    def n(self):
        return sum(self.block.shape)

    @functools.cached_property
    def num_edges(self):
        return int(np.count_nonzero(self.block))

    @functools.cached_property
    def edges(self):
        """The edge set of the expanded graph, normalised as in ``SimpleGraph``."""
        us, vs = np.nonzero(self.block)
        return frozenset(zip(us.tolist(), (vs + len(self.block)).tolist()))

    @functools.cached_property
    def graph(self):
        """The expanded ``SimpleGraph``."""
        return SimpleGraph(self.n, self.edges)


# ---------------------------------------------------------------------------
# named graphs
# ---------------------------------------------------------------------------

def path_graph(m):
    """Path with m edges (m+1 vertices)."""
    if m < 0:
        raise GraphError("path length must be nonnegative")
    return SimpleGraph(m + 1, frozenset((i, i + 1) for i in range(m)))


def cycle_graph(m):
    """Cycle with m edges; cycle_graph(2) is the K_2 alias."""
    if m == 2:
        return complete_graph(2)
    if m < 3:
        raise GraphError("cycle needs at least 3 vertices (or the C_2 = K_2 alias)")
    return SimpleGraph(m, frozenset((i, (i + 1) % m) for i in range(m)))


def complete_graph(m):
    if m < 0:
        raise GraphError("negative order")
    return SimpleGraph(m, frozenset(itertools.combinations(range(m), 2)))


def complete_bipartite(a, b):
    if a < 1 or b < 1:
        raise GraphError("parts must be nonempty")
    return SimpleGraph(a + b, frozenset((i, a + j) for i in range(a) for j in range(b)))


def k4_minus_e():
    return SimpleGraph(4, frozenset([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))


def triangle_pendant():
    return SimpleGraph(4, frozenset([(0, 1), (0, 2), (1, 2), (0, 3)]))


def cycle_with_chord(k, l):
    """C_{2k+1} plus the chord {0, 2l}; requires k > l >= 1."""
    if not (k > l >= 1):
        raise GraphError("need k > l >= 1")
    g = cycle_graph(2 * k + 1)
    return SimpleGraph(g.n, g.edges | {(0, 2 * l)})


def chorded_fan(i):
    """C_{2i+1} with chords {0, j} for 2 <= j <= 2i-1 (2i-1 triangles)."""
    if i < 2:
        raise GraphError("need i >= 2")
    g = cycle_graph(2 * i + 1)
    return SimpleGraph(g.n, g.edges | {(0, j) for j in range(2, 2 * i)})


def star_graph(m):
    if m < 1:
        raise GraphError("star needs at least one leaf")
    return SimpleGraph(m + 1, frozenset((0, j) for j in range(1, m + 1)))


# shorthand and edge-JSON graphs past these are refused before they are built: as a
# target, hom_exists holds a dense n x n matrix; elimination plans K200 in about 1 s
MAX_QUERY_N, MAX_QUERY_EDGES = 2000, 20_000
MAX_ECHO = 40  # a refusal quotes at most this many characters of its input


def elide(value):
    """repr(value), past MAX_ECHO characters cut to its head and its length;
    a string's head is quoted as its repr."""
    if isinstance(value, str):
        return repr(value) if len(value) <= MAX_ECHO else \
            f"{value[:MAX_ECHO]!r}... ({len(value)} chars)"
    text = repr(value)
    return text if len(text) <= MAX_ECHO else f"{text[:MAX_ECHO]}... ({len(text)} chars)"


def _check_query_size(n, m):
    if n > MAX_QUERY_N or m > MAX_QUERY_EDGES:
        raise GraphError(f"query graph capped at {MAX_QUERY_N} vertices, {MAX_QUERY_EDGES} edges")


def from_shorthand(text):
    """Parse inline shorthand such as K4, C5, P13, K2,3, K4-e, C5+, paw."""
    s = text.strip()
    if s in ("K4-e", "K4_minus_e"):
        return k4_minus_e()
    if s in ("paw", "K3+e", "triangle_pendant"):
        return triangle_pendant()
    try:
        if s.startswith("C") and s.endswith("+") and (m := int(s[1:-1])) % 2:
            _check_query_size(m, m + 1)
            return cycle_with_chord((m - 1) // 2, 1)  # refuses m < 5
        if s.startswith("K") and "," in s:
            a, b = map(int, s[1:].split(","))
            _check_query_size(a + b, a * b)
            return complete_bipartite(a, b)
        if s[:1] in ("K", "C", "P", "S"):  # K_m and C_m on m vertices, P_m and S_m on m + 1
            m = int(s[1:])
            _check_query_size(m + (s[0] in "PS"), m * (m - 1) // 2 if s[0] == "K" else m)
            return dict(K=complete_graph, C=cycle_graph, P=path_graph, S=star_graph)[s[0]](m)
    except GraphError as exc:  # the builder's own refusal, such as S0's
        raise GraphError(f"graph shorthand {elide(text)}: {exc}") from None
    except ValueError:  # int() refused the text
        pass
    raise GraphError(f"cannot parse graph shorthand {elide(text)}")


# ---------------------------------------------------------------------------
# algebraic operations
# ---------------------------------------------------------------------------

def disjoint_union(*graphs):
    """The graphs side by side, each relabelled past the ones before it;
    the edge set is built once."""
    edges, offset = [], 0
    for g in graphs:
        edges.extend((offset + a, offset + b) for a, b in g.edges)
        offset += g.n
    return SimpleGraph(offset, frozenset(edges))


def blowup(g, multiplicities):
    """Blow each vertex i up to an independent class of size multiplicities[i]."""
    if len(multiplicities) != g.n:
        raise GraphError("need one multiplicity per vertex")
    if any(a < 1 for a in multiplicities):
        raise GraphError("multiplicities must be positive")
    offset = [0] * g.n
    total = 0
    for i, a in enumerate(multiplicities):
        offset[i] = total
        total += a
    edges = set()
    for u, v in g.edges:
        for j in range(multiplicities[u]):
            for jj in range(multiplicities[v]):
                edges.add((offset[u] + j, offset[v] + jj))
    return SimpleGraph(total, frozenset(edges))


# ---------------------------------------------------------------------------
# enumeration and canonical forms
# ---------------------------------------------------------------------------

MAX_CANONICAL_N = 8
MAX_DEDUP_N = 7  # the dedup enumeration marks 2**C(n,2) labelled graphs: 2**28 at n = 8


def _pairs(n):
    return list(itertools.combinations(range(n), 2))


def _graph_to_int(g):
    pairs = _pairs(g.n)
    idx = {p: i for i, p in enumerate(pairs)}
    x = 0
    for e in g.edges:
        x |= 1 << idx[e]
    return x


def _int_to_graph(n, x):
    pairs = _pairs(n)
    return SimpleGraph(n, frozenset(p for i, p in enumerate(pairs) if (x >> i) & 1))


@functools.lru_cache(maxsize=None)
def _image_weights(n):
    """The (n!, C(n,2)) matrix W with W[p, i] = 2**j, where j is the pair
    that pair i moves to under the p-th permutation of range(n).

    For the 0/1 pair vector x of a graph, W @ x lists the integers of all
    its n! relabellings at once, exactly: each is a sum of distinct powers
    of two below 2**C(n,2), and W is in ``exact_dtype`` of that bound.
    """
    u, v = np.triu_indices(n, 1)  # the pairs in _pairs order
    pos = np.zeros((n, n), dtype=np.intp)
    pos[u, v] = pos[v, u] = np.arange(len(u))
    count = math.factorial(n)
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                        dtype=np.intp, count=count * n).reshape(count, n)
    one = exact_dtype((1 << len(u)) - 1)(1)
    return np.ldexp(one, pos).ravel()[perms[:, u] * n + perms[:, v]]


def _pair_bits(xs, npairs):
    """The 0/1 pair vectors of the graph integers ``xs``, one row each, as uint8."""
    return (np.asarray(xs, dtype=np.int64)[..., None] >> np.arange(npairs) & 1).astype(np.uint8)


def canonical_form(g):
    """The least integer over all relabellings of g, spelled as "n:bits"
    with bit i the upper-triangle pair i."""
    if g.n > MAX_CANONICAL_N:
        raise GraphError(f"canonical form capped at n={MAX_CANONICAL_N}")
    npairs = g.n * (g.n - 1) // 2
    best = int((_image_weights(g.n) @ _pair_bits(_graph_to_int(g), npairs)).min())
    bits = "".join("1" if (best >> i) & 1 else "0" for i in range(npairs))
    return f"{g.n}:{bits}"


def enumerate_graphs(n, dedup=False):
    """All labeled graphs on n vertices; with dedup, one per isomorphism
    class, in ascending order of canonical integer: the least unmarked
    labelled graph x starts a class, one product with ``_image_weights(n)``
    marks all its images, and x, the least of them, is the class integer."""
    if n < 0:
        raise GraphError("negative order")
    npairs = n * (n - 1) // 2
    if not dedup:
        for x in range(1 << npairs):
            yield _int_to_graph(n, x)
        return
    if n > MAX_DEDUP_N:
        raise GraphError(f"dedup enumeration capped at n={MAX_DEDUP_N}")
    marked, x = np.zeros(1 << npairs, dtype=bool), 0
    while x < len(marked):
        marked[(_image_weights(n) @ _pair_bits(x, npairs)).astype(np.intp)] = True
        yield _int_to_graph(n, x)
        x += int(marked[x:].argmin()) or len(marked)  # 0: all from x on are marked


def isomorphic(g, h):
    """Whether g and h are isomorphic.

    Cheap invariants decide first: orders, edge counts and sorted degree
    sequences that differ give False. Pairs they do not tell apart are
    refused above MAX_CANONICAL_N; below it, equal edge sets give True, and
    only the remaining pairs pay for canonical_form.
    """
    if g.n != h.n:
        return False
    if g.num_edges != h.num_edges or sorted(g._structure[1]) != sorted(h._structure[1]):
        return False
    if g.n > MAX_CANONICAL_N:
        raise GraphError(f"canonical form capped at n={MAX_CANONICAL_N}")
    if g.edges == h.edges:
        return True
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# I/O: edge-list JSON and graph6
# ---------------------------------------------------------------------------

def decode_graph(text, fmt):
    if fmt == "edge_json":
        return _decode_edge_json(text)
    if fmt == "graph6":
        return _decode_graph6(text)
    raise GraphError(f"unknown format {fmt!r}")


def encode_graph(g, fmt):
    if fmt == "edge_json":
        return _encode_edge_json(g)
    if fmt == "graph6":
        return _encode_graph6(g)
    raise GraphError(f"unknown format {fmt!r}")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _decode_edge_json(text):
    try:  # json.loads raises a bare ValueError on an integer past int's digit limit
        data = json.loads(text)
        n = data["n"]
        edges = data["edges"]
    except (ValueError, KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    except RecursionError:
        raise GraphError("malformed graph JSON: nested too deeply") from None
    if not _is_int(n):
        raise GraphError("n must be an integer")
    if not isinstance(edges, list):
        raise GraphError("edges must be a list")
    _check_query_size(n, len(edges))
    seen = set()
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise GraphError(f"bad edge {elide(e)}")
        key = (min(e), max(e))
        if key in seen:
            raise GraphError(f"duplicate edge {elide(e)}")
        seen.add(key)
    return SimpleGraph(n, frozenset((e[0], e[1]) for e in edges))


def _encode_edge_json(g):
    edges = sorted(g.edges)
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in edges]})


def _encode_g6_size(n):
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise GraphError("graph6 encoder supports n <= 258047")


def _encode_graph6(g):
    n = g.n
    out = [_encode_g6_size(n)]
    bits = 0
    nbits = 0
    chunk = []
    adj = g.edges
    for v in range(1, n):
        for u in range(v):
            bits = (bits << 1) | (1 if (u, v) in adj else 0)
            nbits += 1
            if nbits == 6:
                chunk.append(chr(bits + 63))
                bits, nbits = 0, 0
    if nbits:
        chunk.append(chr((bits << (6 - nbits)) + 63))
    return out[0] + "".join(chunk)


def _decode_graph6(text):
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise GraphError("empty graph6 string")
    vals = []
    for ch in s:
        x = ord(ch) - 63
        if not (0 <= x <= 63):
            raise GraphError(f"invalid graph6 character {ch!r}")
        vals.append(x)
    if s[0] != "~":
        n = vals[0]
        body = vals[1:]
    else:
        if len(s) < 4 or s[1] == "~":
            raise GraphError("unsupported graph6 size form")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(body) != need:
        raise GraphError("graph6 body length mismatch")
    bitpos = 0
    edges = []
    for v in range(1, n):
        for u in range(v):
            word = body[bitpos // 6]
            if (word >> (5 - bitpos % 6)) & 1:
                edges.append((u, v))
            bitpos += 1
    # padding bits must be zero
    for extra in range(npairs, need * 6):
        word = body[extra // 6]
        if (word >> (5 - extra % 6)) & 1:
            raise GraphError("nonzero padding bits in graph6 input")
    return SimpleGraph(n, frozenset(edges))
