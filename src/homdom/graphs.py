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
import itertools
import json
from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Invalid graph data or parameters."""


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
    def _components(self):
        """Vertex sets of the connected components, each sorted, built once."""
        adj = self._structure[0]
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

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

    def adjacency_matrix(self, dtype=np.int64):
        a = np.zeros((self.n, self.n), dtype=dtype)
        uv = np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.intp,
                         count=2 * len(self.edges)).reshape(-1, 2)
        a[uv[:, 0], uv[:, 1]] = 1
        a[uv[:, 1], uv[:, 0]] = 1
        return a

    def components(self):
        """Connected components as a tuple of sorted vertex tuples."""
        return self._components

    def is_connected(self):
        return self.n <= 1 or len(self._components) == 1

    def is_tree(self):
        return self.is_connected() and self.num_edges == self.n - 1

    def is_path(self):
        """A path, a single vertex included."""
        return self.is_tree() and all(d <= 2 for d in self._structure[1])

    def is_cycle(self):
        """A cycle on at least 3 vertices."""
        return self.n >= 3 and self.is_connected() and all(d == 2 for d in self._structure[1])

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


def from_shorthand(text):
    """Parse inline shorthand such as K4, C5, P13, K2,3, K4-e, C5+, paw."""
    s = text.strip()
    if s in ("K4-e", "K4_minus_e"):
        return k4_minus_e()
    if s in ("paw", "K3+e", "triangle_pendant"):
        return triangle_pendant()
    if s.startswith("C") and s.endswith("+"):
        m = int(s[1:-1])
        if m % 2 == 0 or m < 5:
            raise GraphError("chorded cycle shorthand needs an odd length >= 5")
        k = (m - 1) // 2
        return cycle_with_chord(k, 1)
    try:
        if s.startswith("K") and "," in s:
            a, b = s[1:].split(",")
            return complete_bipartite(int(a), int(b))
        if s.startswith("K"):
            return complete_graph(int(s[1:]))
        if s.startswith("C"):
            return cycle_graph(int(s[1:]))
        if s.startswith("P"):
            return path_graph(int(s[1:]))
        if s.startswith("S"):
            return star_graph(int(s[1:]))
    except ValueError:
        pass
    raise GraphError(f"cannot parse graph shorthand {text!r}")


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


def tensor_product(g, h):
    """Categorical product: (u1,v1) ~ (u2,v2) iff u1~u2 in g and v1~v2 in h."""
    def vid(u, v):
        return u * h.n + v

    edges = set()
    for a, b in g.edges:
        for c, d in h.edges:
            edges.add((vid(a, c), vid(b, d)))
            edges.add((vid(a, d), vid(b, c)))
    return SimpleGraph(g.n * h.n, frozenset(edges))


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


def _perm_tables(n):
    """For each permutation, the source bit index feeding each target bit."""
    pairs = _pairs(n)
    idx = {p: i for i, p in enumerate(pairs)}
    tables = []
    for perm in itertools.permutations(range(n)):
        src = [0] * len(pairs)
        for i, (u, v) in enumerate(pairs):
            a, b = perm[u], perm[v]
            src[idx[(min(a, b), max(a, b))]] = i
        tables.append(src)
    return tables


def canonical_form(g):
    """Minimum-over-permutations upper-triangle bitstring, as "n:bits"."""
    if g.n > MAX_CANONICAL_N:
        raise GraphError(f"canonical form capped at n={MAX_CANONICAL_N}")
    pairs = _pairs(g.n)
    x = _graph_to_int(g)
    if g.n <= 1:
        return f"{g.n}:"
    best = None
    for src in _perm_tables(g.n):
        y = 0
        for j, s in enumerate(src):
            if (x >> s) & 1:
                y |= 1 << j
        if best is None or y < best:
            best = y
    bits = "".join("1" if (best >> i) & 1 else "0" for i in range(len(pairs)))
    return f"{g.n}:{bits}"


def _canonical_ints(n):
    """Canonical integer for every labeled graph on n vertices (vectorized).

    Each permutation maps every byte of a graph's bitstring through a
    256-entry table of that byte's permuted bits; the images OR together.
    """
    npairs = n * (n - 1) // 2
    arr = np.arange(1 << npairs, dtype=np.int64)
    chunks = [(arr >> (8 * k)) & 255 for k in range((npairs + 7) // 8)]
    byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    best = arr.copy()
    for src in _perm_tables(n):
        dst = np.zeros(8 * len(chunks), dtype=np.int64)
        dst[src] = np.int64(1) << np.arange(npairs)   # source bit -> its image
        y = np.zeros_like(arr)
        for k, chunk in enumerate(chunks):
            y |= (byte_bits @ dst[8 * k:8 * k + 8])[chunk]
        np.minimum(best, y, out=best)
    return best


def enumerate_graphs(n, dedup=False):
    """All labeled graphs on n vertices; with dedup, one per isomorphism class."""
    if n < 0:
        raise GraphError("negative order")
    if not dedup:
        npairs = n * (n - 1) // 2
        for x in range(1 << npairs):
            yield _int_to_graph(n, x)
        return
    if n > 6:
        # 7! * 2^21 permutation sweeps are past desk scale; refuse rather
        # than approximate.
        raise GraphError("dedup enumeration capped at n=6")
    if n <= 1:
        yield SimpleGraph(n)
        return
    canon = _canonical_ints(n)
    for x in sorted(set(int(v) for v in canon)):
        yield _int_to_graph(n, x)


def isomorphic(g, h):
    """Whether g and h are isomorphic.

    Cheap invariants decide first: orders, edge counts and sorted degree
    sequences that differ give False, and equal edge sets give True. Only
    the remaining pairs pay for canonical_form. Equal orders above
    MAX_CANONICAL_N are refused before any invariant is looked at.
    """
    if g.n != h.n:
        return False
    if g.n > MAX_CANONICAL_N:
        raise GraphError(f"canonical form capped at n={MAX_CANONICAL_N}")
    if g.num_edges != h.num_edges or sorted(g._structure[1]) != sorted(h._structure[1]):
        return False
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
    try:
        data = json.loads(text)
        n = data["n"]
        edges = data["edges"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    if not _is_int(n):
        raise GraphError("n must be an integer")
    if not isinstance(edges, list):
        raise GraphError("edges must be a list")
    seen = set()
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise GraphError(f"bad edge {e}")
        key = (min(e), max(e))
        if key in seen:
            raise GraphError(f"duplicate edge {e}")
        seen.add(key)
    return SimpleGraph(n, frozenset((e[0], e[1]) for e in edges))


def _encode_edge_json(g):
    edges = sorted(g.edges)
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in edges]})


def _encode_g6_size(n):
    if n < 0:
        raise GraphError("negative order")
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
        if not (0 <= x <= 63) and ch != "~":
            raise GraphError(f"invalid graph6 character {ch!r}")
        vals.append(ord(ch) - 63)
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
