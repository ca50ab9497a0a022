"""Geometric primitives over points in R^D.

Provides Lp distances, minimum spanning trees, L1/L2 Steiner trees, Fermat
points and geometric medians. Everything here is a pure function of its
inputs; no shared mutable state.

Steiner solvers:

* L1 exact: three terminals, in any dimension and in every mode, are the
  star through their coordinate-wise median, the optimal Steiner point
  (Hwang, SIAM J. Appl. Math. 30, 1976). Four to six terminals: dynamic
  programming over the Hanan grid graph (the grid induced by coordinate
  hyperplanes through the terminals). Optimal rectilinear Steiner points can
  always be chosen on that grid, so the grid DP is exact. Its byte cap is
  checked on the grid size, computed from per-axis distinct coordinates,
  before any grid or distance matrix is built; the distance matrix and the
  relay are built a block at a time.
* L1 heuristic: iterated single-point insertion. Candidates are Hanan grid
  points (the full grid when it has at most 512 nodes, otherwise
  coordinate-wise medians of vertex triples, which stay on the grid; a
  larger grid is never built); the candidate with the largest spanning-tree
  reduction is inserted until no improvement remains.
* L2 exact: enumeration of all full topologies (N <= 6) with convex
  coordinate optimization of the Steiner points, all topologies solved
  together as one batch of linear systems (three terminals: their Fermat
  point), then an exact Fermat-point polish so the 120-degree meeting
  condition holds to high precision.
* L2 heuristic: same enumeration for N <= 6; for larger N a greedy pass that
  replaces sharp tree corners (< 120 degrees) with local Fermat points,
  followed by the same polish.
* L2 scale: the solvers' absolute tolerances are multiplied by the
  terminals' largest coordinate extent when that exceeds 1, so a tree
  scales with its terminals; L2 inputs far enough out for a squared
  distance to overflow are refused.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, InvalidInputError

# Two points closer than this are one: tree vertices merge, and a walk that
# comes this close to a point stands on it.
COINCIDE_TOL = 1e-9
# Bytes of one block of `_pairwise`'s coordinate differences, the L1 grid DP's
# relay sums and L1 insertion's candidate gaps: whatever the point count, a
# block spans as many rows as fit, and at least one.
_BLOCK_BYTES = 8 * 2**20
# Byte cap on what the exact L1 grid DP holds at its peak: the (v, v) float64
# metric closure of its grid plus one block. It also bounds the DP's work,
# 2^(N-1) v^2 array operations, to about 2.35e8 at N = 6 terminals.
_L1_EXACT_MAX_BYTES = 64 * 2**20
_L2_EXACT_MAX_TERMINALS = 6


def _as_point(p, name: str = "point") -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise InvalidInputError(f"{name} must be a 1-D coordinate vector")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def _as_points(points, name: str = "points") -> np.ndarray:
    pts = [_as_point(p, name) for p in points]
    if not pts:
        raise InvalidInputError(f"{name} must be non-empty")
    dim = pts[0].size
    if any(p.size != dim for p in pts):
        raise InvalidInputError(f"{name} must share one dimension")
    return np.array(pts, dtype=float)


def _check_norm(p) -> int:
    if p not in (1, 2):
        raise InvalidInputError(f"unsupported norm selector {p!r}; use 1 or 2")
    return int(p)


def _check_l2_extent(pts: np.ndarray, name: str) -> None:
    """Refuse points too far out for L2: with r the norm of the largest
    |coordinate| on each axis, a squared distance is at most 4r^2 and a
    Fermat cosine adds two, so 8r^2 must be finite."""
    limit = math.sqrt(sys.float_info.max / 8.0)
    r = math.hypot(*np.max(np.abs(pts), axis=0).tolist())
    if not r < limit:
        raise InvalidInputError(
            f"{name} too far out for L2: the norm of the largest |coordinate| on each "
            f"axis is {r:.3g}; it must be below {limit:.3g} for squared distances to stay finite"
        )


def lp_distance(a, b, p) -> float:
    """Lp distance between two equal-dimension points."""
    p = _check_norm(p)
    va, vb = _as_point(a, "a"), _as_point(b, "b")
    if va.size != vb.size:
        raise InvalidInputError(
            f"dimension mismatch: {va.size} vs {vb.size}"
        )
    return _lp(va, vb, p)


def _lp(a: np.ndarray, b: np.ndarray, p: int, axis=None):
    """lp_distance without input checks, for float arrays the caller built; with
    axis=-1, each row's distance, in _lp's bits for that row (np.sum's reduction)."""
    s = np.add.reduce(np.abs(a - b) if p == 1 else np.square(a - b), axis=axis)
    if axis is not None:
        return s if p == 1 else np.sqrt(s)
    return float(s) if p == 1 else math.sqrt(s)


def _pairwise(points: np.ndarray, p: int) -> np.ndarray:
    """(v, v) Lp distances, built a block of rows at a time in one buffer:
    each entry is one reduction over its D contiguous differences, as in a
    one-shot build."""
    v, dim = points.shape
    out = np.empty((v, v))
    rows = min(v, max(1, _BLOCK_BYTES // (8 * v * dim)))
    block = np.empty((rows, v, dim))
    for lo in range(0, v, rows):
        diff = block[: min(rows, v - lo)]
        np.subtract(points[lo : lo + rows, None, :], points[None, :, :], out=diff)
        if p == 1:
            np.sum(np.abs(diff, out=diff), axis=2, out=out[lo : lo + rows])
        else:
            np.sum(np.multiply(diff, diff, out=diff), axis=2, out=out[lo : lo + rows])
    return out if p == 1 else np.sqrt(out, out=out)


@dataclass(frozen=True)
class Tree:
    """A tree over points in R^D.

    vertices holds terminals first (in input order) followed by any Steiner
    points. edges are index pairs (i < j). length is the total Lp edge
    length under `norm`. exact: `steiner_tree` solved it without heuristics.
    """

    vertices: np.ndarray
    terminal_ids: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    norm: int
    length: float
    exact: bool = False

    @property
    def steiner_ids(self) -> tuple[int, ...]:
        terminal = set(self.terminal_ids)
        return tuple(i for i in range(len(self.vertices)) if i not in terminal)

    def degrees(self) -> np.ndarray:
        ends = np.asarray(self.edges, dtype=int).ravel()
        return np.bincount(ends, minlength=len(self.vertices))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(_adjacency(self.edges).get(v, ())))


def tree_length(t: Tree) -> float:
    """Recompute the total edge length of a tree under its norm."""
    total = 0.0
    for i, j in t.edges:
        total += lp_distance(t.vertices[i], t.vertices[j], t.norm)
    return total


def _tree_key(t: Tree):
    """Coordinate key of a tree's edge set, for tie-breaks between equal lengths."""
    return tuple(
        sorted(
            tuple(sorted((tuple(t.vertices[i]), tuple(t.vertices[j]))))
            for i, j in t.edges
        )
    )


def _make_tree(vertices: np.ndarray, terminal_ids, edges, p: int) -> Tree:
    vertices = np.asarray(vertices, dtype=float)
    norm_edges = tuple(sorted(_edge(i, j) for i, j in edges))
    length = sum(_lp(vertices[i], vertices[j], p) for i, j in norm_edges)
    return Tree(
        vertices=vertices,
        terminal_ids=tuple(terminal_ids),
        edges=norm_edges,
        norm=p,
        length=float(length),
    )


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _adjacency(edges) -> dict[int, list[int]]:
    """Neighbour lists of the vertices that have edges, in edge order."""
    nbrs: dict[int, list[int]] = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    return nbrs


def _splice(edges: set, keep) -> None:
    """Drop the leaves and bridge the degree-2 vertices outside `keep`, in
    place, lowest vertex first, until every vertex outside it has degree 3+."""
    while True:
        nbrs = _adjacency(edges)
        v = next((v for v in sorted(nbrs) if v not in keep and len(nbrs[v]) <= 2), None)
        if v is None:
            return
        for u in nbrs[v]:
            edges.discard(_edge(u, v))
        if len(nbrs[v]) == 2:
            edges.add(_edge(*nbrs[v]))


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _kruskal(n: int, weighted_edges) -> list[tuple]:
    """Kruskal's spanning forest of n vertices from (weight, i, j) triples,
    in pick order; ties go to the smaller (i, j)."""
    parent = list(range(n))
    out = []
    for w, i, j in sorted(weighted_edges):
        ri, rj = _find(parent, i), _find(parent, j)
        if ri != rj:
            parent[ri] = rj
            out.append((w, i, j))
            if len(out) == n - 1:
                break
    return out


def validate_tree(t: Tree, rtol: float = 1e-9) -> None:
    """Raise InvalidInputError when a tree violates its structural contract."""
    n = len(t.vertices)
    if sorted(set(t.terminal_ids)) != sorted(t.terminal_ids):
        raise InvalidInputError("duplicate terminal ids")
    if any(v < 0 or v >= n for e in t.edges for v in e):
        raise InvalidInputError("edge references missing vertex")
    if n > 1 and len(t.edges) != n - 1:
        raise InvalidInputError("edge count is not |V| - 1")
    # |V| - 1 edges connect the vertices exactly when none closes a cycle
    if len(_kruskal(n, [(0.0, i, j) for i, j in t.edges])) != len(t.edges):
        raise InvalidInputError("tree contains a cycle or is not connected")
    expected = tree_length(t)
    if abs(expected - t.length) > rtol * max(1.0, abs(expected)):
        raise InvalidInputError("stored length disagrees with edges")
    n_terminals = len(t.terminal_ids)
    if len(t.steiner_ids) > max(0, n_terminals - 2):
        raise InvalidInputError("more Steiner vertices than N - 2")
    if t.norm == 2:
        deg = t.degrees()
        for s in t.steiner_ids:
            if deg[s] != 3:
                raise InvalidInputError("L2 Steiner vertex degree != 3")


# ---------------------------------------------------------------------------
# Minimum spanning tree
# ---------------------------------------------------------------------------


def _mst_edges(dist: np.ndarray) -> list[tuple[int, int]]:
    """Prim's algorithm on a full distance matrix; index tie-break."""
    n = dist.shape[0]
    if n <= 1:
        return []
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()  # dist[0][0] is 0
    best_from = np.zeros(n, dtype=int)
    edges = []
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        u = int(np.argmin(masked))
        in_tree[u] = True
        edges.append((int(best_from[u]), u))
        closer = dist[u] < best
        update = closer & ~in_tree
        best[update] = dist[u][update]
        best_from[update] = u
    return edges


def minimum_spanning_tree(terminals, p) -> Tree:
    """Minimum total Lp length spanning tree on the terminals (no Steiner points)."""
    p = _check_norm(p)
    pts = _as_points(terminals, "terminals")
    if p == 2:
        _check_l2_extent(pts, "terminals")
    dist = _pairwise(pts, p)
    edges = _mst_edges(dist)
    return _make_tree(pts, range(len(pts)), edges, p)


# ---------------------------------------------------------------------------
# Fermat point and geometric median
# ---------------------------------------------------------------------------


def _fermat3(va: np.ndarray, vb: np.ndarray, vc: np.ndarray) -> list[float]:
    """Point minimizing the summed L2 distance to three float points of one
    dimension, as a list of floats, unchecked, for inner loops.

    All triangle angles < 120 degrees: the interior point whose incident
    directions meet pairwise at 120 degrees (computed from the isogonic
    center's trilinear coordinates). Any angle >= 120 degrees: that vertex.
    Collinear input: the middle point, by convention. The side lengths keep
    `ndarray.dot` (BLAS sums differ from a Python loop's) and the angles one
    `np.arccos` and `np.sin` call (numpy's SVML arccos differs from
    `math.acos`); the rest is Python float arithmetic, which rounds each
    product and sum as numpy's elementwise operations do.
    """
    # opposite side lengths
    sides = [math.sqrt(d.dot(d)) for d in (vb - vc, vc - va, va - vb)]
    sa, sb, sc = sides
    verts = (va, vb, vc)
    scale = max(sides)
    if scale <= 0.0:
        return va.tolist()
    shortest = min(sides)
    if shortest <= 1e-12 * scale:
        # two points coincide; the duplicated point is optimal
        return verts[(sides.index(shortest) + 1) % 3].tolist()
    # collinearity: compare longest side against the sum of the others
    longest = sides.index(scale)
    rest = sb + sc if longest == 0 else (sa + sc if longest == 1 else sa + sb)
    if abs(rest - scale) <= 1e-12 * scale:
        return verts[longest].tolist()  # opposite the longest side = middle point
    # `s ** 2` (C pow) and `s * s` differ in the last bit on some inputs
    qa, qb, qc = sa**2, sb**2, sc**2
    cosines = [
        (qb + qc - qa) / (2.0 * sb * sc),
        (qc + qa - qb) / (2.0 * sc * sa),
        (qa + qb - qc) / (2.0 * sa * sb),
    ]
    widest = min(cosines)
    if widest <= -0.5 + 1e-15:
        return verts[cosines.index(widest)].tolist()
    # the clip to [-1, 1]: every cosine is above -0.5 here
    angles = np.arccos([1.0 if c > 1.0 else c for c in cosines])
    # barycentric weights of the isogonic center: side_i / sin(angle_i + 60 deg)
    sin_a, sin_b, sin_c = np.sin(angles + math.pi / 3.0).tolist()
    wa, wb, wc = sa / sin_a, sb / sin_b, sc / sin_c
    total = wa + wb + wc
    wa, wb, wc = wa / total, wb / total, wc / total
    return [wa * x + wb * y + wc * z for x, y, z in zip(va.tolist(), vb.tolist(), vc.tolist())]


def geometric_median(points, p) -> np.ndarray:
    """Point minimizing the summed Lp distance to a point set.

    p=1: coordinate-wise median, taking the lower middle value on even
    counts. p=2: an input point when one is optimal, otherwise Weiszfeld
    iteration run until the certified objective gap is below 1e-9.
    """
    p = _check_norm(p)
    pts = _as_points(points, "points")
    if p == 1:
        return np.sort(pts, axis=0)[(len(pts) - 1) // 2]
    _check_l2_extent(pts, "points")
    span = float(np.max(np.ptp(pts, axis=0))) or 1.0
    # optimality test at each distinct input point
    for y in pts:
        d = np.linalg.norm(pts - y, axis=1)
        at = d <= 1e-12 * span
        rest = pts[~at]
        if len(rest) == 0:
            return y.copy()
        units = (rest - y) / np.linalg.norm(rest - y, axis=1)[:, None]
        pull = np.linalg.norm(np.sum(units, axis=0))
        if pull <= np.count_nonzero(at) + 1e-12:
            return y.copy()
    x = np.mean(pts, axis=0)
    diam = float(
        np.linalg.norm(np.max(pts, axis=0) - np.min(pts, axis=0))
    ) or 1.0
    for _ in range(10000):
        d = np.linalg.norm(pts - x, axis=1)
        if np.any(d <= 1e-14 * span):
            # landed on a datum that failed the optimality test: nudge off it
            x = x + 1e-9 * span
            continue
        w = 1.0 / d
        x = np.sum(pts * w[:, None], axis=0) / np.sum(w)
        d = np.linalg.norm(pts - x, axis=1)
        if np.all(d > 0):
            grad = np.sum((x - pts) / d[:, None], axis=0)
            # convexity: objective gap <= |grad| * diameter of the hull
            if float(np.linalg.norm(grad)) * diam < 1e-9:
                break
    return x


# ---------------------------------------------------------------------------
# L1 Steiner trees
# ---------------------------------------------------------------------------


def _hanan_size(terminals: np.ndarray) -> int:
    """Node count of the Hanan grid, without building it."""
    return math.prod(
        len(np.unique(terminals[:, d])) for d in range(terminals.shape[1])
    )


def _hanan_grid(terminals: np.ndarray) -> np.ndarray:
    axes = [np.unique(terminals[:, d]) for d in range(terminals.shape[1])]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _steiner_l1_exact(terminals: np.ndarray) -> Tree:
    """Optimal L1 Steiner tree via subset DP on the Hanan grid graph."""
    n = len(terminals)
    v = _hanan_size(terminals)
    if 8 * v * v + _BLOCK_BYTES > _L1_EXACT_MAX_BYTES:
        raise BudgetExceededError(
            f"exact L1 grid DP too large ({n} terminals, {v} grid nodes)"
        )
    nodes = _hanan_grid(terminals)
    dist = _pairwise(nodes, 1)
    # map each terminal onto its grid node
    node_of = []
    for t in terminals:
        hits = np.where(np.all(np.abs(nodes - t) <= 0.0, axis=1))[0]
        node_of.append(int(hits[0]))
    root = node_of[0]
    others = node_of[1:]
    k = len(others)
    full = (1 << k) - 1
    rows = min(v, max(1, _BLOCK_BYTES // (8 * v)))
    block = np.empty((rows, v))
    dp = {1 << i: dist[others[i]] for i in range(k)}
    split_at = {}
    relay = {}
    for mask in range(1, full + 1):
        if mask.bit_count() == 1:
            continue
        low = mask & (-mask)
        best = None
        best_split = None
        sub = (mask - 1) & mask
        while sub > 0:
            if sub & low:  # canonical: submask containing the lowest bit
                cand = dp[sub] + dp[mask ^ sub]
                if best is None:
                    best = cand
                    best_split = np.full(v, sub, dtype=np.int64)
                else:
                    better = cand < best
                    best = np.where(better, cand, best)
                    best_split[better] = sub
            sub = (sub - 1) & mask
        # relay through the metric closure: one min-plus pass suffices, made
        # a block of the (symmetric) closure's rows at a time, so argmin runs
        # along contiguous rows and copies nothing
        dp[mask], relay[mask] = np.empty(v), np.empty(v, dtype=np.intp)
        for lo in range(0, v, rows):
            total = block[: min(rows, v - lo)]
            np.add(dist[lo : lo + rows], best, out=total)
            arg = relay[mask][lo : lo + rows] = np.argmin(total, axis=1)
            dp[mask][lo : lo + rows] = total[np.arange(len(arg)), arg]
        split_at[mask] = best_split

    edges_out: set[tuple[int, int]] = set()

    def backtrack(mask: int, node: int) -> None:
        if mask.bit_count() == 1:
            i = mask.bit_length() - 1
            if others[i] != node:
                edges_out.add(_edge(others[i], node))
            return
        u = int(relay[mask][node])
        if u != node:
            edges_out.add(_edge(u, node))
        sub = int(split_at[mask][u])
        backtrack(sub, u)
        backtrack(mask ^ sub, u)

    backtrack(full, root)

    used = sorted({i for e in edges_out for i in e} | set(node_of))
    remap = {old: new for new, old in enumerate(used)}
    # drop possible duplicates/cycles from tie backtracks, then normalize
    weighted = {(dist[i, j], remap[i], remap[j]) for i, j in edges_out}
    edge_list = [(i, j) for _, i, j in _kruskal(len(used), weighted)]
    terminal_ids = [remap[node_of_i] for node_of_i in node_of]
    return _finalize_steiner(nodes[used], terminal_ids, edge_list, 1)


def _triple_medians(points: np.ndarray) -> np.ndarray:
    """Distinct coordinate-wise medians of every vertex triple, sorted."""
    triples = np.array(list(itertools.combinations(range(len(points)), 3)), dtype=np.intp)
    middle = np.sort(points[triples.reshape(-1, 3)], axis=1)[:, 1]
    return np.unique(middle, axis=0)


def _steiner_l1_insertion(terminals: np.ndarray) -> Tree:
    """Iterated single-point insertion over Hanan grid candidates.

    A candidate's spanning tree is the MST of the current MST's edges plus
    the star from the candidate to every point.
    """
    n = len(terminals)
    pts = terminals.copy()
    grid = _hanan_grid(terminals) if _hanan_size(terminals) <= 512 else None
    while True:
        dist = _pairwise(pts, 1)
        edges = _mst_edges(dist)
        cur_len = float(sum(dist[i, j] for i, j in edges))
        if len(pts) - n >= n - 2:  # N - 2 Steiner points at most
            break
        cands = grid if grid is not None else _triple_medians(pts)
        k = len(pts)
        kept = [(float(dist[i, j]), i, j) for i, j in edges]  # _lp's bits
        best_gain, best_cand = 1e-12, None
        rows = max(1, _BLOCK_BYTES // (8 * k * pts.shape[1]))
        for lo in range(0, len(cands), rows):
            gaps = pts - cands[lo : lo + rows, None, :]  # (rows, k, D)
            stars = np.add.reduce(np.abs(gaps, out=gaps), axis=2).tolist()
            for cand, sums in zip(cands[lo : lo + rows], stars):
                if 0.0 in sums:  # the candidate is a point: its L1 gap sums to 0
                    continue
                star = [(d, i, k) for i, d in enumerate(sums)]
                new_len = 0.0
                for w, _, _ in _kruskal(k + 1, kept + star):
                    new_len += w
                gain = cur_len - new_len
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best_cand = cand
        if best_cand is None:
            break
        pts = np.vstack([pts, best_cand])
    return _finalize_steiner(pts, list(range(n)), edges, 1)


# ---------------------------------------------------------------------------
# L2 Steiner trees
# ---------------------------------------------------------------------------


def _scale(terminals: np.ndarray) -> float:
    """The factor on the L2 solvers' absolute tolerances: the terminals'
    largest coordinate extent, and 1 when that is smaller, so the tolerances
    are as written for every span up to 1."""
    return max(1.0, float(np.max(np.ptp(terminals, axis=0))))


def _full_topologies(n: int):
    """All full Steiner topologies on n terminals.

    Terminals are 0..n-1; Steiner vertices are n..2n-3, each of degree 3.
    Built by repeatedly splitting an edge of a smaller topology with a fresh
    Steiner vertex and hanging the next terminal off it.
    """
    base = [((0, n), (1, n), (2, n))]
    count_s = 1
    for t in range(3, n):
        nxt = []
        s_new = n + count_s
        for topo in base:
            for idx, (u, vv) in enumerate(topo):
                edges = list(topo)
                del edges[idx]
                edges += [(u, s_new), (vv, s_new), (t, s_new)]
                nxt.append(tuple(edges))
        base = nxt
        count_s += 1
    return base


def _fermat_polish(full: np.ndarray, edges, n_terminals: int, sweeps: int = 4000):
    """Gauss-Seidel sweeps setting each degree-3 Steiner vertex to its neighbors'
    Fermat point, until a sweep moves no coordinate by 5e-14 times `_scale`."""
    nbrs = _adjacency(edges)
    steps = [
        (full[s], full[ns[0]], full[ns[1]], full[ns[2]])
        for s in range(n_terminals, len(full))
        if len(ns := nbrs.get(s, ())) == 3
    ]
    tol = 5e-14 * _scale(full[:n_terminals])
    for _ in range(sweeps):
        settled = True
        for row, a, b, c in steps:
            target = _fermat3(a, b, c)
            if settled:  # a move of tol or more holds the sweep open, unless a
                # move of the same vertex is NaN (their sum is NaN only then)
                moves = [abs(t - r) for t, r in zip(target, row.tolist())]
                settled = max(moves) < tol or math.isnan(sum(moves))
            row[...] = target
        if settled:
            break
    return full


def _irls_topologies(
    terminals: np.ndarray, topologies, iters: int = 120
) -> tuple[np.ndarray, np.ndarray]:
    """Convex coordinate optimization of many fixed topologies at once.

    Iteratively reweighted least squares: with edge weights 1/length the
    stationarity system is linear in the Steiner coordinates; re-solving it
    drives the configuration to the global optimum of the (convex) total
    length. A small floor on edge lengths keeps degenerate topologies,
    whose Steiner points collapse onto terminals, numerically stable. The
    floor and the stop on a step's largest move scale with `_scale`, so
    the weights keep their ratios whatever the terminals' span.

    All topologies share the terminals and their edge and Steiner counts, so
    their systems are stacked and solved by one batched call per iteration.
    Each topology stops at its own convergence and is not updated after;
    the per-entry summation order matches a one-topology solve, so every
    topology gets the bits it would get alone. Returns the (k, n_t + n_s, D)
    vertex coordinates and the (k,) total lengths.
    """
    n_t, dim = terminals.shape
    edges = np.array(topologies, dtype=np.intp)  # (k, n_e, 2)
    k = len(edges)
    n_s = int(edges.max()) + 1 - n_t
    pos = np.empty((k, n_t + n_s, dim))
    pos[:, :n_t] = terminals
    pos[:, n_t:] = np.mean(terminals, axis=0)
    eu, ev = edges[..., 0], edges[..., 1]
    scale = _scale(terminals)
    floor, stop = 1e-14 * scale, 1e-11 * scale
    # the active topologies' coordinates, copied back into pos when some stop
    active, p, stale = np.arange(k), pos.copy(), True
    for _ in range(iters):
        if stale:  # index arrays of the active set, rebuilt only when it shrinks
            a = len(active)
            e_u, e_v = eu[active], ev[active]
            m_u, m_v = e_u >= n_t, e_v >= n_t
            i_u, i_v = e_u - n_t, e_v - n_t
            row = np.broadcast_to(np.arange(a)[:, None], e_u.shape)
            both, u_only, v_only = m_u & m_v, m_u & ~m_v, m_v & ~m_u
            at_u, at_v = (row[m_u], i_u[m_u], i_u[m_u]), (row[m_v], i_v[m_v], i_v[m_v])
            at_uv, at_vu = (row[both], i_u[both], i_v[both]), (row[both], i_v[both], i_u[both])
            # the far end of a Steiner-terminal edge is a terminal, never moved
            at_uo, far_uo = (row[u_only], i_u[u_only]), terminals[e_v[u_only]]
            at_vo, far_vo = (row[v_only], i_v[v_only]), terminals[e_u[v_only]]
            stale = False
        diff = p[row, e_u] - p[row, e_v]
        lens = np.sqrt(np.sum(diff * diff, axis=2))
        w = 1.0 / np.maximum(lens, floor)
        a_mat = np.zeros((a, n_s, n_s))
        rhs = np.zeros((a, n_s, dim))
        np.add.at(a_mat, at_u, w[m_u])
        np.add.at(a_mat, at_v, w[m_v])
        np.add.at(a_mat, at_uv, -w[both])
        np.add.at(a_mat, at_vu, -w[both])
        np.add.at(rhs, at_uo, w[u_only, None] * far_uo)
        np.add.at(rhs, at_vo, w[v_only, None] * far_vo)
        new_coords = np.linalg.solve(a_mat, rhs)
        move = np.max(np.abs(new_coords - p[:, n_t:]), axis=(1, 2))
        p[:, n_t:] = new_coords
        # a NaN move keeps iterating, as in a one-topology loop
        going = ~(move < stop)
        if not going.all():
            pos[active] = p
            active, p, stale = active[going], p[going], True
            if not active.size:
                break
    pos[active] = p
    row = np.arange(k)[:, None]
    diff = pos[row, eu] - pos[row, ev]
    lengths = np.sum(np.sqrt(np.sum(diff * diff, axis=2)), axis=1)
    return pos, lengths


def _steiner_l2_enumerate(terminals: np.ndarray) -> Tree:
    n = len(terminals)
    mst = minimum_spanning_tree(terminals, 2)
    best, best_key = mst, _tree_key(mst)
    # cheap convex solve on every topology, exact polish on the leaders only
    topologies = _full_topologies(n)
    if n == 3:
        # one topology, and the polish's first sweep overwrites any start
        fulls, lengths = [np.vstack([terminals, [_fermat3(*terminals)]])], [0.0]
    else:
        fulls, lengths = _irls_topologies(terminals, topologies)
    scored = [
        (float(length), topo, full)
        for length, topo, full in zip(lengths, topologies, fulls)
    ]
    scored.sort(key=lambda t: t[0])
    # IRLS may stop 1e-3 long (at unit span) on the optimal topology; walked
    # trees need it
    cutoff = scored[0][0] + 1e-2 * _scale(terminals) if scored else 0.0
    leaders = [s for s in scored[:8] if s[0] <= cutoff] or scored[:1]
    for _, topo, full in leaders:
        full = _fermat_polish(full, topo, n)
        tree = _finalize_steiner(full, list(range(n)), list(topo), 2)
        if tree is None:
            continue
        key = _tree_key(tree)
        if tree.length < best.length - 1e-12 or (
            abs(tree.length - best.length) <= 1e-12 and key < best_key
        ):
            best, best_key = tree, key
    return best


def _steiner_l2_greedy(terminals: np.ndarray) -> Tree:
    """Greedy corner smoothing: insert Fermat points where edges meet below 120 deg."""
    n = len(terminals)
    pts = [t.copy() for t in terminals]
    edges = {_edge(i, j) for i, j in _mst_edges(_pairwise(terminals, 2))}
    cos_limit = -0.5 + 1e-9
    for _ in range(n - 2):
        best = None
        for v, ns in _adjacency(edges).items():
            for a, b in itertools.combinations(sorted(ns), 2):
                ea = pts[a] - pts[v]
                eb = pts[b] - pts[v]
                la, lb = math.sqrt(ea.dot(ea)), math.sqrt(eb.dot(eb))
                if la <= COINCIDE_TOL or lb <= COINCIDE_TOL:
                    continue
                cosang = float(np.dot(ea, eb) / (la * lb))
                if cosang <= cos_limit:
                    continue  # already >= 120 degrees apart
                f = np.array(_fermat3(pts[v], pts[a], pts[b]))
                gain = la + lb
                for d in (f - pts[v], f - pts[a], f - pts[b]):
                    gain -= math.sqrt(d.dot(d))
                if gain > 1e-12 and (best is None or gain > best[0]):
                    best = (gain, v, a, b, f)
        if best is None:
            break
        _, v, a, b, f = best
        s = len(pts)
        pts.append(f)
        # discard and update, not difference_update (which can rehash): the
        # set's iteration order fixes neighbour order and the polish's bits
        edges.discard(_edge(v, a))
        edges.discard(_edge(v, b))
        edges.update({_edge(v, s), _edge(a, s), _edge(b, s)})
        _splice(edges, range(n))
    all_pts = _fermat_polish(np.array(pts), list(edges), n)
    tree = _finalize_steiner(all_pts, list(range(n)), list(edges), 2)
    return minimum_spanning_tree(terminals, 2) if tree is None else tree


# ---------------------------------------------------------------------------
# Shared finalization
# ---------------------------------------------------------------------------


def _finalize_steiner(
    vertices: np.ndarray,
    terminal_ids: Sequence[int],
    edges: Sequence[tuple[int, int]],
    p: int,
) -> Optional[Tree]:
    """Contract zero-length edges, splice pass-through Steiner points, canonicalize.

    Vertices come out as the terminals in input order, then the Steiner
    points by coordinates. Returns None when contraction leaves an L2
    Steiner vertex without degree 3 (the caller then discards this
    candidate topology).
    """
    n_vert = len(vertices)
    parent = list(range(n_vert))
    terminal_set = set(terminal_ids)

    # only edges contract: merging vertices that no edge joins could close a cycle
    for i, j in edges:
        if _lp(vertices[i], vertices[j], p) <= COINCIDE_TOL:
            ri, rj = _find(parent, i), _find(parent, j)
            # keep terminal representatives so merges fold into terminals
            if ri in terminal_set:
                parent[rj] = ri
            else:
                parent[ri] = rj

    root = [_find(parent, i) for i in range(n_vert)]
    first = {}
    for i, r in enumerate(root):
        first.setdefault(r, i)
    new_edges = {_edge(root[i], root[j]) for i, j in edges if root[i] != root[j]}
    terms = list(dict.fromkeys(root[t] for t in terminal_ids))
    _splice(new_edges, set(terms))

    steiner = sorted(
        {v for e in new_edges for v in e}.difference(terms),
        key=lambda v: (tuple(vertices[v]), first[v]),
    )
    order = terms + steiner
    pos = {v: k for k, v in enumerate(order)}
    tree = _make_tree(
        vertices[order], range(len(terms)), [(pos[a], pos[b]) for a, b in new_edges], p
    )
    if p == 2 and np.any(tree.degrees()[len(terms):] != 3):
        return None
    return tree


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def steiner_tree(terminals, p, mode: str = "auto") -> Tree:
    """Tree of minimum (or near-minimum) total Lp length spanning the terminals.

    mode selects the solver: "exact-small" enumerates within a budget and is
    limited to N <= 6 terminals; "heuristic" runs the bounded heuristics,
    but L2 enumerates up to 6 terminals in every mode; "auto" uses the exact
    solver when it fits the budget and falls back to the heuristic; `exact`
    tells which ran. L1 answers 3 terminals in every mode, in any dimension,
    with the exact star through their coordinate-wise median. The L1 budget
    holds for 4-6 terminals: a byte cap on the grid DP's (v, v) distance
    matrix plus one working block, checked before anything is allocated.
    """
    p = _check_norm(p)
    if mode not in ("exact-small", "heuristic", "auto"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    pts = _as_points(terminals, "terminals")
    if p == 2:
        _check_l2_extent(pts, "terminals")
    n = len(pts)
    if n <= 2:
        return replace(_make_tree(pts, range(n), [(0, 1)][: n - 1], p), exact=True)
    if mode == "exact-small" and n > _L2_EXACT_MAX_TERMINALS:
        raise BudgetExceededError(
            f"exact-small mode supports at most {_L2_EXACT_MAX_TERMINALS} terminals, got {n}"
        )

    if p == 1:
        if n == 3:
            star = _finalize_steiner(
                np.vstack([pts, geometric_median(pts, 1)]), [0, 1, 2], [(0, 3), (1, 3), (2, 3)], 1
            )
            return replace(star, exact=True)
        if mode == "exact-small" or (mode == "auto" and n <= _L2_EXACT_MAX_TERMINALS):
            try:
                return replace(_steiner_l1_exact(pts), exact=True)
            except BudgetExceededError:
                if mode == "exact-small":
                    raise
        return _steiner_l1_insertion(pts)
    if mode == "exact-small" or n <= _L2_EXACT_MAX_TERMINALS:
        return replace(_steiner_l2_enumerate(pts), exact=True)
    return _steiner_l2_greedy(pts)
