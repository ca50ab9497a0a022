import itertools
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree as scipy_mst

from evotree import geometry as geo
from evotree.errors import BudgetExceededError, InvalidInputError


def scipy_mst_length(points, p):
    """Independent MST oracle via scipy's Kruskal on the full distance matrix."""
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    if p == 1:
        dist = np.abs(diff).sum(axis=2)
    else:
        dist = np.sqrt((diff * diff).sum(axis=2))
    return float(scipy_mst(dist).sum())


def brute_l1_steiner_length(points):
    """Exhaustive Hanan-grid subset search; independent of the grid DP."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    axes = [np.unique(pts[:, k]) for k in range(d)]
    grid = np.array(list(itertools.product(*axes)))
    is_terminal = [
        any(np.array_equal(gp, t) for t in pts) for gp in grid
    ]
    candidates = [gp for gp, t in zip(grid, is_terminal) if not t]
    best = scipy_mst_length(pts, 1)
    for k in range(1, max(0, n - 2) + 1):
        for combo in itertools.combinations(range(len(candidates)), k):
            aug = np.vstack([pts] + [candidates[i] for i in combo])
            best = min(best, scipy_mst_length(aug, 1))
    return best


def weiszfeld_oracle(points, iters=200000, tol=1e-14):
    pts = np.asarray(points, dtype=float)
    x = pts.mean(axis=0) + 1e-4
    for _ in range(iters):
        dist = np.linalg.norm(pts - x, axis=1)
        if np.any(dist < 1e-15):
            break
        w = 1.0 / dist
        x_new = (pts * w[:, None]).sum(axis=0) / w.sum()
        if np.linalg.norm(x_new - x) < tol:
            x = x_new
            break
        x = x_new
    return x


def reference_irls_topology(terminals, edges, n_s, iters):
    """One-topology IRLS loop: the reference the batched solve must equal. Its
    floor and stop are 1e-14 and 1e-11 times the terminals' largest coordinate
    extent, or times 1 when that is smaller."""
    n_t, dim = terminals.shape
    scale = max(1.0, float(np.max(np.max(terminals, axis=0) - np.min(terminals, axis=0))))
    pos = np.vstack([terminals, np.tile(np.mean(terminals, axis=0), (n_s, 1))])
    eu = np.fromiter((e[0] for e in edges), dtype=int)
    ev = np.fromiter((e[1] for e in edges), dtype=int)
    u_s = eu >= n_t
    v_s = ev >= n_t
    for _ in range(iters):
        diff = pos[eu] - pos[ev]
        lens = np.sqrt(np.sum(diff * diff, axis=1))
        w = 1.0 / np.maximum(lens, 1e-14 * scale)
        a_mat = np.zeros((n_s, n_s))
        rhs = np.zeros((n_s, dim))
        iu = eu - n_t
        iv = ev - n_t
        np.add.at(a_mat, (iu[u_s], iu[u_s]), w[u_s])
        np.add.at(a_mat, (iv[v_s], iv[v_s]), w[v_s])
        both = u_s & v_s
        np.add.at(a_mat, (iu[both], iv[both]), -w[both])
        np.add.at(a_mat, (iv[both], iu[both]), -w[both])
        u_only = u_s & ~v_s
        v_only = v_s & ~u_s
        np.add.at(rhs, iu[u_only], w[u_only, None] * pos[ev[u_only]])
        np.add.at(rhs, iv[v_only], w[v_only, None] * pos[eu[v_only]])
        new_coords = np.linalg.solve(a_mat, rhs)
        move = float(np.max(np.abs(new_coords - pos[n_t:])))
        pos[n_t:] = new_coords
        if move < 1e-11 * scale:
            break
    diff = pos[eu] - pos[ev]
    length = float(np.sum(np.sqrt(np.sum(diff * diff, axis=1))))
    return pos, length


def reference_fermat3(va, vb, vc):
    """Array-based Fermat point: the reference the scalar version must equal."""
    verts = (va, vb, vc)
    sides = np.array(
        [np.linalg.norm(vb - vc), np.linalg.norm(vc - va), np.linalg.norm(va - vb)]
    )
    scale = float(np.max(sides))
    if scale <= 0.0:
        return va.copy()
    if np.min(sides) <= 1e-12 * scale:
        return verts[(int(np.argmin(sides)) + 1) % 3].copy()
    longest = int(np.argmax(sides))
    others = sides[[i for i in range(3) if i != longest]]
    if abs(float(np.sum(others)) - float(sides[longest])) <= 1e-12 * scale:
        return verts[longest].copy()
    cosines = np.empty(3)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        cosines[i] = (sides[j] ** 2 + sides[k] ** 2 - sides[i] ** 2) / (
            2.0 * sides[j] * sides[k]
        )
    wide = int(np.argmin(cosines))
    if cosines[wide] <= -0.5 + 1e-15:
        return verts[wide].copy()
    angles = np.arccos(np.clip(cosines, -1.0, 1.0))
    weights = sides / np.sin(angles + math.pi / 3.0)
    weights = weights / np.sum(weights)
    return weights[0] * va + weights[1] * vb + weights[2] * vc


def reference_polish_fermat3(va, vb, vc):
    """Fermat step of `reference_fermat_polish`: side lengths and cosines as
    Python floats, then the clip, angles and weights as numpy arrays."""
    verts = (va, vb, vc)
    sides = [math.sqrt(d.dot(d)) for d in (vb - vc, vc - va, va - vb)]
    scale = max(sides)
    if scale <= 0.0:
        return va.copy()
    shortest = min(sides)
    if shortest <= 1e-12 * scale:
        dup = sides.index(shortest)
        return verts[(dup + 1) % 3].copy()
    longest = sides.index(scale)
    others = [sides[i] for i in range(3) if i != longest]
    if abs(others[0] + others[1] - scale) <= 1e-12 * scale:
        return verts[longest].copy()
    cosines = [
        (sides[j] ** 2 + sides[k] ** 2 - sides[i] ** 2) / (2.0 * sides[j] * sides[k])
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]
    widest = min(cosines)
    if widest <= -0.5 + 1e-15:
        return verts[cosines.index(widest)].copy()
    angles = np.arccos(np.clip(cosines, -1.0, 1.0))
    weights = np.array(sides) / np.sin(angles + math.pi / 3.0)
    weights = weights / np.sum(weights)
    return weights[0] * va + weights[1] * vb + weights[2] * vc


def reference_fermat_polish(full, edges, n_terminals, sweeps=4000):
    """Gauss-Seidel polish indexing `full` on every step: the reference the
    library's polish must equal bit for bit."""
    nbrs = geo._adjacency(edges)
    for _ in range(sweeps):
        move = 0.0
        for s in range(n_terminals, len(full)):
            ns = nbrs.get(s, [])
            if len(ns) != 3:
                continue
            target = reference_polish_fermat3(full[ns[0]], full[ns[1]], full[ns[2]])
            move = max(move, float(np.max(np.abs(target - full[s]))))
            full[s] = target
        if move < 5e-14:
            break
    return full


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns: signed zeros and NaN
    payloads count."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def l1_triples(draw):
    """(kind, three points in D = 1-6), uniform in [0, 1] from a drawn seed,
    then by kind: uniform as drawn; grid (rounded to multiples of 1/4); ulps
    (on some axes, one value, the first point's or 0, 0.5 or 1, and its
    neighbours up to 2 floats away); signed-zero (some coordinates 0.0 or
    -0.0); duplicate (two or three points one)."""
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["uniform", "grid", "ulps", "signed-zero", "duplicate"]))
    pts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((3, d))
    if kind == "grid":
        pts = np.round(pts * 4.0) / 4.0
    elif kind == "ulps":
        for a in range(d):
            if draw(st.booleans()):
                base = draw(st.sampled_from([pts[0, a], 0.0, 0.5, 1.0]))
                for i in range(3):
                    steps, x = draw(st.integers(-2, 2)), base
                    for _ in range(abs(steps)):
                        x = np.nextafter(x, math.copysign(math.inf, steps))
                    pts[i, a] = x
    elif kind == "signed-zero":
        for i, a in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, d - 1)))):
            pts[i, a] = draw(st.sampled_from([0.0, -0.0]))
    elif kind == "duplicate":
        i, j, k = draw(st.permutations(range(3)))
        pts[j] = pts[i]
        if draw(st.booleans()):
            pts[k] = pts[i]
    return kind, pts


@st.composite
def point_sets(draw, sizes, dims, kinds):
    """Points in [0, 1]^D of one drawn kind.

    general; coincident (one point duplicated); collinear; equal (all one
    point); obtuse (the last point near the middle of the first two); ties
    (every coordinate a multiple of 1/4, so coordinates and points repeat);
    near-120 (the first three points a triangle whose angle at the first
    point is within 1e-12 rad of 120 degrees).
    """
    n = draw(sizes)
    d = draw(dims)
    pts = np.array(draw(st.lists(st.lists(unit, min_size=d, max_size=d),
                                 min_size=n, max_size=n)))
    kind = draw(st.sampled_from(kinds))
    if kind == "coincident":
        i, j = draw(st.permutations(range(n)))[:2]
        pts[j] = pts[i]
    elif kind == "collinear":
        ts = draw(st.lists(st.floats(-1.0, 2.0), min_size=n, max_size=n))
        pts = pts[0] + np.array(ts)[:, None] * (pts[1] - pts[0])
    elif kind == "equal":
        pts[:] = pts[0]
    elif kind == "obtuse":
        h = draw(st.floats(0.0, 0.3))
        mid = 0.5 * (pts[0] + pts[1])
        pts[-1] = mid + h * (pts[-1] - mid)
    elif kind == "ties":
        pts = np.round(pts * 4.0) / 4.0
    elif kind == "near-120":
        # an orthonormal pair: a drawn direction, and the axis least aligned
        # with it made orthogonal to it
        e1 = pts[1] - pts[0]
        if np.linalg.norm(e1) < 1e-3:
            e1 = np.eye(d)[0]
        e1 = e1 / np.linalg.norm(e1)
        k = int(np.argmin(np.abs(e1)))
        e2 = np.eye(d)[k] - e1[k] * e1
        e2 = e2 / np.linalg.norm(e2)
        theta = 2.0 * math.pi / 3.0 + draw(st.floats(-1e-12, 1e-12))
        r1, r2 = draw(st.floats(0.05, 0.45)), draw(st.floats(0.05, 0.45))
        pts[0] = 0.5
        pts[1] = 0.5 + r1 * e1
        pts[2] = 0.5 + r2 * (math.cos(theta) * e1 + math.sin(theta) * e2)
    return pts


def angle_residuals(tree):
    out = []
    for s in tree.steiner_ids:
        nb = tree.neighbors(s)
        for a, b in itertools.combinations(range(len(nb)), 2):
            ea = tree.vertices[nb[a]] - tree.vertices[s]
            eb = tree.vertices[nb[b]] - tree.vertices[s]
            c = float(np.dot(ea, eb) / (np.linalg.norm(ea) * np.linalg.norm(eb)))
            out.append(abs(math.acos(max(-1.0, min(1.0, c))) - 2 * math.pi / 3))
    return out


class TestLpDistance:
    def test_l1(self):
        assert geo.lp_distance((0, 0), (3, 4), 1) == pytest.approx(7.0)

    def test_l2(self):
        assert geo.lp_distance((0, 0), (3, 4), 2) == pytest.approx(5.0)

    def test_identity(self):
        assert geo.lp_distance((0.3, -2.0, 5.1), (0.3, -2.0, 5.1), 1) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            geo.lp_distance((0, 0), (1, 2, 3), 2)

    def test_bad_norm(self):
        with pytest.raises(InvalidInputError):
            geo.lp_distance((0, 0), (1, 1), 3)

    # BLAS dot products and Python sums differ in the last bit on a good
    # share of short vectors, so each form is pinned to its reference bits
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 6), st.sampled_from([1, 2]), st.data())
    def test_row_form_is_lp_on_each_row(self, d, k, p, data):
        coord = st.one_of(unit, st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))
        vec = st.lists(coord, min_size=d, max_size=d)
        rows = np.array(data.draw(st.lists(vec, min_size=k, max_size=k)), dtype=float)
        b = np.array(data.draw(vec), dtype=float)
        if data.draw(st.booleans()):
            rows[0] = b  # a zero row
        want = np.array([reference_lp(r, b, p) for r in rows])
        assert np.array([geo._lp(r, b, p) for r in rows]).tobytes() == want.tobytes()
        assert geo._lp(rows, b, p, axis=-1).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10).flatmap(
        lambda d: st.lists(st.floats(-1e150, 1e150), min_size=d, max_size=d)))
    def test_sqrt_of_dot_is_linalg_norm(self, v):
        v = np.array(v)
        assert math.sqrt(v.dot(v)) == np.linalg.norm(v)


def reference_lp(a, b, p):
    """_lp as np.sum and np.sqrt calls, the bits its cheaper form must keep."""
    d = a - b
    if p == 1:
        return float(np.sum(np.abs(d)))
    return float(np.sqrt(np.sum(d * d)))


class TestMinimumSpanningTree:
    def test_two_points(self):
        t = geo.minimum_spanning_tree([(0, 0), (3, 4)], 2)
        assert t.length == pytest.approx(5.0)
        assert t.edges == ((0, 1),)
        assert t.steiner_ids == ()

    def test_collinear_chain(self):
        t = geo.minimum_spanning_tree([[0.0], [1.0], [10.0]], 1)
        assert t.length == pytest.approx(10.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            geo.minimum_spanning_tree([], 1)

    def test_wide_triangle_equals_l2_steiner(self):
        # one angle >= 120 degrees: the Steiner tree degenerates to the MST
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.05)]
        mst = geo.minimum_spanning_tree(pts, 2)
        st = geo.steiner_tree(pts, 2, "exact-small")
        assert st.length == pytest.approx(mst.length, abs=1e-9)
        assert st.steiner_ids == ()

    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 5))
            pts = rng.random((n, d))
            for p in (1, 2):
                mine = geo.minimum_spanning_tree(pts, p).length
                assert mine == pytest.approx(scipy_mst_length(pts, p), abs=1e-9)


class TestSteinerL1:
    def test_unit_square_exact(self):
        t = geo.steiner_tree([(0, 0), (1, 0), (0, 1), (1, 1)], 1, "exact-small")
        assert t.length == pytest.approx(3.0, abs=1e-12)

    def test_unit_square_heuristic(self):
        t = geo.steiner_tree([(0, 0), (1, 0), (0, 1), (1, 1)], 1, "heuristic")
        assert t.length == pytest.approx(3.0, abs=1e-12)

    def test_single_terminal(self):
        t = geo.steiner_tree([(0.5, 0.5)], 1)
        assert t.length == 0.0
        assert t.edges == ()

    def test_exact_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            n = int(rng.integers(3, 5))
            d = int(rng.integers(2, 4))
            pts = rng.random((n, d))
            exact = geo.steiner_tree(pts, 1, "exact-small")
            geo.validate_tree(exact)
            assert exact.length == pytest.approx(
                brute_l1_steiner_length(pts), abs=1e-9
            )

    def test_exact_structurally_valid(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(3, 7))
            d = int(rng.integers(2, 4))
            pts = rng.random((n, d))
            geo.validate_tree(geo.steiner_tree(pts, 1, "exact-small"))

    def test_exact_star_median(self):
        # three points: optimal L1 tree is the star through the coordinate median
        pts = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 2.0]])
        t = geo.steiner_tree(pts, 1, "exact-small")
        assert t.length == pytest.approx(4.0, abs=1e-12)
        steiner = t.vertices[list(t.steiner_ids)]
        assert steiner.shape == (1, 2)
        assert np.allclose(steiner[0], [1.0, 1.0])

    def test_steiner_points_on_hanan_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            d = int(rng.integers(2, 4))
            pts = rng.random((n, d))
            t = geo.steiner_tree(pts, 1, "heuristic")
            axes = [set(pts[:, k]) for k in range(d)]
            for s in t.steiner_ids:
                for k in range(d):
                    assert any(
                        abs(t.vertices[s][k] - v) < 1e-12 for v in axes[k]
                    )

    def test_exact_budget_error(self):
        rng = np.random.default_rng(3)
        pts = rng.random((7, 2))
        with pytest.raises(BudgetExceededError):
            geo.steiner_tree(pts, 1, "exact-small")

    def test_three_terminals_past_the_byte_cap_meet_at_the_median(self):
        # D = 9: axis 0 holds 0, 1 and 0.5, and axes 1-8 permute 0.5 and its
        # next two floats. Their Hanan grid has 3^9 nodes, whose closure the
        # byte cap refuses; three terminals meet at their median in closed
        # form, with no grid
        close = [0.5, np.nextafter(0.5, 1.0), np.nextafter(np.nextafter(0.5, 1.0), 1.0)]
        orders = list(itertools.permutations(close))
        pts = np.column_stack([[0.0, 1.0, 0.5]] + [orders[d % 6] for d in range(1, 9)])
        t = geo.steiner_tree(pts, 1, "exact-small")
        assert t.exact
        geo.validate_tree(t)
        assert abs(t.length - np.sum(np.ptp(pts, axis=0))) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(l1_triples())
    def test_three_terminals_are_the_median_star(self, case):
        # Hwang (1976): the closed form against the grid DP on the full grid
        kind, pts = case
        want = geo._steiner_l1_exact(pts)
        median = np.sort(pts, axis=0)[1]
        trees = [geo.steiner_tree(pts, 1, mode) for mode in ("exact-small", "heuristic", "auto")]
        for t in trees:
            assert t.exact
            assert t.vertices.tobytes() == trees[0].vertices.tobytes() and t.edges == trees[0].edges
            assert all(np.array_equal(t.vertices[s], median) for s in t.steiner_ids)
        got = trees[0]
        geo.validate_tree(got)
        if kind == "ulps":
            # the Steiner point may move by ulps
            assert abs(got.length - want.length) <= 1e-12
        else:
            assert np.array_equal(got.vertices, want.vertices)
            assert (got.terminal_ids, got.edges, got.length) == (
                want.terminal_ids, want.edges, want.length)
            # the grid holds one zero for 0.0 and -0.0, the star each
            # terminal's own
            if kind != "signed-zero":
                assert got.vertices.tobytes() == want.vertices.tobytes()

    def test_hanan_size_counts_distinct_coordinates(self):
        pts = np.array([(0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (2.0, 1.0, 1.0)])
        assert geo._hanan_size(pts) == len(geo._hanan_grid(pts)) == 4

    def test_large_grid_never_built(self, monkeypatch):
        # 6 terminals in D=5: 7776 grid nodes, over both the exact budget
        # and the heuristic's full-grid limit, so no grid is materialized
        built = []
        real = geo._hanan_grid
        monkeypatch.setattr(
            geo, "_hanan_grid", lambda t: built.append(len(t)) or real(t)
        )
        rng = np.random.default_rng(8)
        geo.steiner_tree(rng.random((6, 5)), 1, "auto")
        assert built == []

    def test_l1_in_bounded_memory(self):
        # Under a 1.5 GiB address-space limit of its own, a child process
        # answers three terminals in D=8 (6561 grid nodes) exactly in closed
        # form, with no grid; refuses 4 terminals in D=8 (65536 grid nodes, a
        # 32 GiB distance matrix) before allocating; and answers 11 terminals
        # in D=8 (a 2.1e8-node grid, 13.7 GB) by the heuristic without
        # building the grid.
        code = (
            "import resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
            "import numpy as np\n"
            "from evotree.errors import BudgetExceededError\n"
            "from evotree.geometry import steiner_tree\n"
            "pts = np.random.default_rng(0).random((3, 8))\n"
            "steiner_tree(pts, 1, 'exact-small')  # warm-up\n"
            "start = time.perf_counter()\n"
            "tree = steiner_tree(pts, 1, 'exact-small')\n"
            "took = time.perf_counter() - start\n"
            "assert took < 0.01, took\n"
            "assert tree.exact and len(tree.terminal_ids) == 3\n"
            "assert abs(tree.length - np.sum(np.ptp(pts, axis=0))) <= 1e-12, tree.length\n"
            "auto = steiner_tree(pts, 1, 'auto')\n"
            "assert auto.edges == tree.edges and np.array_equal(auto.vertices, tree.vertices)\n"
            "pts = np.random.default_rng(2).random((4, 8))\n"
            "try:\n"
            "    steiner_tree(pts, 1, 'exact-small')\n"
            "    raise SystemExit('exact-small did not refuse')\n"
            "except BudgetExceededError:\n"
            "    pass\n"
            "tree = steiner_tree(pts, 1, 'auto')\n"
            "assert len(tree.terminal_ids) == 4 and not tree.exact\n"
            "pts = np.random.default_rng(1).random((11, 8))\n"
            "tree = steiner_tree(pts, 1, 'auto')\n"
            "assert len(tree.terminal_ids) == 11\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(geo.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
        res = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert res.returncode == 0, res.stderr


def reference_triple_medians(points):
    """The set-of-tuples loop _triple_medians replaced, one np.median per triple."""
    cands = set()
    for i, j, k in itertools.combinations(range(len(points)), 3):
        cands.add(tuple(np.median(points[[i, j, k]], axis=0)))
    return np.array(sorted(cands)) if cands else np.empty((0, points.shape[1]))


def reference_l1_insertion(terminals):
    """The insertion loop with each candidate's spanning tree rebuilt from
    scratch, kept edges' weights included, over reference_triple_medians."""
    n = len(terminals)
    pts = terminals.copy()
    grid = geo._hanan_grid(terminals) if geo._hanan_size(terminals) <= 512 else None
    while True:
        dist = geo._pairwise(pts, 1)
        edges = geo._mst_edges(dist)
        cur_len = float(sum(dist[i, j] for i, j in edges))
        if len(pts) - n >= n - 2:
            break
        cands = grid if grid is not None else reference_triple_medians(pts)
        best_gain, best_cand = 1e-12, None
        for cand in cands:
            if np.any(np.all(np.abs(pts - cand) <= 0.0, axis=1)):
                continue
            m = len(pts)
            d_cand = np.sum(np.abs(pts - cand), axis=1)
            weighted = [(geo._lp(pts[i], pts[j], 1), i, j) for i, j in edges]
            weighted += [(float(d_cand[i]), i, m) for i in range(m)]
            new_len = 0.0
            for w, _, _ in geo._kruskal(m + 1, weighted):
                new_len += w
            if cur_len - new_len > best_gain + 1e-15:
                best_gain, best_cand = cur_len - new_len, cand
        if best_cand is None:
            break
        pts = np.vstack([pts, best_cand])
    return geo._finalize_steiner(pts, list(range(n)), edges, 1)


L1_KINDS = ["general", "coincident", "collinear", "equal", "ties"]


class TestL1Insertion:
    @settings(max_examples=200, deadline=None)
    @given(point_sets(st.integers(2, 9), st.integers(1, 8), L1_KINDS))
    def test_triple_medians_equal_the_per_triple_loop(self, pts):
        got = geo._triple_medians(pts)
        want = reference_triple_medians(pts)
        assert got.shape == want.shape and np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(point_sets(st.integers(3, 8), st.integers(1, 8), L1_KINDS))
    def test_insertion_equals_the_per_candidate_loop(self, pts):
        got = geo._steiner_l1_insertion(pts)
        want = reference_l1_insertion(pts)
        assert np.array_equal(got.vertices, want.vertices)
        assert got.terminal_ids == want.terminal_ids
        assert got.edges == want.edges
        assert got.length == want.length

    @pytest.mark.parametrize("block_bytes", [1, 4096])
    @settings(max_examples=100, deadline=None)
    @given(point_sets(st.integers(3, 8), st.integers(1, 8), L1_KINDS))
    def test_candidate_blocks_do_not_change_the_tree(self, block_bytes, pts):
        want = geo._steiner_l1_insertion(pts)
        with mock.patch.object(geo, "_BLOCK_BYTES", block_bytes):
            got = geo._steiner_l1_insertion(pts)
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert (got.terminal_ids, got.edges) == (want.terminal_ids, want.edges)
        assert got.length == want.length


def reference_pairwise(points, p):
    """One-shot (v, v, D) distance build: the reference the blocked one must equal."""
    diff = points[:, None, :] - points[None, :, :]
    if p == 1:
        return np.sum(np.abs(diff), axis=2)
    return np.sqrt(np.sum(diff * diff, axis=2))


def reference_l1_exact(terminals):
    """The dense subset DP on the Hanan grid for every terminal count: one
    (v, v) relay sum per subset over a one-shot metric closure."""
    nodes = geo._hanan_grid(terminals)
    v = len(nodes)
    dist = reference_pairwise(nodes, 1)
    node_of = [int(np.where(np.all(nodes == t, axis=1))[0][0]) for t in terminals]
    others = node_of[1:]
    k = len(others)
    full = (1 << k) - 1
    dp = {1 << i: dist[others[i]] for i in range(k)}
    split_at, relay = {}, {}
    for mask in range(1, full + 1):
        if mask.bit_count() == 1:
            continue
        low = mask & (-mask)
        best = best_split = None
        sub = (mask - 1) & mask
        while sub > 0:
            if sub & low:
                cand = dp[sub] + dp[mask ^ sub]
                if best is None:
                    best, best_split = cand, np.full(v, sub, dtype=np.int64)
                else:
                    better = cand < best
                    best = np.where(better, cand, best)
                    best_split[better] = sub
            sub = (sub - 1) & mask
        total = best[:, None] + dist
        arg = np.argmin(total, axis=0)
        dp[mask], relay[mask], split_at[mask] = total[arg, np.arange(v)], arg, best_split
    edges = set()

    def backtrack(mask, node):
        if mask.bit_count() == 1:
            i = mask.bit_length() - 1
            if others[i] != node:
                edges.add(geo._edge(others[i], node))
            return
        u = int(relay[mask][node])
        if u != node:
            edges.add(geo._edge(u, node))
        sub = int(split_at[mask][u])
        backtrack(sub, u)
        backtrack(mask ^ sub, u)

    backtrack(full, node_of[0])
    used = sorted({i for e in edges for i in e} | set(node_of))
    remap = {old: new for new, old in enumerate(used)}
    verts = nodes[used]
    sub_dist = reference_pairwise(verts, 1)
    weighted = {(sub_dist[remap[i], remap[j]], remap[i], remap[j]) for i, j in edges}
    kept = [(i, j) for _, i, j in geo._kruskal(len(verts), weighted)]
    return geo._finalize_steiner(verts, [remap[i] for i in node_of], kept, 1)


class TestL1ExactOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        point_sets(st.integers(3, 6), st.integers(1, 6), L1_KINDS),
        st.sampled_from([None, 64, 4096]),
    )
    def test_exact_equals_the_dense_dp(self, pts, block_bytes):
        n, d = pts.shape
        v = geo._hanan_size(pts)
        # grids the dense reference holds (256 MiB of (v, v, D) float64),
        # with a test-time limit on its work
        assume(2 ** (n - 1) * v * v <= 2e7)
        assume(8 * v * v * d <= 256 * 2**20)
        want = reference_l1_exact(pts)
        # small blocks split the distance rows and relay columns of small grids
        with mock.patch.object(geo, "_BLOCK_BYTES", block_bytes or geo._BLOCK_BYTES):
            got = geo._steiner_l1_exact(pts)
        assert np.array_equal(got.vertices, want.vertices)
        assert got.terminal_ids == want.terminal_ids
        assert got.edges == want.edges
        assert got.norm == want.norm == 1
        assert got.length == want.length
        assert got.exact == want.exact

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_pairwise_equals_the_one_shot_build(self, p, dim):
        rng = np.random.default_rng([p, dim])
        # row counts around and off the block's row count, which is
        # _BLOCK_BYTES // (8 * v * D)
        for v in (1, 2, 7, 1000, 1031):
            pts = rng.random((v, dim))
            for block_bytes in (geo._BLOCK_BYTES, 8 * v * dim * 3 - 1):
                with mock.patch.object(geo, "_BLOCK_BYTES", block_bytes):
                    got = geo._pairwise(pts, p)
                assert got.shape == (v, v)
                assert np.array_equal(got, reference_pairwise(pts, p))


class TestSteinerL2:
    def test_equilateral_triangle(self):
        tri = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
        t = geo.steiner_tree(tri, 2, "exact-small")
        assert t.length == pytest.approx(math.sqrt(3), abs=1e-9)
        steiner = t.vertices[list(t.steiner_ids)]
        assert steiner.shape == (1, 2)
        assert np.allclose(steiner[0], np.mean(tri, axis=0), atol=1e-9)
        assert max(angle_residuals(t)) < 1e-6

    def test_square_corners(self):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
        t = geo.steiner_tree(pts, 2, "exact-small")
        assert t.length == pytest.approx(1 + math.sqrt(3), abs=1e-9)
        assert len(t.steiner_ids) == 2
        assert max(angle_residuals(t)) < 1e-6

    def test_obtuse_triangle_no_steiner(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.5)]
        t = geo.steiner_tree(pts, 2, "exact-small")
        mst = geo.minimum_spanning_tree(pts, 2)
        assert t.length == pytest.approx(mst.length, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        point_sets(
            st.integers(3, 6), st.integers(2, 6), ["general", "coincident", "collinear"]
        )
    )
    def test_batched_irls_equals_one_topology_loop(self, pts):
        n = len(pts)
        topologies = geo._full_topologies(n)
        fulls, lengths = geo._irls_topologies(pts, topologies)
        assert fulls.shape == (len(topologies), 2 * n - 2, pts.shape[1])
        for topo, full, length in zip(topologies, fulls, lengths):
            ref_pos, ref_len = reference_irls_topology(pts, topo, n - 2, 120)
            assert np.array_equal(full, ref_pos)
            assert float(length) == ref_len


    @settings(max_examples=300, deadline=None)
    @given(
        point_sets(
            st.just(3),
            st.integers(2, 8),
            ["general", "coincident", "collinear", "equal", "obtuse"],
        )
    )
    def test_three_terminals_closed_form_equals_irls_path(self, pts):
        # the former 3-terminal path: IRLS start, polish, finalize, then the
        # spanning tree tie-break
        topo = geo._full_topologies(3)[0]
        fulls, _ = geo._irls_topologies(pts, [topo])
        full = geo._fermat_polish(fulls[0], topo, 3)
        best = geo.minimum_spanning_tree(pts, 2)
        tree = geo._finalize_steiner(full, [0, 1, 2], list(topo), 2)
        if tree is not None and (
            tree.length < best.length - 1e-12
            or (
                abs(tree.length - best.length) <= 1e-12
                and geo._tree_key(tree) < geo._tree_key(best)
            )
        ):
            best = tree
        got = geo._steiner_l2_enumerate(pts)
        assert np.array_equal(got.vertices, best.vertices)
        assert got.terminal_ids == best.terminal_ids
        assert got.edges == best.edges
        assert got.length == best.length


@st.composite
def spanning_trees(draw):
    """(vertices, clusters, n_terminals, edges), terminals first.

    Vertices sit in clusters around distinct grid points, each on its
    cluster's point or moved off it by at most COINCIDE_TOL / 4 in L1.
    The edges are a random spanning tree in which every cluster is
    connected on its own, as a solver's coincident points are joined
    through each other: two coincident vertices joined only through
    distant ones would close a cycle when merged.
    """
    dim = draw(st.integers(1, 3))
    n_terminals = draw(st.integers(1, 6))
    n = n_terminals + draw(st.integers(0, 4))
    grid = st.lists(st.integers(0, 9), min_size=dim, max_size=dim).map(tuple)
    bases = draw(st.lists(grid, min_size=n, max_size=n, unique=True))
    cluster = []
    for i in range(n):
        shared = i and draw(st.integers(0, 3)) == 0
        cluster.append(draw(st.sampled_from(cluster)) if shared else i)
    verts = []
    for c in cluster:
        offset = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
        near = draw(st.booleans())
        step = near * geo.COINCIDE_TOL / (4 * dim) * np.array(offset)
        verts.append(np.array(bases[c]) / 9 + step)
    used = sorted(set(cluster))
    members = {c: [i for i in range(n) if cluster[i] == c] for c in used}

    def random_tree(*groups):
        # each node joins one drawn before it; earlier groups form the core
        order = [v for g in groups for v in draw(st.permutations(g))]
        return [(order[k], order[draw(st.integers(0, k - 1))]) for k in range(1, len(order))]

    edges = [e for c in used for e in random_tree(members[c])]
    inner = [c for c in used if c >= n_terminals]
    for a, b in random_tree(inner, [c for c in used if c < n_terminals]):
        edges.append((draw(st.sampled_from(members[a])), draw(st.sampled_from(members[b]))))
    order = draw(st.permutations(range(len(edges))))
    edges = [edges[k] if draw(st.booleans()) else edges[k][::-1] for k in order]
    return np.array(verts), cluster, n_terminals, edges


class TestFinalizeSteiner:
    @settings(max_examples=400, deadline=None)
    @given(tree=spanning_trees(), p=st.sampled_from([1, 2]))
    def test_canonical_tree(self, tree, p):
        verts, cluster, n_terminals, edges = tree
        out = geo._finalize_steiner(verts, list(range(n_terminals)), edges, p)
        if out is None:
            return
        geo.validate_tree(out)
        # terminals first, one per cluster, in input order, each at the
        # input coordinates of a terminal of its cluster
        firsts = list(dict.fromkeys(cluster[:n_terminals]))
        k = len(firsts)
        assert out.terminal_ids == tuple(range(k))
        for j, c in enumerate(firsts):
            assert any(
                np.array_equal(out.vertices[j], verts[t])
                for t in range(n_terminals)
                if cluster[t] == c
            )
        deg = out.degrees()
        assert all(d >= 3 for d in deg[k:])
        if p == 2:
            assert all(d == 3 for d in deg[k:])
        steiner = [tuple(v) for v in out.vertices[k:]]
        assert steiner == sorted(steiner)

    @pytest.mark.parametrize("p", [1, 2])
    def test_steiner_vertex_on_unjoined_terminal_stays_apart(self, p):
        # vertex 3 sits on terminal 0 but only terminal 2 joins it; merging
        # the two would close the cycle 0-1-2-0
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        out = geo._finalize_steiner(verts, [0, 1, 2], [(0, 1), (1, 2), (2, 3)], p)
        geo.validate_tree(out)
        assert out.edges == ((0, 1), (1, 2))
        assert out.length == 2.0


class TestSteinerProperties:
    @pytest.mark.parametrize("p", [1, 2])
    def test_bounds_and_structure(self, p):
        rng = np.random.default_rng(100 + p)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            d = int(rng.choice([2, 3, 5]))
            pts = rng.random((n, d))
            mst = geo.minimum_spanning_tree(pts, p)
            st = geo.steiner_tree(pts, p, "heuristic")
            assert st.length <= mst.length + 1e-9
            assert st.length >= mst.length / 2 - 1e-9
            assert len(st.steiner_ids) <= n - 2
            geo.validate_tree(st)
            if p == 2 and st.steiner_ids:
                assert max(angle_residuals(st)) < 1e-6

    def test_heuristic_never_beats_exact_l1(self):
        rng = np.random.default_rng(55)
        hits = 0
        total = 100
        for _ in range(total):
            n = int(rng.integers(3, 5))
            d = int(rng.integers(2, 4))
            pts = rng.random((n, d))
            exact = geo.steiner_tree(pts, 1, "exact-small")
            heur = geo.steiner_tree(pts, 1, "heuristic")
            assert heur.length >= exact.length - 1e-9
            if heur.length <= exact.length + 1e-9:
                hits += 1
        assert hits >= 0.95 * total

    def test_auto_mode_falls_back_when_grid_large(self):
        # six terminals in five dimensions blow the exact grid budget;
        # auto mode must still answer with the bounded heuristic
        rng = np.random.default_rng(8)
        pts = rng.random((6, 5))
        t = geo.steiner_tree(pts, 1, "auto")
        mst = geo.minimum_spanning_tree(pts, 1)
        assert t.length <= mst.length + 1e-9

    @pytest.mark.parametrize("p", [1, 2])
    def test_permutation_invariance(self, p):
        rng = np.random.default_rng(200 + p)
        pts = rng.random((5, 3))
        base = geo.steiner_tree(pts, p)
        for _ in range(4):
            perm = rng.permutation(len(pts))
            other = geo.steiner_tree(pts[perm], p)
            assert other.length == pytest.approx(base.length, abs=1e-8)
            mine = sorted(map(tuple, other.vertices[list(other.terminal_ids)]))
            ref = sorted(map(tuple, base.vertices[list(base.terminal_ids)]))
            assert np.allclose(mine, ref)


class TestFermatPoint:
    def test_equilateral_centroid(self):
        tri = np.array([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        f = geo._fermat3(*tri)
        assert np.allclose(f, tri.mean(axis=0), atol=1e-12)

    def test_obtuse_vertex(self):
        f = geo._fermat3(*np.array([(0, 0), (1, 0), (2, 0.4)], dtype=float))
        assert np.allclose(f, (1, 0), atol=1e-12)

    def test_right_isoceles_matches_weiszfeld(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        f = geo._fermat3(*pts)
        oracle = weiszfeld_oracle(pts)
        assert np.allclose(f, oracle, atol=1e-7)
        # 120-degree residuals at the interior point
        for a, b in itertools.combinations(range(3), 2):
            ea = pts[a] - f
            eb = pts[b] - f
            c = float(np.dot(ea, eb) / np.linalg.norm(ea) / np.linalg.norm(eb))
            assert abs(math.acos(c) - 2 * math.pi / 3) < 1e-6

    def test_collinear_middle(self):
        f = geo._fermat3(*np.array([(0.0, 0.0), (2.0, 2.0), (1.0, 1.0)]))
        assert np.allclose(f, (1.0, 1.0))

    @settings(max_examples=300, deadline=None)
    @given(
        point_sets(
            st.just(3),
            st.integers(2, 8),
            ["general", "coincident", "collinear", "obtuse", "equal", "near-120"],
        )
    )
    def test_equals_array_reference(self, pts):
        f = geo._fermat3(*pts)
        assert type(f) is list and all(type(x) is float for x in f)
        assert same_bits(f, reference_fermat3(*pts))

    @pytest.mark.parametrize(
        "pts, vertex",
        [
            ([(-0.0, 0.5), (0.0, 0.5), (-0.0, 0.5)], 0),  # one point: the first's bits
            ([(0.2, -0.0), (0.2, 0.0), (0.9, 0.4)], 0),  # a coincident pair
            ([(0.0, 0.0), (2.0, 2.0), (1.0, 1.0)], 2),  # collinear: the middle point
            ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.4)], 1),  # an angle of 120 degrees or more
            ([(0.0, 0.0), (1.0, 0.0), (0.5, 0.8)], None),  # interior
            ([(0.0, -0.0, 0.3), (1.0, -0.0, 0.1), (0.5, -0.0, 0.8)], None),  # an axis of -0.0
        ],
    )
    def test_each_branch_equals_array_reference(self, pts, vertex):
        pts = np.array(pts)
        f = geo._fermat3(*pts)
        assert same_bits(f, reference_fermat3(*pts))
        if vertex is not None:
            assert same_bits(f, pts[vertex])
        else:
            assert not any(same_bits(f, p) for p in pts)

    def test_random_matches_weiszfeld(self):
        rng = np.random.default_rng(321)
        for _ in range(20):
            pts = rng.random((3, int(rng.integers(2, 5))))
            f = geo._fermat3(*pts)
            oracle = weiszfeld_oracle(pts)
            obj_f = sum(np.linalg.norm(p - f) for p in pts)
            obj_o = sum(np.linalg.norm(p - oracle) for p in pts)
            assert obj_f <= obj_o + 1e-7


def polish_inputs(solver, terminals, monkeypatch):
    """Copies of the (full, edges, n_terminals) of each polish call a solver makes."""
    calls = []
    polish = geo._fermat_polish

    def record(full, edges, n_terminals):
        calls.append((full.copy(), list(edges), n_terminals))
        return polish(full, edges, n_terminals)

    with monkeypatch.context() as m:
        m.setattr(geo, "_fermat_polish", record)
        solver(terminals)
    return calls


class TestFermatPolish:
    def assert_equals_reference(self, calls):
        for full, edges, n in calls:
            got = geo._fermat_polish(full.copy(), edges, n)
            want = reference_fermat_polish(full.copy(), edges, n)
            assert same_bits(got, want)

    def test_greedy_trees_equal_reference(self, monkeypatch):
        steiner = 0
        for seed in range(40):
            rng = np.random.default_rng(2000 + seed)
            pts = rng.random((int(rng.integers(7, 10)), (2, 5, 8)[seed % 3]))
            calls = polish_inputs(geo._steiner_l2_greedy, pts, monkeypatch)
            assert len(calls) == 1
            steiner += len(calls[0][0]) - len(pts)
            self.assert_equals_reference(calls)
        assert steiner >= 40  # the polish had Steiner points to move

    @pytest.mark.parametrize("n", [5, 6])
    def test_enumerate_leaders_equal_reference(self, n, monkeypatch):
        for seed in range(3):
            rng = np.random.default_rng(100 * n + seed)
            pts = rng.random((n, (2, 5, 8)[seed]))
            calls = polish_inputs(geo._steiner_l2_enumerate, pts, monkeypatch)
            assert calls
            self.assert_equals_reference(calls)

    def test_vertices_without_degree_three_are_untouched(self):
        # Steiner 3 has degree 3, Steiner 4 degree 2, Steiner 5 no edges
        full = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.4, 0.3], [0.5, 0.6], [0.9, 0.9]]
        )
        edges = [(0, 3), (1, 3), (3, 4), (4, 2)]
        got = geo._fermat_polish(full.copy(), edges, 3)
        assert same_bits(got, reference_fermat_polish(full.copy(), edges, 3))
        assert np.array_equal(got[[0, 1, 2, 4, 5]], full[[0, 1, 2, 4, 5]])
        assert not np.array_equal(got[3], full[3])

    def test_a_nan_move_in_a_later_coordinate_lets_its_vertex_settle(self):
        # from a polished tree, Steiner 4 is moved 0.3 on axis 0 and set NaN on
        # axis 2. The first sweep moves it by (0.3, ~0, NaN), which does not
        # hold the sweep open, and Steiner 5 by less than 5e-14: the polish
        # stops after one sweep, where a second would still change bits
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.9, 0.1], [1.0, 0.1, 0.3], [0.9, 1.0, 0.2]])
        edges = [(0, 4), (1, 4), (4, 5), (2, 5), (3, 5)]
        start = reference_fermat_polish(np.vstack([pts, [pts.mean(axis=0)] * 2]), edges, 4)
        assert all(not np.allclose(start[s], p) for s in (4, 5) for p in [*pts, start[9 - s]])
        start[4, 0] += 0.3
        start[4, 2] = math.nan
        got = geo._fermat_polish(start.copy(), edges, 4)
        once = reference_fermat_polish(start.copy(), edges, 4, sweeps=1)
        assert same_bits(got, reference_fermat_polish(start.copy(), edges, 4))
        assert same_bits(got, once)
        assert not same_bits(got, reference_fermat_polish(once.copy(), edges, 4, sweeps=1))

    def test_heuristic_tree_equals_reference_solve(self, monkeypatch):
        pts = np.random.default_rng(77).random((7, 5))
        got = geo.steiner_tree(pts, 2, mode="heuristic")
        geo.validate_tree(got)
        assert got.steiner_ids
        with monkeypatch.context() as m:
            m.setattr(geo, "_fermat_polish", reference_fermat_polish)
            m.setattr(geo, "_fermat3", reference_polish_fermat3)
            want = geo.steiner_tree(pts, 2, mode="heuristic")
        assert np.array_equal(got.vertices, want.vertices)
        assert got.edges == want.edges


class TestL2Scale:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 8),
        d=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(-3.0, 12.0),
    )
    def test_length_over_the_span_is_the_unit_solve(self, n, d, seed, exponent):
        pts = np.random.default_rng(seed).random((n, d))
        factor = 10.0**exponent
        unit = geo.steiner_tree(pts, 2)
        tree = geo.steiner_tree(pts * factor, 2)
        geo.validate_tree(tree)
        assert tree.exact == unit.exact
        assert abs(tree.length / factor - unit.length) <= 1e-9 * unit.length

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_exact_solves_at_span_1e3(self, n):
        # the IRLS start puts every Steiner point at the terminals' mean; an
        # unscaled length floor made their mutual weights swamp the terminals'
        for seed in range(5):
            pts = np.random.default_rng(300 + seed).random((n, 3)) * 1e3
            tree = geo.steiner_tree(pts, 2, "exact-small")
            geo.validate_tree(tree)
            assert tree.length <= geo.minimum_spanning_tree(pts, 2).length

    def test_polish_sweeps_do_not_grow_with_the_span(self, monkeypatch):
        calls = []
        fermat3 = geo._fermat3
        monkeypatch.setattr(geo, "_fermat3", lambda *v: calls.append(1) or fermat3(*v))
        counts = {}
        for factor in (1.0, 1e12):
            calls.clear()
            for seed in range(6):
                pts = np.random.default_rng(seed).random((7, 4)) * factor
                geo.steiner_tree(pts, 2)
            counts[factor] = len(calls)
        assert counts[1e12] <= 1.05 * counts[1.0]

    def test_leaders_do_not_change_with_the_span(self, monkeypatch):
        # a 1 x 1.002 rectangle: its two full topologies differ by about 1.5e-3
        # of the span, inside the leaders' cutoff at every span
        calls = []
        polish = geo._fermat_polish
        monkeypatch.setattr(geo, "_fermat_polish", lambda *a: calls.append(1) or polish(*a))
        pts = np.array([[0.0, 0.0], [1.002, 0.0], [0.0, 1.0], [1.002, 1.0]])
        for factor in (1.0, 1e3, 1e6):
            calls.clear()
            geo.steiner_tree(pts * factor, 2)
            assert len(calls) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_overflowing_extent_is_refused(self, n):
        pts = np.random.default_rng(n).random((n, 3)) * 1e160
        for solve in (geo.steiner_tree, geo.minimum_spanning_tree, geo.geometric_median):
            with pytest.raises(InvalidInputError, match=r"must be below 4\.74e\+153"):
                solve(pts, 2)
        geo.validate_tree(geo.steiner_tree(pts, 1))  # L1 sums stay finite

    def test_geometric_median_refuses_1e154(self):
        pts = np.random.default_rng(9).random((5, 3)) * 1e154
        with pytest.raises(InvalidInputError, match="too far out for L2"):
            geo.geometric_median(pts, 2)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_extent_just_under_the_limit_solves_without_overflow(self, n):
        limit = math.sqrt(sys.float_info.max / 8.0)
        pts = np.random.default_rng(n).random((n, 4)) * 2.0 - 1.0
        pts *= limit * (1.0 - 1e-12) / math.hypot(*np.max(np.abs(pts), axis=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = geo.steiner_tree(pts, 2)
            mst = geo.minimum_spanning_tree(pts, 2)
            median = geo.geometric_median(pts, 2)
        geo.validate_tree(tree)
        assert math.isfinite(tree.length) and tree.length <= mst.length
        assert np.all(np.isfinite(median))


class TestGeometricMedian:
    def test_l1_coordinate_median(self):
        m = geo.geometric_median([(0, 0), (1, 0), (0, 1)], 1)
        assert np.allclose(m, (0, 0))

    def test_l1_even_count_lower(self):
        m = geo.geometric_median([[1.0], [2.0], [5.0], [9.0]], 1)
        assert m[0] == pytest.approx(2.0)

    def test_l1_matches_per_coordinate(self):
        rng = np.random.default_rng(17)
        pts = rng.random((7, 4))
        m = geo.geometric_median(pts, 1)
        for d in range(4):
            assert m[d] == pytest.approx(
                np.sort(pts[:, d])[(len(pts) - 1) // 2]
            )

    def test_l2_equilateral_centroid(self):
        tri = np.array([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        m = geo.geometric_median(tri, 2)
        assert np.allclose(m, tri.mean(axis=0), atol=1e-7)

    def test_l2_collinear_median(self):
        m = geo.geometric_median([[0.0], [1.0], [10.0]], 2)
        assert m[0] == pytest.approx(1.0, abs=1e-9)

    def test_l2_objective_near_optimal(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            pts = rng.random((6, 3))
            m = geo.geometric_median(pts, 2)
            obj = float(np.linalg.norm(pts - m, axis=1).sum())
            oracle = weiszfeld_oracle(pts)
            obj_o = float(np.linalg.norm(pts - oracle, axis=1).sum())
            assert obj <= obj_o + 1e-8

    def test_l2_mean_on_a_non_optimal_datum(self):
        # no datum is optimal, and the mean is the datum (0, 0): the
        # iteration is nudged off it
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 0.1], [4.0, -0.1], [-12.0, 0.0]])
        assert np.array_equal(pts.mean(axis=0), pts[0])
        m = geo.geometric_median(pts, 2)
        obj = float(np.linalg.norm(pts - m, axis=1).sum())
        oracle = weiszfeld_oracle(pts)
        assert obj <= float(np.linalg.norm(pts - oracle, axis=1).sum()) + 1e-8


class TestValidateTree:
    def test_cycle_of_v_minus_one_edges_is_rejected(self):
        # three edges on four vertices: a triangle, and a vertex left out
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        t = geo.Tree(verts, (0, 1, 2, 3), ((0, 1), (0, 2), (1, 2)), 1, 4.0)
        with pytest.raises(InvalidInputError, match="cycle"):
            geo.validate_tree(t)


class TestTreeLength:
    def test_single_edge(self):
        t = geo.minimum_spanning_tree([(0, 0), (1, 0)], 1)
        assert geo.tree_length(t) == pytest.approx(1.0)

    def test_degenerate(self):
        t = geo.steiner_tree([(0.2, 0.7)], 2)
        assert geo.tree_length(t) == 0.0

    def test_unit_square_l1(self):
        t = geo.steiner_tree([(0, 0), (1, 0), (0, 1), (1, 1)], 1, "exact-small")
        assert geo.tree_length(t) == pytest.approx(3.0, abs=1e-12)
        assert geo.tree_length(t) == pytest.approx(t.length, abs=1e-12)
