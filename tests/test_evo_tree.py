import numpy as np
import pytest

from evotree import evo_tree as et
from evotree import geometry as geo
from evotree.errors import InvalidInputError


class TestEvolutionTree:
    def test_single_target(self):
        res = et.evolution_tree((0.2, 0.2), [(0.9, 0.9)], 1)
        assert np.allclose(res.beta_meta, (0.9, 0.9))
        assert res.partition == ((0,),)
        assert not res.split

    @pytest.mark.parametrize("p", [1, 2])
    def test_single_target_as_one_point(self, p):
        # a (D,) target is one target, as a (1, D) set
        res = et.evolution_tree((0.2, 0.2), (0.9, 0.6), p)
        want = et.evolution_tree((0.2, 0.2), [(0.9, 0.6)], p)
        assert np.array_equal(res.beta_meta, want.beta_meta)
        assert res.partition == want.partition == ((0,),)
        assert np.array_equal(res.tree.vertices, want.tree.vertices)

    def test_heuristic_l1_tree_meta_is_the_clamp_point(self):
        # 7 terminals: a heuristic tree, whose own trunk from alpha ends at
        # x = 0.746; the meta point is the clamp point the transfer engine
        # walks to, at x = 0.762
        rng = np.random.default_rng(14)
        al, tg = rng.random(2), rng.random((6, 2))
        res = et.evolution_tree(al, tg, 1)
        assert not res.tree.exact
        assert np.array_equal(res.beta_meta, et.clamp_meta(al, tg))
        assert res.partition == (tuple(range(6)),)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_l2_targets_at_span_1e3_match_the_unit_solve(self, k):
        # exact L2 trees of 4-6 terminals at span 1e3 used to stop on a
        # singular IRLS system
        targets = np.random.default_rng(40 + k).random((k, 3))
        res = et.evolution_tree(np.zeros(3), targets * 1e3, 2)
        unit = et.evolution_tree(np.zeros(3), targets, 2)
        geo.validate_tree(res.tree)
        assert res.tree.exact
        assert res.tree.length / 1e3 == pytest.approx(unit.tree.length, rel=1e-9)
        assert res.partition == unit.partition

    def test_opposite_targets_split_immediately(self):
        res = et.evolution_tree((0.5, 0.5), [(0.0, 0.5), (1.0, 0.5)], 1)
        assert np.allclose(res.beta_meta, (0.5, 0.5))
        assert res.partition == ((0,), (1,))

    def test_clustered_targets_share_trunk(self):
        res = et.evolution_tree((0.0, 0.0), [(1.0, 0.9), (1.0, 1.0), (0.9, 1.0)], 1)
        assert res.partition == ((0, 1, 2),)
        # trunk heads toward the cluster: the meta point dominates alpha
        assert np.all(res.beta_meta >= 0.9 - 1e-9)

    def test_idempotent_at_target(self):
        res = et.evolution_tree((0.7, 0.7), [(0.7, 0.7)], 1)
        assert np.allclose(res.beta_meta, (0.7, 0.7))
        assert res.partition == ((0,),)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            et.evolution_tree((0.5, 0.5), [(0.1, 0.2, 0.3)], 1)

    @pytest.mark.parametrize("plan", [
        lambda: et.evolution_tree(0.5, [[0.1]], 1),
        lambda: et.clamp_meta(0.5, [[0.1]]),
        lambda: et.clamp_meta([], [[]]),
        lambda: et.clamp_meta((0.5,), np.empty((0, 1))),
    ], ids=["scalar-alpha-tree", "scalar-alpha-clamp", "no-dimension", "no-target"])
    def test_malformed_shapes_refused(self, plan):
        with pytest.raises(InvalidInputError):
            plan()

    @pytest.mark.parametrize("p", [1, 2])
    def test_every_target_on_alpha(self, p):
        # the tree is alpha alone: each target is a group of its own, with no edge
        res = et.evolution_tree((0.5, 0.5), [(0.5, 0.5), (0.5, 0.5)], p)
        assert res.partition == ((0,), (1,))
        assert res.edges == (None, None)
        assert np.array_equal(res.beta_meta, (0.5, 0.5))

    @pytest.mark.parametrize("p", [1, 2])
    def test_partition_is_disjoint_cover(self, p):
        rng = np.random.default_rng(100 + p)
        for _ in range(25):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 5))
            res = et.evolution_tree(rng.random(d), rng.random((n, d)), p)
            flat = [i for group in res.partition for i in group]
            assert sorted(flat) == list(range(n))
            assert len(flat) == len(set(flat))

    def test_l2_split_at_steiner_point(self):
        # equilateral-ish configuration: walking onto the interior Steiner
        # point and re-planning there must split the two targets
        tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)])
        tree = geo.steiner_tree(tri, 2)
        steiner = tree.vertices[list(tree.steiner_ids)][0]
        res = et.evolution_tree(steiner, tri[1:], 2)
        assert res.split
        assert np.allclose(res.beta_meta, steiner, atol=1e-9)


class TestClampMeta:
    def test_spec_example(self):
        out = et.clamp_meta((0.5, 0.5), [(0.2, 0.9), (0.4, 0.1)])
        assert np.allclose(out, (0.4, 0.5))

    def test_identity_inside_hull(self):
        out = et.clamp_meta((0.3, 0.3), [(0.2, 0.1), (0.4, 0.9)])
        assert np.allclose(out, (0.3, 0.3))

    def test_clamp_matches_trunk_endpoint(self):
        ok = 0
        total = 0
        seed = 0
        while total < 40:
            rng = np.random.default_rng(seed)
            seed += 1
            n = int(rng.integers(2, 5))
            d = int(rng.integers(2, 4))
            alpha = rng.random(d)
            targets = rng.random((n, d))
            cm = et.clamp_meta(alpha, targets)
            if np.allclose(cm, alpha, atol=1e-12):
                continue  # alpha inside the target box: no trunk to compare
            res = et.evolution_tree(alpha, targets, 1, "exact-small")
            total += 1
            if np.allclose(res.beta_meta, cm, atol=1e-9):
                ok += 1
        assert ok == total


class TestPartitionTargets:
    def test_star(self):
        center = np.array([0.5, 0.5])
        leaves = np.array([(0.5, 1.0), (0.0, 0.0), (1.0, 0.0)])
        vertices = np.vstack([center[None, :], leaves])
        tree = geo.Tree(
            vertices=vertices,
            terminal_ids=(0, 1, 2, 3),
            edges=((0, 1), (0, 2), (0, 3)),
            norm=1,
            length=geo.tree_length(
                geo.Tree(vertices, (0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)), 1, 0.0)
            ),
        )
        groups = et._partition_by_vertex(tree, 0, leaves)
        assert tuple(g for g, _ in groups) == ((0,), (1,), (2,))

    def test_path(self):
        vertices = np.array([(0.0, 0.0), (0.3, 0.0), (0.6, 0.0), (1.0, 0.0)])
        edges = ((0, 1), (1, 2), (2, 3))
        tree = geo.Tree(
            vertices=vertices,
            terminal_ids=(0, 2, 3),
            edges=edges,
            norm=1,
            length=1.0,
        )
        groups = et._partition_by_vertex(tree, 0, vertices[[2, 3]])
        assert tuple(g for g, _ in groups) == ((0, 1),)

    @staticmethod
    def star():
        """Center 0 with leaves 1, 2, 3, and a leaf 4 behind leaf 3."""
        vertices = np.array([(0.5, 0.5), (0.5, 1.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.2)])
        edges = ((0, 1), (0, 2), (0, 3), (3, 4))
        return geo.Tree(vertices, (0, 1, 2, 4), edges, 1, 0.0)

    def test_target_on_meta_vertex_forms_its_own_group(self):
        tree = self.star()
        targets = tree.vertices[[4, 0, 2, 3, 0]]
        groups = et._partition_by_vertex(tree, 0, targets)
        assert groups == (((0, 3), 3), ((1,), None), ((2,), 2), ((4,), None))

    def test_exclude_leaves_its_branch_out(self):
        tree = self.star()
        groups = et._partition_by_vertex(tree, 0, tree.vertices[[2, 4]], exclude=1)
        assert groups == (((0,), 2), ((1,), 3))

    @pytest.mark.parametrize("target, exclude", [(1, 1), (4, 3)], ids=["on", "behind"])
    def test_target_behind_exclude_is_refused(self, target, exclude):
        tree = self.star()
        targets = tree.vertices[[2, target]]
        with pytest.raises(InvalidInputError, match="failed to cover every target"):
            et._partition_by_vertex(tree, 0, targets, exclude=exclude)

    def test_target_off_the_tree_is_refused(self):
        tree = self.star()
        with pytest.raises(InvalidInputError, match="not a vertex of the tree"):
            et._partition_by_vertex(tree, 0, np.array([(0.3, 0.3)]))

    def test_trunk_then_split_topology(self):
        # trunk toward the cluster, then a 1-vs-2 split at the first meta point
        src = np.array([0.0, 0.0])
        targets = np.array([(1.0, 0.8), (0.95, 1.0), (0.6, 0.9)])
        res = et.evolution_tree(src, targets, 1, "exact-small")
        assert res.partition == ((0, 1, 2),)
        first_meta = res.beta_meta
        assert np.allclose(first_meta, (0.6, 0.8))
        res2 = et.evolution_tree(first_meta, targets, 1, "exact-small")
        assert res2.split
        sizes = sorted(len(g) for g in res2.partition)
        assert sizes == [1, 2]


class TestMetaAt:
    @staticmethod
    def fork(exact):
        """Terminal alpha 0 whose one neighbor is Steiner vertex 3, 5e-7 away
        (within SPLIT_TOL), with targets 1 and 2 behind it."""
        vertices = np.array([(0.5, 0.5), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5 + 5e-7)])
        return geo.Tree(vertices, (0, 1, 2), ((0, 3), (1, 3), (2, 3)), 2, 0.0, exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_split_at_a_steiner_vertex_on_alpha(self, exact):
        tree = self.fork(exact)
        al, tg = tree.vertices[0], tree.vertices[[1, 2]]
        res = et._meta_at(tree, 0, None, al, tg)
        assert res.partition == ((0,), (1,))
        assert np.array_equal(res.beta_meta, al) and res.beta_meta is not al
        # the groups walk on from the Steiner vertex, on exact L2 trees only
        expected = ((tree, 3, 1), (tree, 3, 2)) if exact else (None, None)
        assert res.edges == expected

    def test_steiner_vertex_on_alpha_with_one_branch_ahead_is_the_meta_point(self):
        # both targets hang behind one branch of the Steiner vertex: no split
        vertices = np.array([(0.5, 0.5), (0.0, 1.0), (0.0, 1.2), (0.5, 0.5 + 5e-7)])
        tree = geo.Tree(vertices, (0, 1, 2), ((0, 3), (1, 3), (1, 2)), 2, 0.0, True)
        res = et._meta_at(tree, 0, None, vertices[0], vertices[[1, 2]])
        assert res.partition == ((0, 1),)
        assert np.array_equal(res.beta_meta, vertices[3])
        assert res.edges == ((tree, 0, 3),)

    def test_every_target_behind_one_of_several_neighbors(self):
        # an exact L2 tree of 1.0 -> {0.5, 0, 0, 0.5}: the duplicates hang off
        # zero-length edges. At vertex 1 (0.5), with targets 0 and 3 reached,
        # both targets left lie behind vertex 2: that is the meta point, not a
        # one-group split at 0.5 (which stalled the engine)
        tg = np.array([[0.5], [0.0], [0.0], [0.5]])
        res = et.evolution_tree(np.array([1.0]), tg, 2)
        tree = res.tree
        assert res.edges == ((tree, 0, 1),)
        ahead = et.follow_edge(res.edges[0], np.array([0.5]), tg[[1, 2]])
        assert ahead.partition == ((0, 1),)
        assert np.array_equal(ahead.beta_meta, [0.0])
        # from vertex 4, the zero-length edge to vertex 1 is looked past
        past = et._meta_at(tree, 4, None, np.array([0.5]), tg[[1, 2]])
        assert past.partition == ((0, 1),) and np.array_equal(past.beta_meta, [0.0])
        assert past.edges == ((tree, 1, 2),)


class TestGreedyConsistency:
    def test_tree_length_monotone_along_trunk(self):
        rng = np.random.default_rng(21)
        xi = 0.02
        for _ in range(10):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            alpha = rng.random(d)
            targets = rng.random((n, d))
            res = et.evolution_tree(alpha, targets, 1, "exact-small")
            length = res.tree.length
            gap = res.beta_meta - alpha
            gap_l1 = float(np.abs(gap).sum())
            if gap_l1 < xi:
                continue
            step = np.zeros(d)
            budget = xi
            for dim in sorted(range(d), key=lambda k: -abs(gap[k])):
                move = min(budget, abs(gap[dim]))
                step[dim] = np.sign(gap[dim]) * move
                budget -= move
                if budget <= 0:
                    break
            res2 = et.evolution_tree(alpha + step, targets, 1, "exact-small")
            assert res2.tree.length <= length + 1e-9 + xi
