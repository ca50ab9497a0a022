"""Meta-robot selection and target partitioning from the evolution Steiner tree.

evolution_tree builds the p-Steiner tree over {current point} union
targets. When the current point has a single tree neighbor, that neighbor
is the next meta point and all targets stay grouped; when it has several
(it sits on a split vertex), the current point itself is the meta point and
the targets partition by the subtree hanging off each neighbor, found in
one walk from the split vertex.

An exact L2 tree is solved once and walked: each group carries the edge it
walks next, and follow_edge answers from that tree while the point stays on
the edge. A point off the edge, or a heuristic tree, takes a new solve.

Under the L1 norm the first meta point ahead of the current point has a
closed form: the elementwise clamp of the current point to the bounding box
of the targets (clamp_meta). The transfer engine uses that fast path every
phase and falls back to the full tree solve at splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .geometry import COINCIDE_TOL, Tree, _lp, steiner_tree

# A Steiner vertex this close to the current point (in Lp) counts as a split
# at the current point itself.
SPLIT_TOL = 1e-6
# The edge a target group walks next: (tree, tail, head), from vertex tail
# toward vertex head of an exact L2 tree.
Edge = tuple[Tree, int, int]


@dataclass(frozen=True)
class EvolutionTreeResult:
    beta_meta: np.ndarray
    partition: tuple[tuple[int, ...], ...]  # disjoint target-index groups
    tree: Tree
    edges: tuple[Optional[Edge], ...]  # per group; None: next phase re-solves

    @property
    def split(self) -> bool:
        return len(self.partition) > 1


def _as_targets(alpha, targets) -> tuple[np.ndarray, np.ndarray]:
    """alpha as a (D,) array, D >= 1, and targets as a non-empty (k, D) one;
    a single (D,) target becomes one row."""
    al = np.asarray(alpha, dtype=float)
    tg = np.asarray(targets, dtype=float)
    if tg.ndim == 1:
        tg = tg[None, :]
    if al.ndim != 1 or tg.ndim != 2 or 0 in tg.shape or tg.shape[1] != len(al):
        raise InvalidInputError("need a (D,) point, D >= 1, and a non-empty (k, D) target set")
    return al, tg


def _nearest_vertex(tree: Tree, point: np.ndarray) -> int | None:
    for v in range(len(tree.vertices)):
        if _lp(tree.vertices[v], point, tree.norm) <= COINCIDE_TOL:
            return v
    return None


def _partition_by_vertex(
    tree: Tree, meta_vertex: int, targets: np.ndarray, exclude: int | None = None
) -> tuple[tuple[tuple[int, ...], int | None], ...]:
    """Sorted (group, neighbor) pairs: the targets behind each neighbor but
    `exclude`, then each target on meta_vertex alone, with neighbor None.

    One walk from meta_vertex labels each vertex with the neighbor it hangs
    behind; it never crosses meta_vertex, so it never enters `exclude`."""
    label: dict[int, int | None] = {meta_vertex: None}
    stack = [(nb, nb) for nb in tree.neighbors(meta_vertex) if nb != exclude]
    while stack:
        v, nb = stack.pop()
        label[v] = nb
        stack += [(u, nb) for u in tree.neighbors(v) if u not in label]
    target_vertex = [_nearest_vertex(tree, t) for t in targets]
    if None in target_vertex:
        raise InvalidInputError("target is not a vertex of the tree")
    if any(v not in label for v in target_vertex):
        raise InvalidInputError("partition failed to cover every target")
    by_key: dict[tuple[int | None, int], list[int]] = {}
    for i, v in enumerate(target_vertex):  # a target on meta_vertex: a group alone
        by_key.setdefault((label[v], -1 if v != meta_vertex else i), []).append(i)
    groups = [(tuple(g), nb) for (nb, _), g in by_key.items()]
    return tuple(sorted(groups, key=lambda g: g[0]))


def clamp_meta(alpha, targets) -> np.ndarray:
    """Elementwise clamp of alpha to the bounding box of the targets (L1 fast
    path); alpha and targets are shaped as for evolution_tree."""
    al, tg = _as_targets(alpha, targets)
    return np.maximum(tg.min(axis=0), np.minimum(al, tg.max(axis=0)))


def evolution_tree(alpha, targets, p, mode: str = "auto") -> EvolutionTreeResult:
    """Meta point and target partition for the current point and target set.

    alpha is a (D,) point and targets a non-empty (k, D) set, or one (D,)
    target; any other shape raises InvalidInputError.

    L1 trees with equal length are common (any monotone staircase ties), so
    the trunk ahead of the current point is canonicalized: a point off the
    targets' bounding box walks to its clamp point first, the point the
    transfer engine walks to. Clamping is 1-Lipschitz on each axis, so it
    shortens any tree on the point and the targets by at least the trunk's
    length: some optimal tree starts with that trunk. The full tree solve
    decides splits and partitions.
    """
    al, tg = _as_targets(alpha, targets)
    tree = steiner_tree(np.vstack([al[None, :], tg]), p, mode)
    if p == 1:
        cm = clamp_meta(al, tg)
        if _lp(al, cm, 1) > COINCIDE_TOL:
            return EvolutionTreeResult(cm, (tuple(range(len(tg))),), tree, (None,))
    return _meta_at(tree, _nearest_vertex(tree, al), None, al, tg)


def follow_edge(edge: Edge, alpha, targets) -> Optional[EvolutionTreeResult]:
    """evolution_tree's answer read off a held tree, or None off its edge.

    `edge` = (tree, tail, head) comes from an earlier result, with the
    targets ahead of it. Every branch cut off an optimal Steiner tree at a
    vertex is optimal for its own terminals (Gilbert and Pollak, 1968), so
    while the point lies on the segment tail -> head, head stays the meta
    point, and at head the branches ahead give the next edge or the split.
    """
    tree, tail, head = edge
    al = np.asarray(alpha, dtype=float)
    start, end = tree.vertices[tail], tree.vertices[head]
    if _lp(al, end, 2) <= COINCIDE_TOL:
        return _meta_at(tree, head, tail, al, np.asarray(targets, dtype=float))
    along = end - start
    t = float(np.dot(al - start, along) / np.dot(along, along))
    if not 0.0 <= t <= 1.0 or _lp(al, start + t * along, 2) > COINCIDE_TOL:
        return None
    return EvolutionTreeResult(end.copy(), (tuple(range(len(targets))),), tree, (edge,))


def _meta_at(
    tree: Tree, vertex: int, came_from: int | None, al: np.ndarray, tg: np.ndarray
) -> EvolutionTreeResult:
    """Meta point and partition for the point al at `vertex`, facing away
    from `came_from`.

    With one neighbor ahead, or several but every target behind one, that
    neighbor is the meta point and all targets stay grouped, unless it is a
    Steiner vertex within SPLIT_TOL of al that splits them: then the split is
    at al. A neighbor on al is looked past. With targets behind several, al
    itself is the meta point and the targets partition by the subtree behind
    each; with no neighbor ahead, every target is on al and each is a group
    alone. Groups get the edge they walk next only on exact L2 trees: L1
    optimal trees tie, and a heuristic tree's branches need not be optimal.
    """
    walk = tree.exact and tree.norm == 2
    ahead = [nb for nb in tree.neighbors(vertex) if nb != came_from]
    if len(ahead) > 1:
        groups = _partition_by_vertex(tree, vertex, tg, exclude=came_from)
        if len(groups) == 1 and groups[0][1] is not None:
            ahead = [groups[0][1]]  # every target lies behind this neighbor
    if len(ahead) == 1:
        nb, groups = ahead[0], ()
        tip = tree.vertices[nb]
        if _lp(al, tip, tree.norm) <= COINCIDE_TOL:
            # a zero-length edge, as between duplicate terminals: look past it
            return _meta_at(tree, nb, vertex, al, tg)
        if nb not in tree.terminal_ids and _lp(al, tip, tree.norm) <= SPLIT_TOL:
            # a Steiner vertex sits on the current point: split there
            groups = _partition_by_vertex(tree, nb, tg)
        if len(groups) < 2:
            edge = (tree, vertex, nb) if walk else None
            return EvolutionTreeResult(
                tip.copy(), (tuple(range(len(tg))),), tree, (edge,)
            )
        vertex = nb
    elif not ahead:  # every target coincides with al
        groups = tuple(((i,), None) for i in range(len(tg)))
    edges = tuple(
        (tree, vertex, nb) if walk and nb is not None else None for _, nb in groups
    )
    return EvolutionTreeResult(al.copy(), tuple(g for g, _ in groups), tree, edges)
