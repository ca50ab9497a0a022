"""Meta-robot selection and target partitioning from the evolution Steiner tree.

Greedy re-planning: build the p-Steiner tree over {current point} union
targets. When the current point has a single tree neighbor, that neighbor
is the next meta point and all targets stay grouped; when it has several
(it sits on a split vertex), the current point itself is the meta point and
the targets partition by the subtree hanging off each neighbor.

Under the L1 norm the first meta point ahead of the current point has a
closed form: the elementwise clamp of the current point to the bounding box
of the targets (clamp_meta). The transfer engine uses that fast path every
phase and falls back to the full tree solve at splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import Tree, lp_distance, steiner_tree

# A Steiner vertex this close to the current point (in Lp) counts as a split
# at the current point itself.
SPLIT_TOL = 1e-6
_COINCIDE_TOL = 1e-9


@dataclass(frozen=True)
class EvolutionTreeResult:
    beta_meta: np.ndarray
    partition: tuple[tuple[int, ...], ...]  # disjoint target-index groups
    tree: Tree

    @property
    def split(self) -> bool:
        return len(self.partition) > 1


def _nearest_vertex(tree: Tree, point: np.ndarray) -> int | None:
    for v in range(len(tree.vertices)):
        if lp_distance(tree.vertices[v], point, tree.norm) <= _COINCIDE_TOL:
            return v
    return None


def _partition_by_vertex(
    tree: Tree, meta_vertex: int, targets: np.ndarray
) -> tuple[tuple[int, ...], ...]:
    target_vertex = []
    for t in targets:
        v = _nearest_vertex(tree, np.asarray(t, dtype=float))
        if v is None:
            raise InvalidInputError("target is not a vertex of the tree")
        target_vertex.append(v)
    groups: list[tuple[int, ...]] = []
    taken: set[int] = set()
    for nb in tree.neighbors(meta_vertex):
        seen = {meta_vertex, nb}
        stack = [nb]
        while stack:
            v = stack.pop()
            for u in tree.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        seen.discard(meta_vertex)
        found = tuple(
            i
            for i, tv in enumerate(target_vertex)
            if tv in seen and i not in taken
        )
        if found:
            taken.update(found)
            groups.append(found)
    # targets sitting exactly on the meta vertex form singleton groups
    for i, tv in enumerate(target_vertex):
        if i not in taken and tv == meta_vertex:
            groups.append((i,))
            taken.add(i)
    if len(taken) != len(targets):
        raise InvalidInputError("partition failed to cover every target")
    return tuple(sorted(groups))


def partition_targets(tree: Tree, meta) -> tuple[tuple[int, ...], ...]:
    """Group targets by the subtree behind each tree neighbor of meta.

    Terminal 0 of the tree is the current point; the remaining terminals
    are the targets, indexed from 0 in the returned groups. meta must
    coincide with a vertex of the tree.
    """
    meta_vertex = _nearest_vertex(tree, np.asarray(meta, dtype=float))
    if meta_vertex is None:
        raise InvalidInputError("meta point is not a vertex of the tree")
    targets = tree.vertices[list(tree.terminal_ids[1:])]
    return _partition_by_vertex(tree, meta_vertex, targets)


def clamp_meta(alpha, targets) -> np.ndarray:
    """Elementwise clamp of alpha to the bounding box of the targets (L1 fast path)."""
    al = np.asarray(alpha, dtype=float)
    tg = np.asarray(targets, dtype=float)
    if tg.ndim != 2 or tg.shape[0] < 1:
        raise InvalidInputError("targets must be a non-empty point set")
    if tg.shape[1] != al.shape[0]:
        raise InvalidInputError("dimension mismatch between alpha and targets")
    return np.maximum(tg.min(axis=0), np.minimum(al, tg.max(axis=0)))


def evolution_tree(alpha, targets, p, mode: str = "auto") -> EvolutionTreeResult:
    """Meta point and target partition for the current point and target set.

    L1 trees with equal length are common (any monotone staircase ties), so
    the trunk ahead of the current point is canonicalized: when walking to
    the clamp point first is verifiably as short as the unconstrained
    optimum, the clamp point is reported as the meta point. The full tree
    solve decides splits and partitions.
    """
    al = np.asarray(alpha, dtype=float)
    tg = np.asarray(targets, dtype=float)
    if tg.ndim == 1:
        tg = tg[None, :]
    if tg.shape[0] < 1:
        raise InvalidInputError("targets must be a non-empty point set")
    if tg.shape[1] != al.shape[0]:
        raise InvalidInputError("dimension mismatch between alpha and targets")
    terminals = np.vstack([al[None, :], tg])
    tree = steiner_tree(terminals, p, mode)

    if p == 1:
        cm = clamp_meta(al, tg)
        trunk_len = lp_distance(al, cm, 1)
        if trunk_len > _COINCIDE_TOL:
            sub = steiner_tree(np.vstack([cm[None, :], tg]), 1, mode)
            if trunk_len + sub.length <= tree.length + 1e-9:
                return EvolutionTreeResult(
                    beta_meta=cm,
                    partition=(tuple(range(len(tg))),),
                    tree=tree,
                )

    alpha_vertex = _nearest_vertex(tree, al)
    neighbors = tree.neighbors(alpha_vertex)

    if len(neighbors) == 0:
        # every target coincides with alpha
        return EvolutionTreeResult(
            beta_meta=al.copy(),
            partition=tuple((i,) for i in range(len(tg))),
            tree=tree,
        )

    if len(neighbors) == 1:
        nb = neighbors[0]
        nb_point = tree.vertices[nb]
        is_terminal = nb in tree.terminal_ids
        if not is_terminal and lp_distance(al, nb_point, p) <= SPLIT_TOL:
            # a Steiner vertex sits on the current point: split here
            groups = _partition_by_vertex(tree, nb, tg)
            if len(groups) > 1:
                return EvolutionTreeResult(
                    beta_meta=al.copy(), partition=groups, tree=tree
                )
        return EvolutionTreeResult(
            beta_meta=nb_point.copy(),
            partition=(tuple(range(len(tg))),),
            tree=tree,
        )

    groups = _partition_by_vertex(tree, alpha_vertex, tg)
    return EvolutionTreeResult(beta_meta=al.copy(), partition=groups, tree=tree)
