"""Not-all-equal 2-coloring search: backtracking with unit propagation.

Constraints are vertex sets that must see both colors.  The search
assigns variables in index order, trying blue before red, so solutions
come out in lexicographic order (propagated values are logical
consequences of the prefix, which preserves the order).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

BLUE, RED = 0, 1


def solve_nae(n: int, edges: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """First good assignment in lexicographic order (blue < red), or None."""
    return next(nae_solutions(n, edges), None)


def nae_solutions(n: int, edges: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """Every good assignment, in lexicographic order (blue < red)."""
    edge_vars = [tuple(e) for e in edges]
    for e in edge_vars:
        if len(e) < 2:
            return  # a singleton edge can never see both colors
    watch: list[list[int]] = [[] for _ in range(n)]
    for idx, e in enumerate(edge_vars):
        for v in e:
            watch[v].append(idx)
    counts = [[0, 0] for _ in edge_vars]  # assigned blues/reds per edge
    assign: list[Optional[int]] = [None] * n

    def set_var(v: int, color: int, trail: list[int]) -> None:
        assign[v] = color
        for ei in watch[v]:
            counts[ei][color] += 1
        trail.append(v)

    def undo(trail: list[int]) -> None:
        for v in trail:
            color = assign[v]
            for ei in watch[v]:
                counts[ei][color] -= 1
            assign[v] = None

    def propagate(trail: list[int], queue: list[int]) -> bool:
        while queue:
            v = queue.pop()
            for ei in watch[v]:
                c = counts[ei]
                if c[BLUE] and c[RED]:
                    continue  # already bichromatic
                e = edge_vars[ei]
                unassigned = len(e) - c[BLUE] - c[RED]
                if unassigned == 0:
                    return False  # monochromatic and full
                if unassigned == 1:
                    forced = RED if c[RED] == 0 else BLUE
                    uv = next(u for u in e if assign[u] is None)
                    set_var(uv, forced, trail)
                    queue.append(uv)
        return True

    def first_free(v: int) -> int:
        while v < n and assign[v] is not None:
            v += 1
        return v

    # Depth-first search over an explicit stack of the decisions on the
    # current path, each with the trail of values it set: variables in
    # index order, blue before red, so no Python recursion depth limit.
    # A full assignment is yielded, then left as a failure is.
    stack: list[tuple[int, int, list[int]]] = []
    v, color = first_free(0), BLUE
    while True:
        if v < n:
            trail: list[int] = []
            set_var(v, color, trail)
            if propagate(trail, [v]):
                stack.append((v, color, trail))
                v, color = first_free(v + 1), BLUE
                continue
            undo(trail)
        else:
            yield [assign[u] for u in range(n)]
            if not stack:
                return
            v, color, trail = stack.pop()
            undo(trail)
        while color == RED:  # both colors are done here: backtrack
            if not stack:
                return
            v, color, trail = stack.pop()
            undo(trail)
        color = RED
