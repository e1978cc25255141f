"""Solution certificates and their verification."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .graph import Instance, divergence_count, path_error


@dataclass(frozen=True)
class Solution:
    """A first-stage path, a recovery path, and their declared costs.

    Arc ids are listed in path order.  The dataclass itself performs no
    validation; ``build_solution`` computes consistent fields and
    ``verify_solution`` checks arbitrary ones against an instance.
    """

    x_arcs: tuple[int, ...]
    y_arcs: tuple[int, ...]
    first_cost: int
    second_cost: int
    total_cost: int
    divergence: int


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None


def _pair_error(instance: Instance, x_arcs, y_arcs) -> tuple[str | None, int | None]:
    """Why two arc-id sequences are not a stage pair of ``instance`` (first
    path, then recovery path, then budget), or None; and their divergence."""
    for label, arcs in (("first-stage", x_arcs), ("recovery", y_arcs)):
        err = path_error(instance.graph, arcs, instance.source, instance.sink)
        if err is not None:
            return f"{label} path invalid: {err}", None
    div = divergence_count(y_arcs, x_arcs)
    if div > instance.k:
        return f"recovery differs in {div} arcs, budget is {instance.k}", div
    return None, div


def build_solution(instance: Instance, x_arcs, y_arcs) -> Solution:
    """Assemble a Solution for two paths, computing all derived fields.

    Raises ValidationError if either path is invalid or the pair exceeds
    the recovery budget; solver output must never trip this.
    """
    x_arcs, y_arcs = tuple(x_arcs), tuple(y_arcs)
    err, div = _pair_error(instance, x_arcs, y_arcs)
    if err is not None:
        raise ValidationError(err)
    first, second = instance.graph.stage_costs(x_arcs, y_arcs)
    return Solution(
        x_arcs=x_arcs,
        y_arcs=y_arcs,
        first_cost=first,
        second_cost=second,
        total_cost=first + second,
        divergence=div,
    )


def verify_solution(instance: Instance, solution: Solution) -> VerifyResult:
    """Check a claimed solution against an instance.

    Checks run in a fixed order and the result carries the first failure:
    both paths must be simple source-sink paths, the recovery budget must
    hold, and every declared number must match a recomputation.
    """
    err, div = _pair_error(instance, solution.x_arcs, solution.y_arcs)
    if err is not None:
        return VerifyResult(False, err)
    if solution.divergence != div:
        return VerifyResult(
            False, f"divergence field is {solution.divergence}, recomputed {div}"
        )
    first, second = instance.graph.stage_costs(solution.x_arcs, solution.y_arcs)
    if solution.first_cost != first:
        return VerifyResult(
            False, f"first-stage cost is {solution.first_cost}, recomputed {first}"
        )
    if solution.second_cost != second:
        return VerifyResult(
            False, f"second-stage cost is {solution.second_cost}, recomputed {second}"
        )
    if solution.total_cost != first + second:
        return VerifyResult(
            False, f"total cost is {solution.total_cost}, recomputed {first + second}"
        )
    return VerifyResult(True, None)
