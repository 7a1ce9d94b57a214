"""Exponential-rate reports over recorded ball tables.

A lower bound |B(r)| >= alpha^r along a log-dense radius sequence
(increasing, consecutive ratios bounded by beta) already forces
exponential growth, so the report checks log-density of the requested
subsequence and takes the worst per-radius root as the certified rate.
"""

from __future__ import annotations

from .prp import BallTable


class GrowthError(ValueError):
    pass


def is_log_dense(radii: list[int], beta: float) -> bool:
    if not radii or radii[0] < 1:
        return False
    for a, b in zip(radii, radii[1:]):
        if b <= a or b > beta * a:
            return False
    return True


def growth_report(table: BallTable, subsequence: list[int], beta: float = 2.0) -> float:
    """Certified rate: the least |B(r)|^(1/r) over a log-dense subsequence.

    Radii beyond the table's completely explored range are an error: a
    truncated count is only a lower bound on the layer, not a ball size.
    """
    if not is_log_dense(subsequence, beta):
        raise GrowthError(f"subsequence {subsequence} is not log-dense for beta={beta}")
    for r in subsequence:
        if r > table.complete_radius:
            raise GrowthError(
                f"radius {r} not complete (table complete to {table.complete_radius}"
                + (", truncated" if table.truncated else "")
                + ")"
            )
    return min(table.count_at(r) ** (1.0 / r) for r in subsequence)
