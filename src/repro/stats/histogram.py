"""Binned histograms.

Used by two harnesses: the rank-bucket heatmap of Appendix C (Figure 7) and
the score histograms of Figure 6 (accessibility scores before/after Kizuki).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Histogram:
    """A histogram over explicit bin edges.

    Attributes:
        edges: Bin edges, ascending; bin ``i`` covers ``[edges[i], edges[i+1])``
            except the last bin which is closed on both sides.
        counts: Number of observations per bin.
    """

    edges: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def normalized(self) -> tuple[float, ...]:
        """Counts as fractions of the total (all zeros when empty)."""
        total = self.total
        if total == 0:
            return tuple(0.0 for _ in self.counts)
        return tuple(count / total for count in self.counts)

    def bin_labels(self) -> tuple[str, ...]:
        return tuple(
            f"[{self.edges[i]:g}, {self.edges[i + 1]:g})" if i < len(self.counts) - 1
            else f"[{self.edges[i]:g}, {self.edges[i + 1]:g}]"
            for i in range(len(self.counts))
        )


def histogram(values: Iterable[float], edges: Sequence[float]) -> Histogram:
    """Bin ``values`` into ``edges``.

    Values below the first edge or above the last are clamped into the first
    and last bin respectively, so nothing is silently dropped.

    Raises:
        ValueError: When fewer than two edges are given or edges are not
            strictly increasing.
    """
    if len(edges) < 2:
        raise ValueError("histogram needs at least two bin edges")
    if any(edges[i] >= edges[i + 1] for i in range(len(edges) - 1)):
        raise ValueError("histogram edges must be strictly increasing")
    counts = [0] * (len(edges) - 1)
    for value in values:
        value = float(value)
        if value <= edges[0]:
            counts[0] += 1
            continue
        if value >= edges[-1]:
            counts[-1] += 1
            continue
        for index in range(len(edges) - 1):
            if edges[index] <= value < edges[index + 1]:
                counts[index] += 1
                break
    return Histogram(edges=tuple(float(edge) for edge in edges), counts=tuple(counts))


def bucket_counts(values: Iterable[float], buckets: Sequence[float]) -> dict[float, int]:
    """Count values into cumulative buckets: each value lands in the smallest
    bucket bound that is >= value (the CrUX rank-bucket convention).

    Values larger than every bucket bound land in an overflow bucket keyed by
    ``buckets[-1] * 10``.
    """
    if not buckets:
        raise ValueError("bucket_counts needs at least one bucket bound")
    bounds = sorted(float(bound) for bound in buckets)
    counts: dict[float, int] = {bound: 0 for bound in bounds}
    overflow_key = bounds[-1] * 10
    for value in values:
        value = float(value)
        for bound in bounds:
            if value <= bound:
                counts[bound] += 1
                break
        else:
            counts.setdefault(overflow_key, 0)
            counts[overflow_key] += 1
    return counts
