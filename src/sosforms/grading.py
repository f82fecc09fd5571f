"""Bidegrees (p, q) used by the bigraded cohomology rings."""

from __future__ import annotations

from typing import NamedTuple


class BiDegree(NamedTuple):
    p: int
    q: int

    def __add__(self, other):  # type: ignore[override]
        return BiDegree(self.p + other[0], self.q + other[1])

    def __str__(self):
        return f"({self.p},{self.q})"
