"""Bidegrees (p, q) used by the bigraded cohomology rings."""

from __future__ import annotations

from collections import namedtuple


class BiDegree(namedtuple("BiDegree", "p q")):
    __slots__ = ()

    def __add__(self, other):
        return BiDegree(self.p + other[0], self.q + other[1])

    def __str__(self):
        return f"({self.p},{self.q})"
