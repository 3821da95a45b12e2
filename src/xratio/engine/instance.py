"""Instance types for cross-ratio degree computations.

A configuration on labels 1..n is a multiset of n-3 quadruples of labels.
The general instance type allows an arbitrary finite label set (including
the synthetic marks created by the splitting recursion); internally the
engine works on a compact form with labels renumbered 0..m-1 and each
quadruple packed into an int bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

Label = Hashable
Quad = frozenset

__all__ = ["Label", "Quad", "CrossRatioProblem", "DegreeInstance", "label_key"]


def label_key(lab: Label):
    """Deterministic sort key for labels that may mix ints and mark strings."""
    if isinstance(lab, int):
        return (0, lab, "")
    return (1, 0, str(lab))


@dataclass(frozen=True)
class CrossRatioProblem:
    """A configuration on the standard label set 1..n."""

    n: int
    quads: tuple[frozenset, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")
        quads = tuple(
            sorted((frozenset(q) for q in self.quads), key=lambda q: sorted(q))
        )
        if len(quads) != self.n - 3:
            raise ValueError(f"need {self.n - 3} quads for n={self.n}, got {len(quads)}")
        for q in quads:
            if len(q) != 4:
                raise ValueError(f"quad {sorted(q)} does not have 4 labels")
            if not all(isinstance(x, int) and 1 <= x <= self.n for x in q):
                raise ValueError(f"quad {sorted(q)} out of range 1..{self.n}")
        object.__setattr__(self, "quads", quads)

    def to_json(self) -> dict:
        return {"n": self.n, "quads": [sorted(q) for q in self.quads]}

    @classmethod
    def from_json(cls, obj: dict) -> "CrossRatioProblem":
        return cls(int(obj["n"]), tuple(frozenset(q) for q in obj["quads"]))

    def instance(self) -> "DegreeInstance":
        return DegreeInstance(frozenset(range(1, self.n + 1)), self.quads)


@dataclass(frozen=True)
class DegreeInstance:
    """A configuration on an arbitrary label set: |quads| = |labels| - 3."""

    labels: frozenset
    quads: tuple[frozenset, ...]

    def __post_init__(self):
        labels = frozenset(self.labels)
        quads = tuple(sorted((frozenset(q) for q in self.quads),
                             key=lambda q: sorted(q, key=label_key)))
        if len(labels) < 3:
            raise ValueError("need at least 3 labels")
        if len(quads) != len(labels) - 3:
            raise ValueError(
                f"need {len(labels) - 3} quads for {len(labels)} labels, got {len(quads)}"
            )
        for q in quads:
            if len(q) != 4 or not q <= labels:
                raise ValueError(f"bad quad {sorted(q, key=label_key)}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "quads", quads)

    def compact(self) -> tuple[int, tuple[int, ...], list]:
        """(m, quad bitmasks, index -> label) with labels renumbered 0..m-1."""
        order = sorted(self.labels, key=label_key)
        idx = {lab: i for i, lab in enumerate(order)}
        masks = tuple(
            sorted(sum(1 << idx[x] for x in q) for q in self.quads)
        )
        return len(order), masks, order


def as_instance(inst) -> DegreeInstance:
    if isinstance(inst, CrossRatioProblem):
        return inst.instance()
    return inst


def compact_aligned(inst: DegreeInstance):
    # masks aligned with inst.quads order, so indices refer to that tuple
    order = sorted(inst.labels, key=label_key)
    pos = {lab: i for i, lab in enumerate(order)}
    masks = tuple(sum(1 << pos[x] for x in q) for q in inst.quads)
    return len(order), masks, order


def bits_of(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out
