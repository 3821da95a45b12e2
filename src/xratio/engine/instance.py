"""The configuration type of cross-ratio degree computations.

A configuration on labels 1..n is a multiset of n-3 quadruples of labels,
and `CrossRatioProblem` is the one type for it: every side of the
splitting recursion is again such a configuration, up to relabeling.
Every layer below works on a compact form: each quadruple packed into an
int bitmask, label x on bit x-1.  `compact()` is the one encoder and
`CrossRatioProblem.from_masks` the one decoder; `side_form` is the one
place that builds the compact form of a side configuration (a recursion
side or a shortcut side) from the bits of its parent.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CrossRatioProblem", "side_form"]


def _is_int(x) -> bool:
    """Is x an int that is not a bool?  The package's one integer check."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class CrossRatioProblem:
    """A configuration on the standard label set 1..n."""

    n: int
    quads: tuple[frozenset, ...]

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 3:
            raise ValueError(f"need an integer n >= 3, got {self.n!r}")
        quads = tuple(
            sorted((frozenset(q) for q in self.quads), key=lambda q: sorted(q))
        )
        if len(quads) != self.n - 3:
            raise ValueError(f"need {self.n - 3} quads for n={self.n}, got {len(quads)}")
        for q in quads:
            if len(q) != 4:
                raise ValueError(f"quad {sorted(q)} does not have 4 labels")
            if not all(_is_int(x) and 1 <= x <= self.n for x in q):
                raise ValueError(f"quad {sorted(q)} out of range 1..{self.n}")
        object.__setattr__(self, "quads", quads)

    def to_json(self) -> dict:
        return {"n": self.n, "quads": [sorted(q) for q in self.quads]}

    @classmethod
    def from_json(cls, obj: dict) -> "CrossRatioProblem":
        return cls(obj["n"], tuple(frozenset(q) for q in obj["quads"]))

    @classmethod
    def from_masks(cls, m: int, masks) -> "CrossRatioProblem":
        """Inverse of compact(): bit b of each mask becomes label b+1."""
        return cls(m, tuple(frozenset(b + 1 for b in bits_of(q)) for q in masks))

    def compact(self) -> tuple[int, tuple[int, ...]]:
        """(n, masks): masks[j] is the bitmask of quads[j], label x on bit x-1."""
        return self.n, tuple(sum(1 << (x - 1) for x in q) for q in self.quads)


def side_form(masks, label_mask: int) -> tuple[int, tuple[int, ...]]:
    """(m, sorted masks) of quads on the bits of label_mask, renumbered in order."""
    pos = {b: i for i, b in enumerate(bits_of(label_mask))}
    return len(pos), tuple(sorted(sum(1 << pos[b] for b in bits_of(q)) for q in masks))


def bits_of(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out
