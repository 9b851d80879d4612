"""Circulant graph model: chord sets, vertex sets, and r-step coverage.

Coverage direction: a vertex u covers u + S (and itself). The edge rule
i -> j iff i - j in S would make dominated vertices of the form D - S;
the constructive proofs cover W + S instead, and we follow the
constructions. For symmetric S the two conventions coincide; replacing
S by -S recovers the other one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ChordFileError, InvalidChord


@dataclass(frozen=True)
class ChordSet:
    """Sorted duplicate-free chords in [1, n-1] for a given modulus n."""

    n: int
    chords: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not self.chords:
            raise InvalidChord("chord set must be nonempty")
        for s in self.chords:
            if not 1 <= s <= self.n - 1:
                raise InvalidChord(f"chord {s} outside [1, {self.n - 1}]")
        if len(set(self.chords)) != len(self.chords):
            raise InvalidChord("duplicate chords")
        if tuple(sorted(self.chords)) != self.chords:
            object.__setattr__(self, "chords", tuple(sorted(self.chords)))

    @property
    def k(self) -> int:
        return len(self.chords)

    @property
    def symmetric(self) -> bool:
        members = set(self.chords)
        return all((self.n - s) in members for s in self.chords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.chords, dtype=np.int64)


@dataclass(frozen=True)
class CirculantSpec:
    """The pair (n, S) defining the circulant graph on Z_n with chord set S."""

    n: int
    chords: ChordSet

    def __post_init__(self):
        if self.chords.n != self.n:
            raise ValueError("chord set modulus differs from graph modulus")

    @property
    def k(self) -> int:
        return self.chords.k


class VertexSet:
    """Subset of Z_n backed by a boolean membership array."""

    __slots__ = ("n", "members", "_size")

    def __init__(self, n: int, members: np.ndarray):
        if members.shape != (n,):
            raise ValueError("membership array length must equal n")
        self.n = n
        self.members = members.astype(bool, copy=False)
        self._size: int | None = None

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, np.ones(n, dtype=bool))

    @classmethod
    def from_indices(cls, n: int, indices) -> "VertexSet":
        members = np.zeros(n, dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= n:
                raise ValueError("vertex index out of range")
            members[idx] = True
        return cls(n, members)

    @property
    def size(self) -> int:
        if self._size is None:
            self._size = int(np.count_nonzero(self.members))
        return self._size

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.members).astype(np.int64)

    def union(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.n, self.members | other.members)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ~self.members)

    def __contains__(self, v: int) -> bool:
        return bool(self.members[v % self.n])

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and self.n == other.n and bool(
            np.array_equal(self.members, other.members)
        )

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, size={self.size})"


def symmetrize(values, n: int) -> ChordSet:
    """Close a chord list under s -> n - s, deduplicate, and sort."""
    out = set()
    for t in values:
        t = t % n
        if t == 0:
            raise InvalidChord("chord congruent to 0 mod n")
        out.add(t)
        out.add(n - t)
    return ChordSet(n, tuple(sorted(out)))


def shift_cover(covered: np.ndarray, sources: np.ndarray, chords) -> np.ndarray:
    """Mark v + chord mod n for every v with sources[v] set; return covered.

    covered and sources are length-n boolean masks and every chord lies in
    [1, n - 1], as in a ChordSet. Each chord s ORs the rotation of sources
    by s into covered in place, as two slices, and the loop stops at the
    first chord after which every vertex is marked. The masks must not
    share memory: an aliased source would gain the marks of earlier chords
    and carry them several hops.
    """
    if np.may_share_memory(covered, sources):
        raise ValueError("covered and sources must not share memory")
    n = covered.size
    for s in chords:
        covered[s:] |= sources[:n - s]
        covered[:s] |= sources[n - s:]
        if covered.all():  # dense sources saturate after a few chords
            break
    return covered


def coverage(spec: CirculantSpec, D: VertexSet, r: int) -> VertexSet:
    """Vertices reachable from D by at most r steps along +S, D included."""
    if r < 1:
        raise ValueError("r must be >= 1")
    covered, source = D.members.copy(), D.members
    for step in range(1, r + 1):
        shift_cover(covered, source, spec.chords.chords)
        if step == r or covered.all() or np.array_equal(covered, source):
            break
        if source is D.members:  # later rounds read one reused scratch copy
            source = np.empty_like(covered)
        np.copyto(source, covered)
    return VertexSet(spec.n, covered)


def load_chord_file(path, n: int) -> ChordSet:
    """Parse a chord file: one decimal residue per line, '#' comments.

    Duplicates are rejected with the offending line number.
    """
    chords: list[int] = []
    first_line: dict[int, int] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError:
            raise ChordFileError(f"{path}:{lineno}: not an integer: {line!r}")
        if not 1 <= value <= n - 1:
            raise ChordFileError(
                f"{path}:{lineno}: chord {value} outside [1, {n - 1}]"
            )
        if value in first_line:
            raise ChordFileError(
                f"{path}:{lineno}: duplicate chord {value} "
                f"(first seen on line {first_line[value]})"
            )
        first_line[value] = lineno
        chords.append(value)
    if not chords:
        raise ChordFileError(f"{path}: no chords found")
    return ChordSet(n, tuple(sorted(chords)))
