"""Circulant graph model: chord sets, vertex sets, and r-step coverage.

Coverage direction: a vertex u covers u + S (and itself). The edge rule
i -> j iff i - j in S would make dominated vertices of the form D - S;
the constructive proofs cover W + S instead, and we follow the
constructions. For symmetric S = -S mod n the conventions coincide;
replacing S by -S recovers the other one. shift_cover marks sources +
chords in a new mask: the exceptional set's open cover passes S, closed
covers S u {0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ChordFileError, InvalidChord

# shift_cover ORs the sources' rotations, packed 8 vertices a byte, into
# one packed cover (_or_words), counting every COUNT_EVERY chords, while
# at least n / TEST_BELOW_SHARE vertices are unmarked; below that it tests
# just the unmarked vertices against the remaining chords (_sieve). At
# n = 10^6 on a 2-vCPU Xeon a tested cell costs ~3 ns and ORing a packed
# chord ~0.0075 ns a vertex (one 7-8 us byte-slice OR), so below about
# n / 400 unmarked vertices testing a chord costs less than ORing it even
# when no tested vertex is hit. Shares from 256 to 1024 timed the same
# within ~5% with the 64-bit words this stage replaced.
COUNT_EVERY = 16
TEST_BELOW_SHARE = 512
# _sieve tests blocks of at most CELLS (item, candidate) cells; build_W
# multiplies, the random baseline draws and greedy scans its gains in
# blocks of about as many.
# Other modules read it as graph.CELLS, so all see one value.
CELLS = 2**16
WORD = np.dtype("<u8")  # bit x of a packed mask: bit x % 64 of word x // 64
FULL = np.uint64(2**64 - 1)  # a packed word with every bit set


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

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and self.n == other.n and bool(
            np.array_equal(self.members, other.members)
        )

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, size={self.size})"


def shifted_lookup(table: np.ndarray, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """table[(x - a) mod n] for every pair, n = table.size: row i for a[i],
    column j for x[j].

    x and a hold residues in [0, n), so x - a lies in (-n, n), and take's
    wrap mode, which adds or subtracts n until an index lies in [0, n),
    reduces it exactly with integers only.
    """
    return table.take(x - a[:, None], mode="wrap")


def _sieve(alive: np.ndarray, items: np.ndarray,
           hit) -> tuple[np.ndarray, int, int]:
    """Drop each candidate of alive at its first hit among items; return
    (the candidates left, the items used, the cells tested).

    hit(alive, block) is the (block.size, alive.size) boolean table of
    which item hits which candidate. A block holds at most CELLS cells, or
    one item while more than CELLS candidates are left. The items used run
    through the item that drops the last candidate, or to the end if any
    candidate is left; with no candidates, none is used.
    """
    i = tested = 0
    while i < items.size and alive.size:
        block = items[i:i + max(1, CELLS // alive.size)]
        table = hit(alive, block)
        tested += table.size
        missed = ~table.any(axis=0)
        if not missed.any():  # argmax: the first item hitting each candidate
            return alive[missed], i + int(table.argmax(axis=0).max()) + 1, tested
        i += block.size
        alive = alive[missed]
    return alive, i, tested


def _unmarked(cover: np.ndarray) -> np.ndarray:
    """The clear bits of packed words whose padding bits are set, in
    order: unpacked only from the words that are not full."""
    partial = np.flatnonzero(cover != FULL)
    clear = np.flatnonzero(np.unpackbits(cover[partial].view(np.uint8),
                                         bitorder="little") == 0)
    return partial[clear >> 6] * 64 + (clear & 63)


def _or_words(sources: np.ndarray, chords: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """OR the rotation of sources by each chord into an empty packed cover,
    until every vertex is marked or fewer than n / TEST_BELOW_SHARE are
    left; return (the chords not ORed, the packed cover).

    The cover holds ceil(n / 64) words with its padding bits set, so a
    popcount counts the marked vertices and each word that is not full
    holds at least one unmarked vertex. sources is packed once as a
    doubled ring, 2n bits holding it twice, so its rotation by s is the
    n-bit window that starts at bit n - s = 8q + b: the ring shifted down
    by b bits, read from byte q (chord 0 reads the second copy). The
    chords are taken grouped by b, so at most 8 shifted rings are built
    (two shifts and an OR of the ring's words each), and each chord is one
    byte-slice OR.
    """
    n = sources.size
    words = -(-n // 64)
    cover = np.zeros(words, dtype=WORD)
    if n % 64:
        cover[-1] = np.uint64(2**64 - 2 ** (n % 64))
    ring = np.zeros(2 * words + 1, dtype=WORD)
    ring.view(np.uint8)[:-(-n // 8)] = np.packbits(sources, bitorder="little")
    q, b = divmod(n, 64)  # the second copy starts at bit n
    if b:  # the upper words first: they read the first copy unchanged
        ring[q + 1:q + words + 1] |= ring[:words] >> np.uint64(64 - b)
    ring[q:q + words] |= ring[:words] << np.uint64(b)
    starts, bits = np.divmod(n - chords, 8)
    order = np.argsort(bits, kind="stable")
    window, bit, out = ring.view(np.uint8), 0, cover.view(np.uint8)
    for i, (q, b) in enumerate(zip(starts[order].tolist(),
                                   bits[order].tolist()), 1):
        if b != bit:  # bits ascend from 0, the unshifted ring
            bit = b
            window = ((ring[:-1] >> b) | (ring[1:] << (64 - b))).view(np.uint8)
        out |= window[q:q + out.size]
        if i % COUNT_EVERY == 0 and i < order.size:
            # the words that are not full bound the unmarked vertices from
            # below: only a bound under the share needs the popcount
            partial = int(np.count_nonzero(cover != FULL))
            if partial == 0:
                return chords[:0], cover
            if TEST_BELOW_SHARE * partial < n and TEST_BELOW_SHARE * (
                    64 * words - int(np.bitwise_count(cover).sum())) < n:
                return chords[order[i:]], cover
    return chords[:0], cover


def shift_cover(sources: np.ndarray, chords) -> np.ndarray:
    """A new length-n mask marking v + chord mod n for every v with
    sources[v] set, sources a length-n boolean mask and every chord in
    [0, n - 1]: chord 0 marks the sources themselves, so a closed cover
    passes S u {0}.

    Two stages. _or_words ORs the rotation of each chord into a packed
    cover from the first chord, counting the unmarked vertices every
    COUNT_EVERY chords, and stops once every vertex is marked: the paper's
    dense sources saturate at the first count. Once fewer than
    n / TEST_BELOW_SHARE are left, _sieve tests just those against the
    remaining chords, each x against sources[x - s]. Both stages mark x iff
    x - s is a source for some chord s, and OR is order-free, so the result
    does not depend on where the switch falls.
    """
    n = sources.size
    rest, cover = _or_words(sources, np.asarray(chords, dtype=np.int64))
    if not rest.size and (cover != FULL).any():  # ORed every chord
        return np.unpackbits(cover.view(np.uint8), count=n,
                             bitorder="little").view(bool)
    covered = np.ones(n, dtype=bool)
    if rest.size:
        covered[_sieve(_unmarked(cover), rest,
                       lambda x, a: shifted_lookup(sources, x, a))[0]] = False
    return covered


def coverage(spec: CirculantSpec, D: VertexSet, r: int) -> VertexSet:
    """Vertices reachable from D by at most r steps along +S, D included."""
    if r < 1:
        raise ValueError("r must be >= 1")
    closed, source = (0, *spec.chords.chords), D.members
    covered = shift_cover(source, closed)
    for _ in range(r - 1):
        if covered.all() or np.array_equal(covered, source):
            break
        source, covered = covered, shift_cover(covered, closed)
    return VertexSet(spec.n, covered)


def load_chord_file(path, n: int) -> ChordSet:
    """Parse a chord file: one residue in ASCII digits per line, '#' comments.

    Duplicates are rejected with the offending line number.
    """
    chords: list[int] = []
    first_line: dict[int, int] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not (line.isascii() and line.isdigit()):
            raise ChordFileError(f"{path}:{lineno}: not an integer: {line!r}")
        value = int(line)
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
