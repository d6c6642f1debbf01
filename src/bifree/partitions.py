"""Non-crossing and bi-non-crossing set partitions with exact Mobius values.

Partitions of [n] = {1..n} are stored canonically: each block sorted
ascending, blocks ordered by their minima. The lattice order used
throughout is reverse refinement: ``pi <= sigma`` iff every block of pi is
contained in a block of sigma, so the one-block partition 1_n is the top
element and the all-singletons partition 0_n is the bottom.

Non-crossing is one rule, a left-to-right walk over the positions 1..n:
each position either opens a new block or joins a block that is still
open, and joining a block closes for good every block opened after it.
`is_noncrossing` runs the walk along a partition's restricted-growth
string (RGS); `enumerate_nc` runs it over every choice, open blocks oldest
first and then a new block, which yields the lattice in RGS-lexicographic
order, so downstream sums are reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import OrderError, SizeLimitError

LEFT = "L"
RIGHT = "R"

MAX_N = 14


def catalan(n: int) -> int:
    """The n-th Catalan number, |NC(n)|."""
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class Partition:
    """A set partition of {1..n} in canonical block form."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, n, blocks) -> "Partition":
        """Canonicalize and validate a collection of blocks covering {1..n}."""
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen: list[int] = []
        for block in canon:
            if not block:
                raise ValueError("empty block")
            seen.extend(block)
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition {{1..{n}}}: {blocks}")
        return cls(n, canon)

    def rgs(self) -> tuple[int, ...]:
        """Restricted-growth string: position k carries the block index of k+1."""
        label = {}
        for i, block in enumerate(self.blocks):
            for k in block:
                label[k] = i
        return tuple(label[k] for k in range(1, self.n + 1))

    def to_jsonable(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    @classmethod
    def from_jsonable(cls, data) -> "Partition":
        n = sum(len(b) for b in data)
        return cls.from_blocks(n, data)


def zero_partition(n: int) -> Partition:
    return Partition(n, tuple((k,) for k in range(1, n + 1)))


def one_partition(n: int) -> Partition:
    return Partition(n, (tuple(range(1, n + 1)),))


def is_noncrossing(p: Partition) -> bool:
    """True iff no a < b < c < d has a, c in one block and b, d in another.

    The walk along p.rgs(): a label seen for the first time opens a block,
    a label in the open stack closes every block above it, and any other
    label rejoins a closed block, a crossing.
    """
    stack, seen = [], set()
    for label in p.rgs():
        if label not in seen:
            seen.add(label)
            stack.append(label)
        elif label in stack:
            del stack[stack.index(label) + 1:]
        else:
            return False
    return True


@functools.lru_cache(maxsize=1)
def _nc_lattice(n: int) -> tuple[Partition, ...]:
    # One lattice is kept: repeated callers ask for the same n in a row.
    # Position k joins each open block, oldest first, then opens a new one:
    # block labels in that order rise, so the output is RGS-lexicographic.
    parts = []

    def walk(k, blocks, stack):
        if k > n:
            parts.append(Partition(n, blocks))
            return
        for depth, i in enumerate(stack):
            walk(k + 1, blocks[:i] + (blocks[i] + (k,),) + blocks[i + 1:], stack[:depth + 1])
        walk(k + 1, blocks + ((k,),), stack + (len(blocks),))

    walk(1, (), ())
    return tuple(parts)


def enumerate_nc(n: int) -> tuple[Partition, ...]:
    """All non-crossing partitions of [n], RGS-lexicographic order.

    >>> [len(enumerate_nc(k)) for k in (1, 2, 3, 4)]
    [1, 2, 5, 14]
    """
    if not 1 <= n <= MAX_N:
        raise SizeLimitError(f"n = {n} outside [1, {MAX_N}] (Catalan growth)")
    return _nc_lattice(n)


@dataclass(frozen=True)
class ChiMap:
    """Left/right labelling of the positions 1..n."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if any(s not in (LEFT, RIGHT) for s in self.labels):
            raise ValueError(f"labels must be {LEFT!r} or {RIGHT!r}: {self.labels}")

    @classmethod
    def from_string(cls, text: str) -> "ChiMap":
        return cls(tuple(text.upper()))

    @property
    def n(self) -> int:
        return len(self.labels)

    def left_positions(self) -> tuple[int, ...]:
        return tuple(k for k in range(1, self.n + 1) if self.labels[k - 1] == LEFT)

    def right_positions(self) -> tuple[int, ...]:
        return tuple(k for k in range(1, self.n + 1) if self.labels[k - 1] == RIGHT)


def sigma_chi(chi: ChiMap) -> tuple[int, ...]:
    """Permutation reading left positions upward then right positions downward.

    Entry k-1 holds the image of k: the first p values are the left
    positions in increasing order, the rest the right positions in
    decreasing order.
    """
    lefts = chi.left_positions()
    rights = chi.right_positions()
    return lefts + tuple(reversed(rights))


def apply_permutation(p: Partition, perm: tuple[int, ...]) -> Partition:
    """Relabel every element k of every block by perm[k-1], recanonicalized."""
    return Partition.from_blocks(p.n, [[perm[k - 1] for k in block] for block in p.blocks])


def enumerate_bnc(chi: ChiMap) -> tuple[tuple[Partition, Partition], ...]:
    """Bi-non-crossing partitions for chi, each paired with its source.

    Returns (image, source) pairs where image = sigma_chi . source; the
    pairing transfers Mobius values, since the relabelling is a lattice
    isomorphism.
    """
    perm = sigma_chi(chi)
    return tuple((apply_permutation(p, perm), p) for p in enumerate_nc(chi.n))


def refines(pi: Partition, sigma: Partition) -> bool:
    """True iff every block of pi is contained in a block of sigma."""
    if pi.n != sigma.n:
        return False
    owner = {}
    for i, block in enumerate(sigma.blocks):
        for k in block:
            owner[k] = i
    return all(len({owner[k] for k in block}) == 1 for block in pi.blocks)


def restrict(p: Partition, subset) -> Partition:
    """Restriction of p to a union of its blocks, relabelled to {1..|subset|}.

    Order-preserving relabelling, so non-crossing is preserved.
    """
    subset = sorted(subset)
    rank = {x: i + 1 for i, x in enumerate(subset)}
    inside = [tuple(rank[k] for k in block) for block in p.blocks if block[0] in rank]
    return Partition(len(subset), tuple(sorted(inside, key=lambda b: b[0])))


def mobius_top(pi: Partition) -> int:
    """Mobius value of the interval [pi, 1_n] in NC(n), exact integer.

    Closed form through the Kreweras complement K(pi) (Kreweras 1972;
    Nica-Speicher, Lectures 9-10): for non-crossing pi,

        mu(pi, 1_n) = prod over blocks B of K(pi) of (-1)^(|B|-1) Cat(|B|-1).

    The blocks of K(pi) are the cycles of the permutation pi^-1 gamma, where
    gamma = (1 2 ... n) and each block of pi is a cycle in increasing order.
    """
    before = {}
    for block in pi.blocks:
        for x, y in zip(block, block[1:] + block[:1]):
            before[y] = x
    seen = set()
    value = 1
    for start in range(1, pi.n + 1):
        if start in seen:
            continue
        size, k = 0, start
        while k not in seen:
            seen.add(k)
            size += 1
            k = before[k % pi.n + 1]
        value *= (-1) ** (size - 1) * catalan(size - 1)
    return value


def mobius_nc(pi: Partition, sigma: Partition) -> int:
    """Mobius value of the interval [pi, sigma] in NC(n).

    Both arguments must be non-crossing with pi <= sigma in reverse
    refinement order. The interval splits as a product over sigma's blocks,
    so the value is the product of the top-interval values of the
    restrictions.

    >>> mobius_nc(zero_partition(3), one_partition(3))
    2
    """
    if pi.n != sigma.n:
        raise OrderError(f"ground sets differ: {pi.n} vs {sigma.n}")
    if not (is_noncrossing(pi) and is_noncrossing(sigma)):
        raise OrderError("both arguments must be non-crossing")
    if not refines(pi, sigma):
        raise OrderError(f"{pi.blocks} does not refine {sigma.blocks}")
    value = 1
    for block in sigma.blocks:
        value *= mobius_top(restrict(pi, block))
    return value

