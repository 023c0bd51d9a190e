"""Reference computations for the benchmark's output checks.

Nothing here imports spinekit. Groups are integer tuples with their own
arithmetic, so every check compares the program's answer with a result
computed independently from the inputs, never with saved output.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterable, Sequence

Perm = tuple[int, ...]


def closure(gens: Iterable[Hashable], mul: Callable, identity: Hashable) -> set:
    """The subgroup generated by `gens`, by breadth-first closure under `mul`."""
    gens = list(gens)
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = mul(a, g)
                if c not in group:
                    group.add(c)
                    nxt.append(c)
        frontier = nxt
    return group


def then(f: Perm, g: Perm) -> Perm:
    """Apply f first, then g."""
    return tuple(g[y] for y in f)


def inverse(f: Perm) -> Perm:
    inv = [0] * len(f)
    for x, y in enumerate(f):
        inv[y] = x
    return tuple(inv)


def latin_loop_group(family: Sequence[Perm]) -> set[Perm]:
    """The permutation group generated by every f_b^-1 . f_a (f_a first)."""
    gens = {then(fa, inverse(fb)) for fa in family for fb in family}
    return closure(gens, then, tuple(range(len(family[0]))))


class Power:
    """G^n for G = Z_m (labels "0".."m-1") or S_3 (one-line words "012", ...).

    Elements are tuples of integers (Z_m) or of permutations (S_3); the
    S_3 product p.q applies q first, matching the usual one-line convention.
    """

    def __init__(self, kind: str, m: int, power: int):
        self.kind, self.m, self.power = kind, m, power
        if kind == "Z":
            base = list(range(m))
            self._mul1 = lambda a, b: (a + b) % m
            self._inv1 = lambda a: -a % m
            self._label1 = str
            e = 0
        else:
            base = list(itertools.permutations(range(m)))
            self._mul1 = lambda p, q: tuple(p[i] for i in q)
            self._inv1 = inverse
            self._label1 = lambda p: "".join(map(str, p))
            e = tuple(range(m))
        self.identity = (e,) * power
        self.elements = list(itertools.product(base, repeat=power))

    def mul(self, x, y):
        return tuple(self._mul1(a, b) for a, b in zip(x, y))

    def inv(self, x):
        return tuple(self._inv1(a) for a in x)

    def label(self, x) -> tuple[str, ...]:
        return tuple(self._label1(a) for a in x)

    def is_subgroup(self, h: set) -> bool:
        return (
            self.identity in h
            and all(self.mul(a, b) in h for a in h for b in h)
            and all(self.inv(a) in h for a in h)
        )

    def is_left_coset(self, xs: set) -> bool:
        return any(self.is_subgroup({self.mul(self.inv(a), x) for x in xs}) for a in xs)

    def random_subgroup(self, size: int, rng) -> set:
        """A subgroup of exactly `size` elements, generated by seeded draws."""
        for _ in range(10_000):
            gens: list = []
            group = {self.identity}
            while len(group) < size:
                gens.append(rng.choice(self.elements))
                group = closure(gens, self.mul, self.identity)
            if len(group) == size:
                return group
        raise RuntimeError(f"no subgroup of order {size} found")

    def random_non_coset(self, size: int, rng) -> set:
        for _ in range(10_000):
            xs = set(rng.sample(self.elements, size))
            if not self.is_left_coset(xs):
                return xs
        raise RuntimeError(f"no non-coset of size {size} found")


def equal_or_disjoint(sets: Sequence[frozenset]) -> bool:
    return all(a == b or not (a & b) for a, b in itertools.combinations(sets, 2))
