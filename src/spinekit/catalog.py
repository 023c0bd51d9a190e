"""Builders for small named groups, isomorphism testing, and classification.

The catalog holds every group of order up to 12 and the named families
(cyclic, abelian products, dihedral, dicyclic, symmetric, alternating) up
to order 24. Anything else classifies as unclassified with its order
profile. Isomorphism is decided by backtracking over generator images, once
the order profiles and the numbers of commuting pairs agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product as iproduct
from operator import eq

from .groups import GroupTable, permutation_group, tabulate
from .model import Indexed, adjoin, compose_indexed, indexed_form

CLASSIFY_LIMIT = 24


def cyclic_group(n: int) -> GroupTable:
    return abelian_group(n)


def abelian_group(*factors: int) -> GroupTable:
    """Direct product of cyclic groups; labels join components with '.'."""
    return tabulate(
        iproduct(*(range(f) for f in factors)),
        (0,) * len(factors),
        lambda a, b: tuple((x + y) % f for x, y, f in zip(a, b, factors)),
        lambda t: ".".join(str(c) for c in t),
    )


def _twisted_pairs(n: int, twist: int, label) -> GroupTable:
    """The extension of C_n by C_2 on pairs (k, f) in Z/n x {0, 1}:
    (k1, f1)(k2, f2) = (k1 +- k2 + twist.f1.f2 mod n, f1 xor f2), with a
    minus when f1 = 1. Rotations (f = 0) are listed first."""

    def mul(a, b):
        (k1, f1), (k2, f2) = a, b
        return (k1 + (-k2 if f1 else k2) + twist * f1 * f2) % n, f1 ^ f2

    pairs = [(k, f) for f in (0, 1) for k in range(n)]
    return tabulate(pairs, (0, 0), mul, lambda e: label(*e))


def dihedral_group(n: int) -> GroupTable:
    """Symmetries of the regular n-gon, order 2n, for n >= 3.

    Elements r^k (rotations) and r^k s (reflections), with s r = r^-1 s.
    """
    if n < 3:
        raise ValueError("dihedral groups start at the triangle")
    return _twisted_pairs(n, 0, lambda k, f: f"s{k}" if f else f"r{k}" if k else "e")


def _perm_group(perms: set[Indexed]) -> GroupTable:
    """Group of permutations in one-line notation, labeled by digit strings;
    the product p.q applies q first."""
    labels = {p: "".join(str(i) for i in p) for p in perms}
    return permutation_group(labels, indexed_form(range(len(next(iter(perms))))))


def symmetric_group(n: int) -> GroupTable:
    if n < 1:
        raise ValueError("symmetric groups start at degree 1")
    if n > 4:
        raise ValueError("symmetric groups supported up to degree 4")
    from itertools import permutations

    return _perm_group({indexed_form(p) for p in permutations(range(n))})


def alternating_group_4() -> GroupTable:
    """A4, generated by the 3-cycles (0 1 2) and (1 2 3)."""
    group, gens = {indexed_form(range(4))}, []
    adjoin(group, gens, indexed_form((1, 2, 0, 3)), compose_indexed)
    adjoin(group, gens, indexed_form((0, 2, 3, 1)), compose_indexed)
    return _perm_group(group)


def dicyclic_group(m: int) -> GroupTable:
    """Dicyclic group of order 4m: a^(2m) = e, b^2 = a^m, b a b^-1 = a^-1.

    m = 2 gives the quaternion group.
    """
    if m < 2:
        raise ValueError("dicyclic groups start at order 8")
    return _twisted_pairs(2 * m, m, lambda k, f: f"b{k}" if f else f"a{k}")


def klein_group() -> GroupTable:
    return abelian_group(2, 2)


# Abelian invariant factor chains (d1 | d2 | ...) for non-cyclic abelian
# groups of order <= 24.
_ABELIAN_FACTORS = [
    (2, 2),
    (2, 4),
    (2, 2, 2),
    (3, 3),
    (2, 6),
    (2, 8),
    (4, 4),
    (2, 2, 4),
    (2, 2, 2, 2),
    (3, 6),
    (2, 10),
    (2, 12),
    (2, 2, 6),
]


@lru_cache(maxsize=1)
def catalog() -> tuple[tuple[str, GroupTable], ...]:
    """All catalog groups in classification priority order."""
    entries: list[tuple[str, GroupTable]] = []
    for n in range(1, CLASSIFY_LIMIT + 1):
        entries.append((f"C{n}", cyclic_group(n)))
    for factors in _ABELIAN_FACTORS:
        name = "×".join(f"C{f}" for f in factors)
        entries.append((name, abelian_group(*factors)))
    entries.append(("S3", symmetric_group(3)))
    for n in range(4, 13):
        entries.append((f"D{n}", dihedral_group(n)))
    entries.append(("A4", alternating_group_4()))
    entries.append(("S4", symmetric_group(4)))
    entries.append(("Q8", dicyclic_group(2)))
    entries.append(("Dic3", dicyclic_group(3)))
    entries.append(("Q16", dicyclic_group(4)))
    entries.append(("Dic5", dicyclic_group(5)))
    entries.append(("Dic6", dicyclic_group(6)))
    return tuple(entries)


def _hom_from_images(
    g: GroupTable, h: GroupTable, gens: tuple[int, ...], images: list[int]
) -> dict[int, int] | None:
    """Close {gens -> images}, element indices of g and h, to a map on the
    generated subgroup: its graph is the subgroup of g x h generated by the
    pairs (generator, image). Returns it as a map of indices when it is the
    graph of an injective function, else None; the map is then a
    homomorphism on the subgroup the assigned generators generate.
    """
    g_rows, h_rows = g._rows, h._rows
    mul = lambda x, y: (g_rows[x[0]][y[0]], h_rows[x[1]][y[1]])
    graph, pair_gens = {(g._index[g.identity], h._index[h.identity])}, []
    for pair in zip(gens, images):
        if pair not in graph:
            adjoin(graph, pair_gens, pair, mul)
    phi = dict(graph)
    if len(phi) != len(graph) or len(set(phi.values())) != len(phi):
        return None
    return phi


def _commuting_pairs(g: GroupTable) -> int:
    """The number of pairs (a, b) with ab = ba, which is |G| times the
    number of conjugacy classes (Erdős and Turán); an isomorphism invariant.
    Read off the table's rows and columns on first use and kept on it."""
    count = getattr(g, "_commuting", None)
    if count is None:
        rows = g._rows
        count = sum(map(eq, chain.from_iterable(rows), chain.from_iterable(zip(*rows))))
        object.__setattr__(g, "_commuting", count)
    return count


def is_isomorphic(g: GroupTable, h: GroupTable) -> bool:
    """Backtracking search for an isomorphism via generator images, after
    comparing the order profiles and the numbers of commuting pairs. Images
    are kept while `_hom_from_images` closes them to an injective phi. On all
    generators phi is total, and its graph is a subgroup of g x h, so
    phi(ab) = phi(a)phi(b): phi is an isomorphism, as |g| = |h|."""
    if len(g) != len(h) or g.order_profile() != h.order_profile():
        return False
    if _commuting_pairs(g) != _commuting_pairs(h):
        return False
    gens = g._gens
    orders = [g.order_of(g.elements[s]) for s in gens]
    by_order: dict[int, list[int]] = {}
    for i, e in enumerate(h.elements):
        by_order.setdefault(h.order_of(e), []).append(i)

    def assign(images: list[int]) -> bool:
        if len(images) == len(gens):
            return True
        for candidate in by_order.get(orders[len(images)], ()):
            if _hom_from_images(g, h, gens[: len(images) + 1], images + [candidate]):
                if assign(images + [candidate]):
                    return True
        return False

    return assign([])


@dataclass(frozen=True)
class IsoClass:
    name: str
    order: int
    profile: tuple[tuple[int, int], ...]
    classified: bool

    def render(self) -> str:
        if self.classified:
            return self.name
        profile = " ".join(f"{d}^{c}" for d, c in self.profile)
        return f"{self.name}; profile: {profile}"


def classify_group(g: GroupTable) -> IsoClass:
    """Match a table against the catalog up to isomorphism.

    Unmatched groups report unclassified with their order profile; above
    order 24 no entry can match, so the catalog is not built.
    """
    n = len(g)
    profile = g.order_profile()
    for name, candidate in catalog() if n <= CLASSIFY_LIMIT else ():
        if len(candidate) != n or candidate.order_profile() != profile:
            continue
        if is_isomorphic(g, candidate):
            return IsoClass(name, n, profile, True)
    return IsoClass(f"unclassified(order={n})", n, profile, False)
