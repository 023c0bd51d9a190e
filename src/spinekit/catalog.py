"""Builders for small named groups, isomorphism testing, and classification.

The catalog holds every group of order up to 12 and the named families
(cyclic, abelian products, dihedral, dicyclic, symmetric, alternating) up
to order 24. Anything else classifies as unclassified with its order
profile. Isomorphism is decided by backtracking over generator images with
order-profile pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

from .groups import GroupTable
from .model import compose_indexed

CLASSIFY_LIMIT = 24


def cyclic_group(n: int) -> GroupTable:
    elems = [str(i) for i in range(n)]
    product = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    return GroupTable(elems, "0", product)


def abelian_group(*factors: int) -> GroupTable:
    """Direct product of cyclic groups; labels join components with '.'."""
    tuples = list(iproduct(*(range(f) for f in factors)))
    label = lambda t: ".".join(str(c) for c in t)
    product = {
        (label(a), label(b)): label(
            tuple((x + y) % f for x, y, f in zip(a, b, factors))
        )
        for a in tuples
        for b in tuples
    }
    return GroupTable([label(t) for t in tuples], label(tuples[0]), product)


def dihedral_group(n: int) -> GroupTable:
    """Symmetries of the regular n-gon, order 2n, for n >= 3.

    Elements r^k (rotations) and r^k s (reflections), with s r = r^-1 s.
    """
    if n < 3:
        raise ValueError("dihedral groups start at the triangle")
    rot = lambda k: "e" if k == 0 else f"r{k}"
    ref = lambda k: f"s{k}"
    label = lambda k, f: ref(k) if f else rot(k)
    elems = [rot(k) for k in range(n)] + [ref(k) for k in range(n)]
    product = {}
    for k1 in range(n):
        for f1 in (0, 1):
            for k2 in range(n):
                for f2 in (0, 1):
                    k = (k1 + (k2 if f1 == 0 else -k2)) % n
                    product[(label(k1, f1), label(k2, f2))] = label(k, f1 ^ f2)
    return GroupTable(elems, "e", product)


def _perm_group(perms: set[tuple[int, ...]]) -> GroupTable:
    """Group of permutations in one-line notation, labeled by digit strings;
    the product p.q applies q first."""
    label = lambda p: "".join(str(i) for i in p)
    elems = sorted(perms)
    product = {
        (label(p), label(q)): label(compose_indexed(q, p))
        for p in elems
        for q in elems
    }
    n = len(next(iter(perms)))
    return GroupTable([label(p) for p in elems], label(tuple(range(n))), product)


def symmetric_group(n: int) -> GroupTable:
    if n > 4:
        raise ValueError("symmetric groups supported up to degree 4")
    from itertools import permutations

    return _perm_group(set(permutations(range(n))))


def alternating_group_4() -> GroupTable:
    from itertools import permutations

    def parity(p):
        inv = sum(
            1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
        )
        return inv % 2

    return _perm_group({p for p in permutations(range(4)) if parity(p) == 0})


def dicyclic_group(m: int) -> GroupTable:
    """Dicyclic group of order 4m: a^(2m) = e, b^2 = a^m, b a b^-1 = a^-1.

    m = 2 gives the quaternion group.
    """
    if m < 2:
        raise ValueError("dicyclic groups start at order 8")
    label = lambda k, f: f"b{k}" if f else f"a{k}"
    elems = [label(k, 0) for k in range(2 * m)] + [label(k, 1) for k in range(2 * m)]
    product = {}
    for k1 in range(2 * m):
        for f1 in (0, 1):
            for k2 in range(2 * m):
                for f2 in (0, 1):
                    if f1 == 0:
                        k, f = (k1 + k2) % (2 * m), f2
                    elif f2 == 0:
                        k, f = (k1 - k2) % (2 * m), 1
                    else:
                        k, f = (k1 - k2 + m) % (2 * m), 0
                    product[(label(k1, f1), label(k2, f2))] = label(k, f)
    return GroupTable(elems, "a0", product)


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


def catalog_upto(order: int) -> tuple[tuple[str, GroupTable], ...]:
    return tuple((name, g) for name, g in catalog() if len(g) <= order)


def _closure(g: GroupTable, seed: set[str]) -> set[str]:
    out = set(seed) | {g.identity}
    frontier = list(out)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(out):
                for c in (g.op(a, b), g.op(b, a)):
                    if c not in out:
                        out.add(c)
                        nxt.append(c)
        frontier = nxt
    return out


def generating_sequence(g: GroupTable) -> list[str]:
    """A small generating set, chosen greedily in element order."""
    gens: list[str] = []
    span = {g.identity}
    for e in g.elements:
        if e not in span:
            gens.append(e)
            span = _closure(g, span | {e})
    return gens


def _hom_from_images(
    g: GroupTable, h: GroupTable, gens: list[str], images: list[str]
) -> dict[str, str] | None:
    """Close {gens -> images} to a map on the generated subgroup.

    Returns None on any inconsistency; the map is a partial homomorphism
    candidate defined on the subgroup the assigned generators generate.
    """
    phi = {g.identity: h.identity}
    for a, b in zip(gens, images):
        if phi.get(a, b) != b:
            return None
        phi[a] = b
    frontier = list(phi)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(phi):
                for x, y in ((g.op(a, b), h.op(phi[a], phi[b])),
                             (g.op(b, a), h.op(phi[b], phi[a]))):
                    known = phi.get(x)
                    if known is None:
                        phi[x] = y
                        nxt.append(x)
                    elif known != y:
                        return None
        frontier = nxt
    if len(set(phi.values())) != len(phi):
        return None
    return phi


def is_isomorphic(g: GroupTable, h: GroupTable) -> bool:
    """Backtracking search for an isomorphism via generator images."""
    if len(g) != len(h):
        return False
    if g.order_profile() != h.order_profile():
        return False
    gens = generating_sequence(g)
    by_order: dict[int, list[str]] = {}
    for e in h.elements:
        by_order.setdefault(h.order_of(e), []).append(e)

    def assign(images: list[str]) -> bool:
        if len(images) == len(gens):
            phi = _hom_from_images(g, h, gens, images)
            if phi is None or len(phi) != len(g):
                return False
            return all(
                phi[g.op(a, b)] == h.op(phi[a], phi[b])
                for a in g.elements
                for b in g.elements
            )
        nxt = gens[len(images)]
        for candidate in by_order.get(g.order_of(nxt), ()):
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

    Unmatched groups, among them every group above order 24, report
    unclassified with their order profile.
    """
    n = len(g)
    profile = g.order_profile()
    for name, candidate in catalog():
        if len(candidate) != n or candidate.order_profile() != profile:
            continue
        if is_isomorphic(g, candidate):
            return IsoClass(name, n, profile, True)
    return IsoClass(f"unclassified(order={n})", n, profile, False)
