"""Finite groups as multiplication tables.

Elements are indices ``0..order-1``. A group is defined by its square
multiplication table; identity, inverses, and conjugacy classes are computed
and validated on construction. Conjugacy classes are ordered by their least
element, which fixes the class order used by all character arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group presented by a validated multiplication table."""

    order: int
    mult: np.ndarray
    inv: np.ndarray
    identity: int
    classes: tuple[tuple[int, ...], ...]
    name: str = ""

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def class_representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.classes)

    @property
    def class_sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.classes])

    def __repr__(self) -> str:
        label = self.name or f"order-{self.order}"
        return f"FiniteGroup({label})"


def validate_group(table, name: str = "") -> FiniteGroup:
    """Build a FiniteGroup from a raw multiplication table.

    Checks squareness, index range, two-sided identity, inverses, and
    associativity on all triples; computes conjugacy classes ordered by
    least element. Raises ValidationError naming the first violation.
    """
    try:
        mult = np.asarray(table, dtype=np.intp)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"multiplication table is not an integer array: {exc}") from exc
    if mult.ndim != 2 or mult.shape[0] != mult.shape[1] or mult.shape[0] == 0:
        raise ValidationError(f"multiplication table must be square and nonempty, got shape {mult.shape}")
    n = mult.shape[0]
    if mult.min() < 0 or mult.max() >= n:
        bad = np.argwhere((mult < 0) | (mult >= n))[0]
        raise ValidationError(f"table entry at {tuple(bad)} out of range [0,{n - 1}]")

    idx = np.arange(n)
    identity = None
    for e in range(n):
        if np.array_equal(mult[e], idx) and np.array_equal(mult[:, e], idx):
            identity = e
            break
    if identity is None:
        raise ValidationError("table has no two-sided identity element")

    # mult[mult[g,h],k] vs mult[g,mult[h,k]] for all triples at once
    left = mult[mult]          # left[g,h,k] = (g*h)*k
    right = mult[:, mult]      # right[g,h,k] = g*(h*k)
    if not np.array_equal(left, right):
        g, h, k = np.argwhere(left != right)[0]
        raise ValidationError(f"table is not associative at triple ({g}, {h}, {k})")

    inv = np.full(n, -1, dtype=np.intp)
    for g in range(n):
        hs = np.flatnonzero(mult[g] == identity)
        if hs.size != 1 or mult[hs[0], g] != identity:
            raise ValidationError(f"element {g} has no two-sided inverse")
        inv[g] = hs[0]

    seen = np.zeros(n, dtype=bool)
    classes = []
    for g in range(n):
        if seen[g]:
            continue
        conj = mult[mult[idx, g], inv]
        members = tuple(sorted(set(int(x) for x in conj)))
        classes.append(members)
        seen[list(members)] = True

    mult.setflags(write=False)
    inv.setflags(write=False)
    return FiniteGroup(order=n, mult=mult, inv=inv, identity=identity,
                       classes=tuple(classes), name=name)


@dataclass(frozen=True, eq=False)
class GroupHom:
    """Homomorphism between finite groups, as an element-index map."""

    source: FiniteGroup
    target: FiniteGroup
    map: np.ndarray
    injective: bool = field(default=False)


def group_hom(source: FiniteGroup, target: FiniteGroup, mapping,
              require_injective: bool = False) -> GroupHom:
    """Validated homomorphism; optionally checked injective."""
    m = np.asarray(mapping, dtype=np.intp)
    if m.shape != (source.order,):
        raise ValidationError(f"map must have length {source.order}, got {m.shape}")
    if m.min() < 0 or m.max() >= target.order:
        raise ValidationError("map image out of range for target group")
    lhs = m[source.mult]                 # map(g*h)
    rhs = target.mult[np.ix_(m, m)]      # map(g)*map(h)
    if not np.array_equal(lhs, rhs):
        g, h = np.argwhere(lhs != rhs)[0]
        raise ValidationError(f"not a homomorphism at pair ({g}, {h})")
    injective = len(set(m.tolist())) == source.order
    if require_injective and not injective:
        raise ValidationError("map is not injective")
    m.setflags(write=False)
    return GroupHom(source=source, target=target, map=m, injective=injective)


def trivial_embedding(group: FiniteGroup, trivial: FiniteGroup) -> GroupHom:
    """Inclusion of a one-element group sending its element to the identity."""
    if trivial.order != 1:
        raise ValidationError("source must be the one-element group")
    return group_hom(trivial, group, [group.identity], require_injective=True)


def group_to_json(group: FiniteGroup) -> dict:
    out = {"order": group.order, "mult": group.mult.tolist()}
    if group.name:
        out["name"] = group.name
    return out


def group_from_json(obj) -> FiniteGroup:
    if not isinstance(obj, dict) or "mult" not in obj:
        raise ValidationError("group JSON must be an object with a 'mult' table")
    table = obj["mult"]
    if "order" in obj and len(table) != int(obj["order"]):
        raise ValidationError("declared order does not match table size")
    return validate_group(table, name=str(obj.get("name", "")))
