"""Level-shifted binary probabilities, product rules, and singlet tables.

A probability p generates a whole family p_k = g^k(p); every pair (p_k, q_k)
sums to 1 under the addition of any level l, which is what makes the family
a hierarchy of probabilistic models rather than a single one.  Joint
probabilities of event sequences are built as level-l products of
level-shifted conditionals; binary trees of conditionals cover outcomes
beyond the two-event case.

Probabilities are plain floats tagged with a level at API boundaries, never
wrapped numbers: mixed-level formulas (quantum conditionals combined with
macroscopic multiplication) stay directly expressible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arithmetic import ArithmeticContext, level_prod, level_sum
from .errors import ConfigError, DomainError
from .generator import ExtendedGenerator, eval_iterate, sine_extended


def level_shift(p: float, k: int, egen: ExtendedGenerator = sine_extended()) -> float:
    """The level-k image g^k(p) of a probability, again in [0,1]."""
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"probability must lie in [0,1], got {p!r}")
    return eval_iterate(egen, k, p)


def normalization_residual(p: float, k: int, l: int,
                           egen: ExtendedGenerator = sine_extended()) -> float:
    """|g^k(p) (+_l) g^k(1-p) - 1|, with both shifts evaluated independently.

    Mathematically zero for every (k, l).  Numerically the level-l addition
    pushes the base-level sum through g^l, whose inverse has unbounded
    derivative at 1; for l < 0 an ulp-level deviation of the base sum is
    therefore amplified roughly like its 2^|l|-th root unless the iterates
    have saturated exactly.
    """
    u = level_shift(p, k, egen)
    v = level_shift(1.0 - p, k, egen)
    ctx = ArithmeticContext(egen, l)
    return abs(level_sum(ctx, (u, v)) - 1.0)


def joint_product(conds: Sequence[tuple[float, int]], l: int = 0,
                  egen: ExtendedGenerator = sine_extended()) -> float:
    """Level-l product of level-shifted conditionals.

    ``conds`` is a sequence of (probability, level) pairs; the result is
    the fold of the level-l multiplication over g^{k_j}(p_j).  For l = 0
    this is the plain product of the shifted factors.
    """
    factors = [level_shift(p, k, egen) for p, k in conds]
    return level_prod(ArithmeticContext(egen, l), factors)


@dataclass(frozen=True)
class CondNode:
    """One node of a conditional-probability tree.

    ``p0``/``p1`` are the conditional probabilities of the two outcomes at
    this depth given the path so far; they must sum to 1.  ``level`` is the
    probability level attached to this depth of conditioning and defaults
    to 1 (conditionals one level above the arithmetic that multiplies them,
    as in the singlet construction).
    """

    level: int = 1
    p0: float = 0.5
    p1: float = 0.5
    children: tuple["CondNode", "CondNode"] | None = None

    def __post_init__(self):
        if not (0.0 <= self.p0 <= 1.0 and 0.0 <= self.p1 <= 1.0):
            raise DomainError("conditional probabilities must lie in [0,1]")
        if abs(self.p0 + self.p1 - 1.0) > 1e-12:
            raise DomainError(
                f"children probabilities must sum to 1, got {self.p0 + self.p1!r}")
        if self.children is not None and len(self.children) != 2:
            raise DomainError("a conditional node has exactly two children")


@dataclass(frozen=True)
class CondTree:
    """A complete binary tree of conditional probabilities plus a sum level."""

    root: CondNode
    sum_level: int = 0

    def __post_init__(self):
        if self.depth() is None:
            raise DomainError("conditional tree must have uniform depth")

    def depth(self) -> int | None:
        def walk(node: CondNode) -> int | None:
            if node.children is None:
                return 1
            d0, d1 = (walk(child) for child in node.children)
            return d0 + 1 if d0 is not None and d0 == d1 else None
        return walk(self.root)

    def leaf_paths(self) -> Iterable[str]:
        return ("".join(bits) for bits in itertools.product("01", repeat=self.depth()))


def make_node(obj: dict) -> CondNode:
    """Deserialize one node from a {level, p0[, p1], children} record.

    ``level`` defaults to 1 and ``p1`` to the complement of ``p0``.
    """
    unknown = set(obj) - {"level", "p0", "p1", "children"}
    if unknown:
        raise ConfigError(f"unknown tree node keys: {sorted(unknown)}")
    if "p0" not in obj:
        raise ConfigError("tree node needs 'p0'")
    p0 = float(obj["p0"])
    p1 = float(obj["p1"]) if "p1" in obj else 1.0 - p0
    children = None
    if "children" in obj and obj["children"] is not None:
        kids = obj["children"]
        if len(kids) != 2:
            raise ConfigError("tree node 'children' must hold exactly two records")
        children = (make_node(kids[0]), make_node(kids[1]))
    return CondNode(level=int(obj.get("level", 1)), p0=p0, p1=p1, children=children)


def tree_from_json(obj: dict) -> CondTree:
    """Deserialize a tree from {sum_level, root} (sum_level defaults to 0)."""
    unknown = set(obj) - {"sum_level", "root"}
    if unknown:
        raise ConfigError(f"unknown tree keys: {sorted(unknown)}")
    if "root" not in obj:
        raise ConfigError("tree object needs a 'root' node")
    return CondTree(root=make_node(obj["root"]), sum_level=int(obj.get("sum_level", 0)))


def tree_to_json(tree: CondTree) -> dict:
    def dump(node: CondNode) -> dict:
        rec = {"level": node.level, "p0": node.p0, "p1": node.p1}
        if node.children is not None:
            rec["children"] = [dump(node.children[0]), dump(node.children[1])]
        return rec
    return {"sum_level": tree.sum_level, "root": dump(tree.root)}


def tree_joint(tree: CondTree, leaf_path: str,
               egen: ExtendedGenerator = sine_extended()) -> float:
    """Joint probability of one root-to-leaf outcome sequence.

    Walks the path collecting (conditional, level) pairs and folds them with
    the level-``tree.sum_level`` product.
    """
    node: CondNode | None = tree.root
    conds: list[tuple[float, int]] = []
    for bit in leaf_path:
        if node is None:
            raise DomainError(f"path {leaf_path!r} longer than the tree depth")
        if bit not in "01":
            raise DomainError(f"leaf path must be a bit string, got {leaf_path!r}")
        conds.append((node.p0 if bit == "0" else node.p1, node.level))
        node = node.children[int(bit)] if node.children is not None else None
    if node is not None:
        raise DomainError(f"path {leaf_path!r} shorter than the tree depth")
    return joint_product(conds, l=tree.sum_level, egen=egen)


def tree_normalization(tree: CondTree, egen: ExtendedGenerator = sine_extended()) -> float:
    """Level-l sum of the joint probabilities over all leaves (brute-force
    enumeration); equals 1 up to the level-l amplification discussed in
    :func:`normalization_residual`."""
    joints = [tree_joint(tree, path, egen) for path in tree.leaf_paths()]
    return level_sum(ArithmeticContext(egen, tree.sum_level), joints)


def singlet_table(theta: float) -> np.ndarray:
    """The 2x2 joint-probability table of two ideal anticorrelated spins.

    Entry [a][b] is the level-1 conditional g(p(a|b)) multiplied at level 0
    by g(p(b)) = 1/2; in closed form the diagonal is sin^2(theta/2)/2 and
    the off-diagonal cos^2(theta/2)/2.  The off-diagonal entries are formed
    as exact complements of the diagonal ones so that every row and column
    sums to exactly 1/2 in floating point.
    """
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta must lie in [0, pi], got {theta!r}")
    s = math.sin(0.5 * theta) ** 2
    c = 1.0 - s
    return np.array([[0.5 * s, 0.5 * c],
                     [0.5 * c, 0.5 * s]])


def alpha_of_theta(theta):
    """The geometric angle seen two levels up from a hidden angle theta.

    alpha = 2 arcsin sqrt((2/pi) arcsin sqrt(theta/pi)); strictly increasing
    on [0, pi] with fixed points 0, pi/2 and pi.
    """
    arr = np.asarray(theta, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > math.pi):
        raise DomainError("theta must lie in [0, pi]")
    out = 2.0 * np.arcsin(np.sqrt((2.0 / np.pi) * np.arcsin(np.sqrt(arr / np.pi))))
    return float(out) if out.ndim == 0 else out
