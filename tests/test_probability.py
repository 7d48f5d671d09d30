import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CountingGenerator
from nncalc.arithmetic import ArithmeticContext, level_sum
from nncalc.errors import ConfigError, DomainError
from nncalc.generator import sine_extended
from nncalc.probability import (
    CondNode,
    CondTree,
    alpha_of_theta,
    joint_product,
    level_shift,
    normalization_residual,
    singlet_table,
    tree_from_json,
    tree_joint,
    tree_normalization,
    tree_to_json,
)

# mpmath (50 digits): sin(3 pi/8)^2 = cos(pi/8)^2
COS_EIGHTH_SQ = 0.85355339059327376220042218105242452
# mpmath (50 digits): 2 asin(sqrt(1/3))
ALPHA_QUARTER_PI = 1.2309594173407746821202996599342108


def test_level_shift_examples():
    for k in (-7, -1, 0, 1, 7):
        assert level_shift(0.5, k) == 0.5
    assert level_shift(0.42, 0) == 0.42
    assert level_shift(0.75, 1) == pytest.approx(COS_EIGHTH_SQ, abs=1e-15)
    with pytest.raises(DomainError):
        level_shift(1.2, 1)


@given(st.floats(min_value=1e-6, max_value=1.0), st.integers(min_value=-8, max_value=8))
def test_level_shift_functional_equation(p, k):
    # below ~1e-6 the float rounding of 1-p itself dominates the residual
    # (the complement of a tiny p loses relative accuracy before any shift)
    assert abs(level_shift(p, k) + level_shift(1.0 - p, k) - 1.0) < 1e-10


def test_level_shift_functional_equation_endpoints():
    for k in (-8, -1, 0, 1, 8):
        assert level_shift(0.0, k) + level_shift(1.0, k) == 1.0


def test_normalization_residual_examples():
    assert normalization_residual(0.3, 0, 0) < 1e-10
    assert normalization_residual(0.3, 5, -5) < 1e-10
    for k in (-3, 0, 4):
        for l in (-2, 0, 3):
            assert normalization_residual(0.5, k, l) == 0.0


def test_normalization_residual_nonnegative_levels(rng):
    for _ in range(40):
        p = float(rng.uniform(0.0, 1.0))
        k = int(rng.integers(-3, 4))
        l = int(rng.integers(0, 4))
        assert normalization_residual(p, k, l) < 1e-10


def test_normalization_pullback_form_negative_levels(rng):
    # for l < 0 the final push amplifies an ulp-level deviation of the
    # pullback sum like its 2^|l|-th root, so the identity is checked in
    # the order-isomorphic pullback form instead
    eg = sine_extended()
    for _ in range(40):
        p = float(rng.uniform(0.0, 1.0))
        k = int(rng.integers(-3, 4))
        l = int(rng.integers(-3, 0))
        s = eg.iterate(level_shift(p, k), -l) + eg.iterate(level_shift(1.0 - p, k), -l)
        assert abs(s - 1.0) < 1e-12


def test_joint_product_single_factor(rng):
    for _ in range(10):
        p = float(rng.uniform(0.0, 1.0))
        k = int(rng.integers(-3, 4))
        l = int(rng.integers(-3, 4))
        assert joint_product([(p, k)], l) == pytest.approx(level_shift(p, k), abs=1e-12)


def test_joint_product_singlet_case():
    # two level-1 conditionals multiplied at level 0 at the quarter angle
    theta = 0.5 * math.pi
    got = joint_product([(0.5, 1), (theta / math.pi, 1)], l=0)
    assert got == pytest.approx(0.25, abs=1e-14)


def test_joint_product_single_level_collapses(rng):
    eg = sine_extended()
    for _ in range(20):
        k = int(rng.integers(-3, 4))
        ps = rng.uniform(0.1, 0.9, size=3)
        got = joint_product([(float(p), k) for p in ps], l=k)
        want = eg.iterate(float(np.prod(ps)), k)
        assert got == pytest.approx(want, abs=1e-11)


def test_two_event_normalization_level_range(rng):
    # sum over the four outcomes of level-shifted conditional products
    for _ in range(60):
        p1 = float(rng.uniform(0.0, 1.0))
        p2a = float(rng.uniform(0.0, 1.0))
        p2b = float(rng.uniform(0.0, 1.0))
        k1 = int(rng.integers(-3, 4))
        k2 = int(rng.integers(-3, 4))
        l = int(rng.integers(0, 4))
        eg = sine_extended()
        ctx = ArithmeticContext(eg, l)
        terms = [
            joint_product([(p2a, k2), (p1, k1)], l),
            joint_product([(1.0 - p2a, k2), (p1, k1)], l),
            joint_product([(p2b, k2), (1.0 - p1, k1)], l),
            joint_product([(1.0 - p2b, k2), (1.0 - p1, k1)], l),
        ]
        total = eg.iterate(math.fsum(eg.iterate(t, -l) for t in terms), l)
        assert abs(total - 1.0) < 1e-9, (k1, k2, l)
        # pullback form of the same identity, evaluated directly (no
        # push/pull round trips), valid at every l including negative ones
        s = math.fsum((
            eg.iterate(p2a, k2 - l) * eg.iterate(p1, k1 - l),
            eg.iterate(1.0 - p2a, k2 - l) * eg.iterate(p1, k1 - l),
            eg.iterate(p2b, k2 - l) * eg.iterate(1.0 - p1, k1 - l),
            eg.iterate(1.0 - p2b, k2 - l) * eg.iterate(1.0 - p1, k1 - l),
        ))
        assert abs(s - 1.0) < 1e-12


def coin_tree(levels=(1,), l=0, p=0.5):
    def build(depth):
        if depth == len(levels):
            return None
        kids = build(depth + 1)
        node = CondNode(levels[depth], p, 1.0 - p,
                        None if kids is None else (kids, kids))
        return node
    return CondTree(build(0), sum_level=l)


def test_tree_fair_coin():
    for k in (-3, 0, 2):
        for l in (-2, 0, 3):
            tree = coin_tree(levels=(k,), l=l)
            assert tree_joint(tree, "0") == 0.5
            assert tree_joint(tree, "1") == 0.5
            assert tree_normalization(tree) == pytest.approx(1.0, abs=1e-12)


def test_tree_singlet_leaves():
    theta = 0.7
    root = CondNode(1, 0.5, 0.5, (
        CondNode(1, theta / math.pi, 1.0 - theta / math.pi),
        CondNode(1, 1.0 - theta / math.pi, theta / math.pi),
    ))
    tree = CondTree(root, sum_level=0)
    s2 = math.sin(0.5 * theta) ** 2
    assert tree_joint(tree, "00") == pytest.approx(0.5 * s2, abs=1e-12)
    assert tree_joint(tree, "01") == pytest.approx(0.5 * (1 - s2), abs=1e-12)
    assert tree_normalization(tree) == pytest.approx(1.0, abs=1e-12)


def test_tree_random_depth_three(rng):
    eg = sine_extended()
    for _ in range(15):
        levels = [int(v) for v in rng.integers(-3, 4, size=3)]
        probs = rng.uniform(0.05, 0.95, size=7)

        def build(depth, idx):
            p0 = float(probs[idx])
            if depth == 2:
                return CondNode(levels[depth], p0, 1.0 - p0)
            return CondNode(levels[depth], p0, 1.0 - p0,
                            (build(depth + 1, 2 * idx + 1), build(depth + 1, 2 * idx + 2)))

        l = int(rng.integers(0, 4))
        tree = CondTree(build(0, 0), sum_level=l)
        assert abs(tree_normalization(tree) - 1.0) < 1e-9
        # brute-force pullback oracle: walk each path multiplying the
        # directly shifted conditionals, no push/pull round trips
        s = 0.0
        for path in tree.leaf_paths():
            node, prod = tree.root, 1.0
            for bit in path:
                p = node.p0 if bit == "0" else node.p1
                prod *= eg.iterate(p, node.level - l)
                node = node.children[int(bit)] if node.children else None
            s += prod
        assert abs(s - 1.0) < 1e-12


def test_tree_validation():
    with pytest.raises(DomainError):
        CondNode(1, 0.6, 0.6)
    with pytest.raises(DomainError):
        CondNode(1, -0.1, 1.1)
    lopsided = CondNode(1, 0.5, 0.5, (
        CondNode(1, 0.5, 0.5, (CondNode(1, 0.5, 0.5), CondNode(1, 0.5, 0.5))),
        CondNode(1, 0.5, 0.5),
    ))
    with pytest.raises(DomainError):
        CondTree(lopsided, 0)


def test_cond_node_needs_two_children():
    with pytest.raises(DomainError, match="exactly two children"):
        CondNode(1, 0.5, 0.5, (CondNode(1, 0.5, 0.5),))


def test_tree_path_errors():
    tree = coin_tree(levels=(1, 1), l=0)
    with pytest.raises(DomainError):
        tree_joint(tree, "0")
    with pytest.raises(DomainError):
        tree_joint(tree, "010")
    with pytest.raises(DomainError):
        tree_joint(tree, "0x")


def test_tree_json_roundtrip():
    root = CondNode(2, 0.3, 0.7, (CondNode(1, 0.25, 0.75), CondNode(-1, 0.5, 0.5)))
    tree = CondTree(root, sum_level=1)
    assert tree_from_json(tree_to_json(tree)) == tree
    with pytest.raises(ConfigError):
        tree_from_json({"root": {"level": 1, "p0": 0.5}, "weird": 1})
    with pytest.raises(ConfigError):
        tree_from_json({"sum_level": 0})
    with pytest.raises(ConfigError):
        tree_from_json({"root": {"level": 1}})
    with pytest.raises(ConfigError):
        tree_from_json({"root": {"level": 1, "p0": 0.5, "children": [{"level": 0, "p0": 1.0}]}})


@pytest.mark.parametrize("obj", [
    {"root": 5},
    {"root": {"p0": "x"}},
    {"root": {"p0": 0.5, "level": math.inf}},
    {"root": {"p0": 0.5, "children": 5}},
], ids=repr)
def test_tree_json_malformed_raises_config_error(obj):
    # raw TypeError, ValueError, OverflowError and TypeError before
    with pytest.raises(ConfigError):
        tree_from_json(obj)


def test_tree_json_defaults_complement():
    tree = tree_from_json({"root": {"level": 1, "p0": 0.3}})
    assert tree.root.p1 == 0.7
    assert tree.sum_level == 0
    # level defaults to 1, the quantum-conditional convention
    tree = tree_from_json({"root": {"p0": 0.3}})
    assert tree.root.level == 1


def test_singlet_table_anticorrelation():
    table = singlet_table(0.0)
    assert table[0][0] == 0.0 and table[1][1] == 0.0
    assert table[0][1] == 0.5 and table[1][0] == 0.5


def test_singlet_table_quarter():
    table = singlet_table(0.5 * math.pi)
    assert np.allclose(table, 0.25, atol=1e-15)


def test_singlet_table_marginals_exact(rng):
    for theta in rng.uniform(0.0, math.pi, size=50):
        table = singlet_table(float(theta))
        assert table[0][0] + table[0][1] == 0.5
        assert table[1][0] + table[1][1] == 0.5
        assert table[0][0] + table[1][0] == 0.5
        assert table[0][1] + table[1][1] == 0.5
        assert math.fsum(table.ravel()) == 1.0


def test_singlet_table_against_mpmath(rng):
    # the off-diagonal entry as 1 - sin^2(theta/2) cancelled near pi, 8.7e15 ulps off
    mpmath = pytest.importorskip("mpmath")
    thetas = ([0.0, 0.5 * math.pi, math.pi] + (math.pi - 10.0 ** np.linspace(-8, -1, 200)).tolist()
              + rng.uniform(0.0, math.pi, 1000).tolist())
    with mpmath.workdps(50):
        for theta in thetas:
            table = singlet_table(theta)
            half = mpmath.mpf(theta) / 2
            for got, want in ((table[0][0], mpmath.sin(half) ** 2 / 2),
                              (table[0][1], mpmath.cos(half) ** 2 / 2)):
                assert abs(mpmath.mpf(float(got)) - want) <= 4 * math.ulp(float(want)), theta


def test_singlet_table_matches_joint_product(rng):
    for theta in rng.uniform(0.0, math.pi, size=25):
        theta = float(theta)
        table = singlet_table(theta)
        p_same = theta / math.pi
        got00 = joint_product([(p_same, 1), (0.5, 1)], l=0)
        got01 = joint_product([(1.0 - p_same, 1), (0.5, 1)], l=0)
        assert got00 == pytest.approx(float(table[0][0]), abs=1e-12)
        assert got01 == pytest.approx(float(table[0][1]), abs=1e-12)


def test_singlet_table_lifted_sum(rng):
    # the doubled-argument lift keeps the four entries summing to one
    from nncalc.bell import GMap

    gmap = GMap(sine_extended())
    for theta in rng.uniform(0.0, math.pi, size=25):
        table = singlet_table(float(theta))
        total = math.fsum(gmap.forward(float(v)) for v in table.ravel())
        assert abs(total - 1.0) < 1e-12


def test_singlet_table_domain():
    with pytest.raises(DomainError):
        singlet_table(-0.1)
    with pytest.raises(DomainError):
        singlet_table(3.5)


def test_alpha_fixed_points():
    assert alpha_of_theta(0.0) == 0.0
    assert abs(alpha_of_theta(0.5 * math.pi) - 0.5 * math.pi) < 1e-12
    assert abs(alpha_of_theta(math.pi) - math.pi) < 1e-12


def test_alpha_quarter():
    assert alpha_of_theta(0.25 * math.pi) == pytest.approx(ALPHA_QUARTER_PI, abs=1e-12)


def test_alpha_monotone_and_above_identity():
    thetas = np.linspace(0.0, math.pi, 1001)
    alphas = np.asarray(alpha_of_theta(thetas))
    assert np.all(np.diff(alphas) > 0.0)
    interior = (thetas > 0.0) & (thetas < 0.5 * math.pi)
    assert np.all(alphas[interior] > thetas[interior])


def test_alpha_domain():
    with pytest.raises(DomainError):
        alpha_of_theta(-0.2)
    with pytest.raises(DomainError):
        alpha_of_theta(3.3)
    for bad in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(DomainError):
            alpha_of_theta(bad)
    assert alpha_of_theta(np.array([])).shape == (0,)


def _tree_normalization_per_leaf_oracle(tree, egen):
    """tree_normalization as the level-l sum of tree_joint over every leaf path, the
    form before the shared walk."""
    joints = [tree_joint(tree, path, egen) for path in tree.leaf_paths()]
    return level_sum(ArithmeticContext(egen, tree.sum_level), joints)


def _random_tree(rng, depth):
    """A tree of the given depth with levels in -3..3 and conditionals that include 0 and 1."""
    def build(d):
        p0 = float(rng.choice([0.0, 1.0])) if rng.random() < 0.1 else float(rng.uniform())
        level = int(rng.integers(-3, 4))
        if d == depth:
            return CondNode(level, p0, 1.0 - p0)
        return CondNode(level, p0, 1.0 - p0, (build(d + 1), build(d + 1)))
    return CondTree(build(1), sum_level=int(rng.integers(-3, 4)))


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_tree_normalization_keeps_the_bits_of_the_per_leaf_joints(sine_eg, convex_eg, rng,
                                                                  depth):
    for egen, trees in ((sine_eg, 20), (convex_eg, 3)):  # the convex inverse bisects: slow
        for _ in range(trees):
            tree = _random_tree(rng, depth)
            assert (tree_normalization(tree, egen).hex()
                    == _tree_normalization_per_leaf_oracle(tree, egen).hex()), tree_to_json(tree)


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_tree_normalization_shifts_and_pulls_each_conditional_once(sine_gen, rng, depth):
    # 2 (2^d - 1) conditionals, each shifted and pulled; 2^d leaf pushes and the
    # level_sum's 2^d pulls; one last push
    egen = CountingGenerator(sine_gen)
    tree = _random_tree(rng, depth)
    assert tree.sum_level != 0
    tree_normalization(tree, egen)
    assert len(egen.calls) == 4 * (2**depth - 1) + 2 * 2**depth + 1
    # at sum level 0 no pull or push calls the generator: the shifts are left
    egen.calls.clear()
    tree_normalization(dataclasses.replace(tree, sum_level=0), egen)
    assert len(egen.calls) == 2 * (2**depth - 1)
