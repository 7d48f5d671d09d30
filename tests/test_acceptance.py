"""Acceptance suite: one test per criterion, printing a pass line each.

Sweep tolerances and runtime budgets are pinned here; the plateau
resolvability filter (conftest.resolvable) applies wherever an identity
pulls a pushed intermediate, since double precision cannot carry such
draws (see the generator tests for the worked examples).
"""

import json
import math
import time

import numpy as np
import pytest

from nncalc.arithmetic import ArithmeticContext, arith
from nncalc.bell import (
    AngleQuad,
    TSIRELSON,
    ch_scan,
    ch_value_level1,
    refine_ch0_max,
    singlet_from_hidden,
)
from nncalc.calculus import LevelFunction, nn_derivative, nn_integral
from nncalc.cli import run
from nncalc.entropy import Distribution, renyi_closed, renyi_kn
from nncalc.fubini import lifted_form_value, projector_form
from nncalc.gcomplex import (
    ComplexLevelFunction,
    GComplex,
    PairArithmetic,
    gc_add,
    gc_conj,
    gc_div,
    gc_i,
    gc_mul,
    gc_neg,
    gc_one,
    gc_scalar_product,
    gc_scale,
    gc_sub,
    identity_bijection,
    to_base,
)
from nncalc.generator import effective_band, eval_iterate
from nncalc.lln import LevelBinomial, fig3_table, pmf_base_vector, simulate
from nncalc.probability import alpha_of_theta, joint_product, singlet_table

from conftest import resolvable


def report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: PASS{suffix}")


def test_criterion_01_functional_equation_suite(sine_eg):
    start = time.monotonic()
    ps = np.linspace(0.0, 1.0, 1001)
    qs = 1.0 - ps
    worst = 0.0
    for k in range(-15, 16):
        resid = np.abs(np.asarray(eval_iterate(sine_eg, k, ps))
                       + np.asarray(eval_iterate(sine_eg, k, qs)) - 1.0)
        worst = max(worst, float(np.max(resid)))
        assert worst < 1e-10, f"k={k}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, "functional equation over k in [-15,15]",
           f"worst residual {worst:.2e}, {elapsed:.2f}s")


def _vec_op(kind, a, b):
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    return a / b


def _resolvable_arr(*arrays, margin=1e-5):
    mask = np.ones_like(arrays[0], dtype=bool)
    for arr in arrays:
        mask &= np.abs(arr - np.round(arr)) > margin
    return mask


def test_criterion_02_arithmetic_isomorphism_suite(sine_eg, rng):
    start = time.monotonic()
    per_pair = 83  # 121 level pairs x 83 draws > 1e4 tuples
    checked = 0
    worst = 0.0
    it = sine_eg.iterate
    for k in range(-5, 6):
        for l in range(-5, 6):
            x = rng.uniform(0.05, 0.95, size=per_pair)
            y = rng.uniform(0.2, 0.9, size=per_pair)
            x_dl, y_dl = np.asarray(it(x, -l)), np.asarray(it(y, -l))
            x_dk, y_dk = np.asarray(it(x, -k)), np.asarray(it(y, -k))
            x_base, y_base = np.asarray(it(x, -(k + l))), np.asarray(it(y, -(k + l)))
            for kind in ("add", "sub", "mul", "div"):
                direct = np.asarray(it(_vec_op(kind, x_base, y_base), k + l))
                inner_k = np.asarray(it(_vec_op(kind, np.asarray(it(x_dl, -k)),
                                                np.asarray(it(y_dl, -k))), k))
                inner_l = np.asarray(it(_vec_op(kind, np.asarray(it(x_dk, -l)),
                                                np.asarray(it(y_dk, -l))), l))
                ok = _resolvable_arr(x_dl, y_dl, x_dk, y_dk, x_base, y_base,
                                     inner_k, inner_l, direct)
                if not np.any(ok):
                    continue
                checked += int(np.count_nonzero(ok))
                via_l = np.asarray(it(inner_k, l))
                via_k = np.asarray(it(inner_l, k))
                iso_lhs = np.asarray(it(direct, -k))
                diffs = np.maximum.reduce([
                    np.abs(direct - via_l),
                    np.abs(direct - via_k),
                    np.abs(iso_lhs - inner_l),
                ])
                worst = max(worst, float(np.max(diffs[ok])))
                assert worst < 1e-9, (kind, k, l)
    elapsed = time.monotonic() - start
    assert checked >= 10_000
    assert elapsed < 10.0
    report(2, "cross-level re-expressions and isomorphism identities",
           f"{checked} resolvable checks, worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_calculus_suite(sine_eg, rng):
    start = time.monotonic()
    bases = [
        (lambda r: r ** 3 - 2.0 * r + 1.5),
        math.exp,
        (lambda r: 2.0 + math.sin(r)),
    ]
    worst_ft1 = worst_ft2 = worst_cd = worst_ci = 0.0
    checked_ft1 = 0
    for base in bases:
        base00 = LevelFunction(base, sine_eg, 0, 0)
        for _ in range(6):
            k = int(rng.integers(-3, 4))
            l = int(rng.integers(-3, 4))
            fn = LevelFunction(base, sine_eg, k, l)
            va, vb = fn.value(0.15), fn.value(0.85)
            if not resolvable(va, vb, margin=1e-5):
                continue
            checked_ft1 += 1
            deriv = LevelFunction(lambda r: nn_derivative(base00, r), sine_eg, k, l)
            got = nn_integral(deriv, 0.15, 0.85)
            want = arith(ArithmeticContext(sine_eg, l), "sub", vb, va)
            worst_ft1 = max(worst_ft1, abs(got - want))
            assert worst_ft1 < 1e-6, (k, l)
    assert checked_ft1 >= 8

    from nncalc.calculus import integrate_base
    for base in bases[:2]:
        for _ in range(3):
            k = int(rng.integers(-3, 4))
            l = int(rng.integers(-3, 4))
            fn = LevelFunction(base, sine_eg, k, l)
            ra = sine_eg.iterate(0.1, -k)
            running = LevelFunction(
                lambda r, _b=base, _ra=ra: integrate_base(_b, _ra, r),
                sine_eg, k, l)
            for x in (0.3, 0.6, 0.8):
                err = abs(nn_derivative(running, x) - fn.value(x))
                worst_ft2 = max(worst_ft2, err)
                assert worst_ft2 < 1e-5, (k, l, x)

    for _ in range(25):
        k, l, m, n = (int(v) for v in rng.integers(-2, 3, size=4))
        base = bases[int(rng.integers(0, len(bases)))]
        fn = LevelFunction(base, sine_eg, k, l)
        other = LevelFunction(base, sine_eg, n, m)
        x = float(rng.uniform(0.25, 0.75))
        lhs = nn_derivative(fn, x)
        rhs = sine_eg.iterate(nn_derivative(other, sine_eg.iterate(x, -(k - n))), l - m)
        worst_cd = max(worst_cd, abs(lhs - rhs))
        assert worst_cd < 1e-6, (k, l, m, n)
        a, b = 0.2, 0.75
        lhs = nn_integral(fn, a, b)
        sa, sb = sine_eg.iterate(a, -(k - n)), sine_eg.iterate(b, -(k - n))
        rhs = sine_eg.iterate(nn_integral(other, sa, sb), l - m)
        worst_ci = max(worst_ci, abs(lhs - rhs))
        assert worst_ci < 1e-6, (k, l, m, n)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, "fundamental theorems and cross-level chain rules",
           f"FT1 {worst_ft1:.1e}, FT2 {worst_ft2:.1e}, chain {max(worst_cd, worst_ci):.1e}, "
           f"{elapsed:.1f}s")


def test_criterion_04_alpha_theta_reproduction():
    assert alpha_of_theta(0.0) == 0.0
    assert abs(alpha_of_theta(0.5 * math.pi) - 0.5 * math.pi) < 1e-12
    assert abs(alpha_of_theta(math.pi) - math.pi) < 1e-12
    thetas = np.linspace(0.0, math.pi, 1001)
    alphas = np.asarray(alpha_of_theta(thetas))
    assert np.all(np.diff(alphas) > 0.0)
    report(4, "angle map fixes {0, pi/2, pi} and is strictly monotone")


def test_criterion_05_singlet_reproduction(rng):
    worst = 0.0
    for _ in range(100):
        theta = float(rng.uniform(0.0, math.pi))
        base_angle = float(rng.uniform(0.0, 2.0 * math.pi))
        table = singlet_table(theta)
        s = math.sin(0.5 * theta) ** 2
        closed = np.array([[0.5 * s, 0.5 * (1.0 - s)], [0.5 * (1.0 - s), 0.5 * s]])
        via_product = np.array([
            [joint_product([(theta / math.pi, 1), (0.5, 1)], 0),
             joint_product([(1.0 - theta / math.pi, 1), (0.5, 1)], 0)],
            [joint_product([(1.0 - theta / math.pi, 1), (0.5, 1)], 0),
             joint_product([(theta / math.pi, 1), (0.5, 1)], 0)],
        ])
        diag = singlet_from_hidden(base_angle, base_angle + theta + math.pi)
        off = singlet_from_hidden(base_angle, base_angle + theta)
        via_hidden = np.array([[diag, off], [off, diag]])
        worst = max(worst,
                    float(np.max(np.abs(table - closed))),
                    float(np.max(np.abs(table - via_product))),
                    float(np.max(np.abs(table - via_hidden))))
        assert worst < 1e-10
        assert table[0][0] + table[0][1] == 0.5
        assert table[1][0] + table[1][1] == 0.5
        assert table[0][0] + table[1][0] == 0.5
        assert table[0][1] + table[1][1] == 0.5
    report(5, "singlet table from three routes with exact marginals",
           f"worst spread {worst:.2e}")


def test_criterion_06_clauser_horne(sine_eg, rng):
    start = time.monotonic()
    # level-1 combination stays in [0, 2] (vectorized pullback evaluation)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(10_000, 4))
    def reduced(d):
        d = np.abs(d) % (2.0 * math.pi)
        return np.pi - np.abs(np.pi - d)
    p1 = 1.0 - reduced(angles[:, 0] - angles[:, 2]) / math.pi
    p2 = 1.0 - reduced(angles[:, 0] - angles[:, 3]) / math.pi
    p3 = 1.0 - reduced(angles[:, 1] - angles[:, 2]) / math.pi
    p4 = 1.0 - reduced(angles[:, 1] - angles[:, 3]) / math.pi
    values = np.asarray(sine_eg.forward(p1 - p2 + p3 + p4))
    assert np.all(values >= -1e-9) and np.all(values <= 2.0 + 1e-9)
    # spot-check the vectorized evaluation against the API function
    for i in range(0, 10_000, 500):
        quad = AngleQuad(*(float(v) for v in angles[i]))
        assert ch_value_level1(quad) == pytest.approx(float(values[i]), abs=1e-12)

    scan = ch_scan(math.pi / 180.0)
    assert scan.max0 <= TSIRELSON + 1e-9
    assert scan.max0 >= TSIRELSON - 1e-3
    assert scan.max1 <= 2.0 + 1e-9
    refined_quad, refined = refine_ch0_max(scan.argmax0, initial_step=math.pi / 180.0)
    assert abs(refined - TSIRELSON) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(6, "level-1 bound holds, level-0 scan reaches 1+sqrt(2)",
           f"scan max0 {scan.max0:.6f}, refined {refined:.12f}, {elapsed:.1f}s")


def test_criterion_07_law_of_large_numbers(sine_eg, rng):
    start = time.monotonic()
    # pmf normalization for N <= 60 at observer levels 0..3
    worst = 0.0
    for _ in range(40):
        N = int(rng.integers(1, 61))
        p = float(rng.uniform(0.05, 0.95))
        k = int(rng.integers(-3, 4))
        l = int(rng.integers(0, 4))
        dist = LevelBinomial(N=N, p=p, k=k, l=l)
        total = sine_eg.iterate(float(math.fsum(pmf_base_vector(dist))), l)
        worst = max(worst, abs(total - 1.0))
        assert worst < 1e-9, (N, p, k, l)

    rows = fig3_table([1, 2, 3, 4], range(50, 51), 0.1)
    for _, _, bound in rows:
        assert abs(bound - 0.5) <= 1e-12

    exceed = []
    for seed in range(20):
        dist = LevelBinomial(N=10_000, p=0.5, k=1, l=1)
        rep = simulate(dist, eps=0.05, trials=1000, seed=seed)
        slack = 3.0 * math.sqrt(rep.bound * (1.0 - rep.bound) / 1000.0)
        assert rep.empirical_exceed_rate <= rep.bound + slack
        exceed.append(rep.empirical_exceed_rate)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(7, "binomial normalization, fixed-point bound row, Monte Carlo soundness",
           f"worst norm residual {worst:.2e}, max rate {max(exceed):.4f}, {elapsed:.1f}s")


def test_criterion_08_entropy(rng):
    worst = 0.0
    for _ in range(40):
        size = int(rng.integers(2, 17))
        raw = rng.uniform(0.01, 1.0, size=size)
        dist = Distribution((raw / raw.sum()).tolist())
        for alpha in (0.25, 0.5, 2.0, 3.0, 5.0):
            worst = max(worst, abs(renyi_kn(dist, alpha) - renyi_closed(dist, alpha)))
            assert worst < 1e-10
    for m in (2, 3, 7, 16):
        uniform = Distribution([1.0 / m] * m)
        for alpha in (0.5, 2.0, 5.0):
            assert abs(renyi_closed(uniform, alpha) - math.log(m)) < 1e-12
    for _ in range(10):
        raw1 = rng.uniform(0.05, 1.0, size=3)
        raw2 = rng.uniform(0.05, 1.0, size=5)
        p, q = raw1 / raw1.sum(), raw2 / raw2.sum()
        joint = Distribution([float(a * b) for a in p for b in q])
        for alpha in (0.5, 2.0, 3.0):
            add_err = abs(renyi_closed(joint, alpha)
                          - renyi_closed(Distribution(p.tolist()), alpha)
                          - renyi_closed(Distribution(q.tolist()), alpha))
            assert add_err < 1e-9
    report(8, "KN route equals closed form, uniform value, additivity",
           f"worst KN-closed gap {worst:.2e}")


def test_criterion_09_fubini(sine_eg, rng):
    from nncalc.fubini import geodesic_distance, hidden_prob

    worst_rt = 0.0
    for dim in (2, 3, 4, 5):
        for _ in range(25):
            a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            theta = geodesic_distance(a, b)
            lifted = sine_eg.forward(hidden_prob(theta))
            worst_rt = max(worst_rt, abs(lifted - abs(np.vdot(a, b)) ** 2))
            assert worst_rt < 1e-10
    worst_lift = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        a /= np.linalg.norm(a)
        form = projector_form(b)
        direct = form.evaluate(a)
        worst_lift = max(worst_lift,
                         abs(lifted_form_value(form, a) - sine_eg.forward(direct)))
        assert worst_lift < 1e-12
    report(9, "overlap round trip and lifted quadratic form",
           f"round trip {worst_rt:.2e}, lift {worst_lift:.2e}")


def test_criterion_10_generalized_complex(rng):
    pa_sine = PairArithmetic.default_sine()
    ii = gc_mul(pa_sine, gc_i(pa_sine), gc_i(pa_sine))
    minus_one = gc_neg(pa_sine, gc_one(pa_sine))
    assert to_base(pa_sine, ii) == to_base(pa_sine, minus_one)

    dom = identity_bijection()
    A = ComplexLevelFunction(lambda r: complex(math.cos(r), 0.3 * r), dom, pa_sine)
    B = ComplexLevelFunction(lambda r: complex(r * r - 0.2, math.sin(r)), dom, pa_sine)
    ab = gc_scalar_product(A, B, 2.0)
    ba = gc_scalar_product(B, A, 2.0)
    flipped = gc_conj(pa_sine, ab)
    assert flipped.x1 == pytest.approx(ba.x1, abs=1e-9)
    assert flipped.x2 == pytest.approx(ba.x2, abs=1e-9)
    lam = GComplex(0.4, -0.3)
    lhs = gc_scalar_product(A, gc_scale(B, lam), 2.0)
    rhs = gc_mul(pa_sine, lam, ab)
    assert lhs.x1 == pytest.approx(rhs.x1, abs=1e-9)
    assert lhs.x2 == pytest.approx(rhs.x2, abs=1e-9)

    pa_id = PairArithmetic.identity()
    comps = rng.uniform(-10.0, 10.0, size=(10_000, 4))
    for row in comps:
        u = GComplex(float(row[0]), float(row[1]))
        v = GComplex(float(row[2]), float(row[3]))
        zu, zv = complex(u.x1, u.x2), complex(v.x1, v.x2)
        for op, zval in ((gc_add, zu + zv), (gc_sub, zu - zv),
                         (gc_mul, zu * zv), (gc_div, zu / zv)):
            got = op(pa_id, u, v)
            assert got.x1 == zval.real and got.x2 == zval.imag
    report(10, "imaginary unit square, scalar-product laws, bit-exact identity pair")


def test_criterion_11_effective_band(sine_eg):
    band = effective_band(sine_eg, 0.01)
    assert 12 <= band.k_max <= 18
    assert band.k_min <= 0 <= band.k_max
    report(11, "effective band at resolution 0.01", f"k_max {band.k_max}, k_min {band.k_min}")


def test_criterion_12_cli_determinism(tmp_path):
    commands = [
        ["iterate", "--levels", "1,2,5,15", "--grid", "201"],
        ["alpha-theta", "--grid", "201"],
        ["bell-scan", "--resolution", "1deg"],
        ["lln", "--levels", "1,2,3,4", "--eps", "0.1", "--n-min", "25", "--n-max", "75"],
        ["lln-sim", "--N", "2000", "--p", "0.5", "--eps", "0.05", "--trials", "200",
         "--seed", "123"],
        ["singlet", "--theta", "1.0471975511965976"],
        ["entropy", "--probs", "0.1,0.2,0.3,0.4", "--alpha", "2"],
        ["arith", "--level", "1", "--op", "mul", "0.5", "0.5"],
    ]
    state_a = tmp_path / "sa.json"
    state_b = tmp_path / "sb.json"
    state_a.write_text(json.dumps({"components": [[1.0, 0.0], [0.0, 0.0]]}))
    state_b.write_text(json.dumps({"components": [[0.6, 0.0], [0.8, 0.0]]}))
    commands.append(["fubini", "--state-a", str(state_a), "--state-b", str(state_b)])
    for i, args in enumerate(commands):
        out1 = tmp_path / f"first_{i}.txt"
        out2 = tmp_path / f"second_{i}.txt"
        assert run(args + ["--out", str(out1)]) == 0, args
        assert run(args + ["--out", str(out2)]) == 0, args
        assert out1.read_bytes() == out2.read_bytes(), args
    report(12, "byte-identical CLI outputs for identical config and seed")
