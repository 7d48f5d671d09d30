"""The three workloads: seeded inputs, per-pass call lists and output checks.

A workload hands the runner a list of ``Call``s for each pass.  Every call
goes into one public function of one nncalc module and carries a check that
raises ``CheckFailed`` when the output misses its reference.  Inputs come
only from the run's seed; the ``max_err_ulps`` sample is fixed (seed
``ORACLE_SEED``) so that it compares commits rather than seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref
from nncalc import bell, calculus, cli, entropy, fubini, gcomplex, lln, probability
from nncalc.arithmetic import ArithmeticContext, arith, level_prod, level_sum
from nncalc.generator import (
    ExtendedGenerator,
    Generator,
    convex_combine,
    eval_iterate,
    load_generator,
    make_identity_generator,
    make_sine_generator,
    sine_extended,
)

ORACLE_SEED = 20251001
#: share of scalar operands drawn from the real line [-3, 3] instead of (0, 1]
REAL_LINE_SHARE = 0.2
VECTOR_N = 1_000_000
CONVEX_N = 10_000
#: vector outputs are compared with the scalar reference at this many seeded indices
VECTOR_CHECK_POINTS = 400
OPS = ("add", "sub", "mul", "div")
#: lifted_form_value at dimension 4 folds 48 transported terms; its distance
#: from g(<a|P|a>) has a heavy rounding tail (median 2e-14, 99th percentile
#: 1e-11, 1.06e-8 seen once in about 2000 draws), so the identity is checked
#: at a tolerance that catches a wrong result rather than that tail
LIFTED_FORM_TOL = 1e-6


class CheckFailed(Exception):
    """An output missed its reference."""


def expect(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def expect_close(value, reference: float, tol: float, what: str) -> None:
    if not ref.close(value, reference, tol):
        raise CheckFailed(f"{what}: {float(value)!r} vs reference {reference!r} (tol {tol:g})")


class Counter:
    """Counts calls of the callables it wraps; read at the call boundary."""

    def __init__(self):
        self.n = 0

    def wrap(self, fn):
        def counted(*args):
            self.n += 1
            return fn(*args)
        return counted


@dataclass
class Call:
    module: str                  # nncalc module whose public function is called
    name: str                    # span name
    fn: Callable
    args: tuple
    check: Callable[[Any], None]
    counter: Counter | None = None


def _digest(out) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    if isinstance(out, np.ndarray):
        h.update(memoryview(np.ascontiguousarray(out)).cast("B"))
    else:
        h.update(repr(out).encode())
    return h.digest()


class Stable:
    """Reference check on the first output; later outputs must be byte-identical to it.

    The first verdict is replayed for identical outputs, so a wrong result
    fails in every pass, not only the first.
    """

    def __init__(self, check: Callable[[Any], None]):
        self.check = check
        self.digest = None
        self.verdict = None
        self.first = None

    def __call__(self, out) -> None:
        d = _digest(out)
        if self.digest is None:
            self.digest = d
            self.first = out
            try:
                self.check(out)
            except CheckFailed as exc:
                self.verdict = str(exc)
        elif d != self.digest:
            raise CheckFailed("output differs from the first pass")
        if self.verdict is not None:
            raise CheckFailed(self.verdict)


# --------------------------------------------------------------------------- cli_docs

def _csv(text: str):
    expect(text.endswith("\n") and "\r" not in text, "CSV must end in LF and use LF only")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _float17(tok: str) -> float:
    """Parse a float printed with 17 significant digits (``%.17g``)."""
    v = float(tok)
    expect("%.17g" % v == tok, f"float {tok!r} is not printed as %.17g")
    return v


def _json(text: str) -> dict:
    obj = json.loads(text)
    # floats must survive the round trip, and the layout must be the canonical one
    expect(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n" == text,
           "JSON output does not round-trip byte for byte")
    return obj


def _check_iterate(levels, grid):
    ps = np.linspace(0.0, 1.0, grid)

    def check(text):
        header, rows = _csv(text)
        expect(header == ["p"] + [f"g{k}" for k in levels], f"header {header}")
        expect(len(rows) == grid, f"{len(rows)} rows, expected {grid}")
        for row, p in zip(rows, ps):
            expect(_float17(row[0]) == p, f"grid point {row[0]}")
            for k, tok in zip(levels, row[1:]):
                expect_close(_float17(tok), ref.iterate(float(p), k),
                             1e-12 if abs(k) <= 5 else 1e-9, f"g^{k}({p})")
    return check


def _check_alpha(grid):
    thetas = np.linspace(0.0, math.pi, grid)

    def check(text):
        header, rows = _csv(text)
        expect(header == ["theta", "alpha"] and len(rows) == grid, "alpha-theta layout")
        for (t_tok, a_tok), theta in zip(rows, thetas):
            expect(_float17(t_tok) == theta, f"theta {t_tok}")
            expect_close(_float17(a_tok), ref.alpha_of_theta(float(theta)), 1e-12,
                         f"alpha({theta})")
    return check


def _check_bell_scan(text):
    rep = _json(text)
    expect(set(rep) == {"max0", "argmax0", "max1", "argmax1", "tsirelson_check"}, "keys")
    expect(rep["tsirelson_check"] is True, "tsirelson_check is false")
    expect_close(rep["max0"], bell.TSIRELSON, 1e-12, "max0 against 1 + sqrt 2")
    expect_close(rep["max0"], bell.ch_value_level0(rep["argmax0"]), 1e-12, "max0 at argmax0")
    expect(rep["max1"] <= 2.0 + 1e-9, "max1 above 2")
    expect_close(rep["max1"], bell.ch_value_level1(rep["argmax1"]), 1e-9, "max1 at argmax1")


def _check_lln(levels, eps, n_min, n_max):
    def check(text):
        header, rows = _csv(text)
        expect(header == ["level", "N", "bound"], f"header {header}")
        expect(len(rows) == len(levels) * (n_max - n_min + 1), "row count")
        expected = ((l, n) for l in levels for n in range(n_min, n_max + 1))
        for (l_tok, n_tok, b_tok), (l, n) in zip(rows, expected):
            expect((l_tok, n_tok) == (str(l), str(n)), f"row key {l_tok},{n_tok}")
            expect_close(_float17(b_tok), ref.iterate(1.0 / (4.0 * n * eps ** 2), l), 1e-12,
                         f"bound l={l} N={n}")
    return check


def _check_lln_sim(n, p, eps):
    def check(text):
        rep = _json(text)
        bound = p * (1.0 - p) / (n * eps ** 2)
        expect_close(rep["bound"], bound, 1e-15, "Chebyshev bound")
        expect(0.0 <= rep["empirical_exceed_rate"] <= bound, "exceedance rate above its bound")
    return check


def _check_singlet(theta):
    s = math.sin(0.5 * theta) ** 2

    def check(text):
        header, rows = _csv(text)
        expect(header == ["a", "b", "p"] and len(rows) == 4, "singlet layout")
        for a_tok, b_tok, p_tok in rows:
            a, b = int(a_tok), int(b_tok)
            expect_close(_float17(p_tok), 0.5 * s if a == b else 0.5 * (1.0 - s), 1e-15,
                         f"p({a},{b})")
    return check


def _check_entropy(text):
    rep = _json(text)
    expect(rep["alpha"] == 2.0 and rep["probs"] == [0.5, 0.5], "echoed inputs")
    for key in ("renyi_kn", "renyi_closed"):
        expect_close(rep[key], math.log(2.0), 1e-14, key)


def _check_fubini(a, b):
    inner = sum(x.conjugate() * y for x, y in zip(a, b))
    norm = math.sqrt(sum(abs(x) ** 2 for x in a) * sum(abs(y) ** 2 for y in b))
    theta_ref = math.acos(min(1.0, abs(inner) / norm))

    def check(text):
        rep = _json(text)
        expect(rep["ladder_levels"] == list(range(-3, 4)), "ladder levels")
        theta = rep["theta"]
        expect_close(theta, theta_ref, 1e-12, "geodesic angle")
        expect_close(rep["hidden_p"], 1.0 - theta / ref.HALF_PI, 1e-15, "hidden_p")
        big_p = math.cos(theta) ** 2
        p0 = 1.0 - math.acos(math.sqrt(big_p)) / ref.HALF_PI
        for j, v in zip(range(-3, 4), rep["ladder"]):
            expect_close(v, ref.iterate(p0, j), 1e-12, f"ladder rung {j}")
        expect_close(rep["ladder"][4], big_p, 1e-12, "rung 1 against cos^2 theta")
    return check


def _check_arith(text):
    expect(text.endswith("\n"), "missing newline")
    value = _float17(text[:-1])
    expect_close(value, ref.arith(1, "mul", 0.5, 0.5), 1e-15, "0.5 (x)_1 0.5")
    expect_close(value, math.sin(math.pi / 8) ** 2, 1e-15, "g(1/4) = sin^2(pi/8)")


def _random_state(rng, dim):
    return [complex(float(re), float(im)) for re, im in rng.normal(size=(dim, 2))]


class CliDocs:
    """The ten README commands at their documented configurations, through ``cli.run``."""

    name = "cli_docs"
    calibration = "scalar"

    def __init__(self, seed: int, tmpdir: str):
        rng = np.random.default_rng([seed, 1])
        dim = int(rng.integers(2, 5))
        self.state_a, self.state_b = _random_state(rng, dim), _random_state(rng, dim)
        path = lambda name: os.path.join(tmpdir, name)  # noqa: E731
        for fname, state in (("a.json", self.state_a), ("b.json", self.state_b)):
            with open(path(fname), "w", encoding="utf-8") as fh:
                json.dump({"components": [[z.real, z.imag] for z in state]}, fh)
        # (span suffix, argv, output file, check).  The inverse-iterate command
        # is written with '=': the README's '--levels -1,...' exits with code 2
        # because argparse takes '-1,...' for an option flag.
        commands = [
            ("iterate", ["iterate", "--levels", "1,2,5,15", "--grid", "1001"], "iterates.csv",
             _check_iterate([1, 2, 5, 15], 1001)),
            ("iterate-inverse", ["iterate", "--levels=-1,-2,-5,-15"], "inverse_iterates.csv",
             _check_iterate([-1, -2, -5, -15], 1001)),
            ("alpha-theta", ["alpha-theta", "--grid", "1001"], "alpha.csv", _check_alpha(1001)),
            ("bell-scan", ["bell-scan", "--resolution", "1deg"], "report.json", _check_bell_scan),
            ("lln", ["lln", "--levels", "1,2,3,4", "--eps", "0.1", "--n-min", "25",
                     "--n-max", "75"], "fig3.csv", _check_lln([1, 2, 3, 4], 0.1, 25, 75)),
            ("lln-sim", ["lln-sim", "--N", "10000", "--p", "0.5", "--eps", "0.05",
                         "--trials", "1000", "--seed", "7"], "sim.json",
             _check_lln_sim(10000, 0.5, 0.05)),
            ("singlet", ["singlet", "--theta", "90deg"], "singlet.csv",
             _check_singlet(math.pi / 2)),
            ("entropy", ["entropy", "--probs", "0.5,0.5", "--alpha", "2"], "entropy.json",
             _check_entropy),
            ("fubini", ["fubini", "--state-a", path("a.json"), "--state-b", path("b.json")],
             "fubini.json", _check_fubini(self.state_a, self.state_b)),
            ("arith", ["arith", "--level", "1", "--op", "mul", "0.5", "0.5"], "arith.txt",
             _check_arith),
        ]
        self.outputs = {}
        for cmd, argv, fname, check in commands:
            out = path(fname)
            self.outputs[cmd] = (argv + ["--out", out], out, Stable(check))

    def calls(self, pass_index: int) -> list[Call]:
        return [Call("cli", f"cli.run.{cmd}", cli.run, (argv,), self._checker(out, stable))
                for cmd, (argv, out, stable) in self.outputs.items()]

    @staticmethod
    def _checker(out_path, stable):
        def check(code):
            expect(code == 0, f"exit code {code}")
            with open(out_path, "rb") as fh:
                data = fh.read()
            stable(data.decode("utf-8"))
        return check

    def oracle(self, oracle: ref.Oracle) -> None:
        """Iterate outputs at |k| <= 5 on every 20th grid point, and the arith output."""
        for cmd in ("iterate", "iterate-inverse"):
            header, rows = _csv(self.outputs[cmd][2].first)
            for row in rows[::20]:
                p = float(row[0])
                for col, tok in zip(header[1:], row[1:]):
                    k, out = int(col[1:]), float(tok)
                    if abs(k) <= 5 and ref.off_plateau(out):
                        oracle.record(f"cli iterate g^{k}({p!r})", out, oracle.iterate(p, k))
        out = float(self.outputs["arith"][2].first)
        oracle.record("cli arith", out, oracle.arith_parts(1, "mul", 0.5, 0.5)[2])

    def direct(self, tracer) -> None:
        """The library calls behind each command, made directly with the same inputs.

        Only the traced run makes them; ``cli.self.ms`` is a command's
        ``run()`` time minus its group here.
        """
        t = tracer
        ps = np.linspace(0.0, 1.0, 1001)
        thetas = np.linspace(0.0, math.pi, 1001)

        def egen():
            return ExtendedGenerator(t.call("generator", "generator.load_generator",
                                            load_generator, ("sine",)))

        for cmd, levels in (("iterate", (1, 2, 5, 15)), ("iterate-inverse", (-1, -2, -5, -15))):
            with t.group(f"cli.direct.{cmd}"):
                eg = egen()
                for k in levels:
                    t.call("generator", "generator.eval_iterate.grid1001", eval_iterate,
                           (eg, k, ps))
        with t.group("cli.direct.alpha-theta"):
            egen()
            t.call("probability", "probability.alpha_of_theta.grid1001",
                   probability.alpha_of_theta, (thetas,))
        with t.group("cli.direct.bell-scan"):
            t.call("bell", "bell.ch_scan.1deg", bell.ch_scan, (math.radians(1.0), egen()))
        with t.group("cli.direct.lln"):
            t.call("lln", "lln.fig3_table", lln.fig3_table,
                   ([1, 2, 3, 4], range(25, 76), 0.1, egen()))
        with t.group("cli.direct.lln-sim"):
            dist = lln.LevelBinomial(N=10000, p=0.5, k=0, l=0, egen=egen())
            t.call("lln", "lln.simulate", lln.simulate, (dist, 0.05, 1000, 7))
        with t.group("cli.direct.singlet"):
            egen()
            t.call("probability", "probability.singlet_table", probability.singlet_table,
                   (math.pi / 2,))
        with t.group("cli.direct.entropy"):
            dist = entropy.Distribution([0.5, 0.5])
            t.call("entropy", "entropy.renyi_kn.cli", entropy.renyi_kn, (dist, 2.0))
            t.call("entropy", "entropy.renyi_closed.cli", entropy.renyi_closed, (dist, 2.0))
        with t.group("cli.direct.fubini"):
            theta = t.call("fubini", "fubini.geodesic_distance", fubini.geodesic_distance,
                           (np.asarray(self.state_a), np.asarray(self.state_b)))
            t.call("fubini", "fubini.hidden_prob", fubini.hidden_prob, (theta,))
            t.call("fubini", "fubini.ladder.cli", fubini.ladder,
                   (math.cos(theta) ** 2, -3, 3, egen()))
        with t.group("cli.direct.arith"):
            t.call("arithmetic", "arithmetic.arith.cli", arith,
                   (ArithmeticContext(egen(), 1), "mul", 0.5, 0.5))
        t.call("cli", "cli.build_parser", cli.build_parser, ())


# ---------------------------------------------------------------------- vector_sweeps

def _check_map(inputs, reference, tol, idx, what):
    def check(out):
        expect(isinstance(out, np.ndarray) and out.shape == inputs.shape, f"{what}: shape")
        for i in idx:
            x = float(inputs[i])
            expect_close(out[i], reference(x), tol, f"{what}({x!r})")
    return check


class VectorSweeps:
    """Array kernels at fixed sizes: generator maps and iterates, bisection, alpha, scans."""

    name = "vector_sweeps"
    calibration = "vector"

    def __init__(self, seed: int, tmpdir: str):
        rng = np.random.default_rng([seed, 2])
        self.x01 = rng.random(VECTOR_N)
        self.xr = rng.uniform(-3.0, 3.0, VECTOR_N)
        self.y_convex = rng.random(CONVEX_N)
        self.theta = rng.uniform(0.0, math.pi, VECTOR_N)
        self.pmf_p = float(rng.uniform(0.2, 0.8))
        idx = rng.choice(VECTOR_N, VECTOR_CHECK_POINTS, replace=False)

        self.eg = sine_extended()
        # component generators whose forward counts its calls: one count per
        # forward evaluation of the convex combination
        self.convex_forwards = Counter()
        sine = make_sine_generator()
        counted = Generator(sine.name, self.convex_forwards.wrap(sine.forward), sine.inverse)
        self.convex = convex_combine([counted, make_identity_generator()], [0.5, 0.5])
        self.dist = lln.LevelBinomial(N=1000, p=self.pmf_p, k=1, l=0)

        eg = self.eg
        self._calls = [
            Call("generator", "generator.forward", eg.forward, (self.xr,),
                 Stable(_check_map(self.xr, ref.g, 1e-12, idx, "forward"))),
            Call("generator", "generator.inverse", eg.inverse, (self.xr,),
                 Stable(_check_map(self.xr, ref.ginv, 1e-12, idx, "inverse"))),
        ]
        for k in (1, -1, 15, -15):
            self._calls.append(Call(
                "generator", f"generator.eval_iterate.k{k}", eval_iterate, (eg, k, self.x01),
                Stable(_check_map(self.x01, lambda x, k=k: ref.iterate(x, k),
                                  1e-12 if abs(k) <= 5 else 1e-9, idx, f"g^{k}"))))
        self._calls += [
            Call("generator", "generator.convex_inverse", self.convex.inverse,
                 (self.y_convex,), Stable(self._check_convex), self.convex_forwards),
            Call("probability", "probability.alpha_of_theta", probability.alpha_of_theta,
                 (self.theta,),
                 Stable(_check_map(self.theta, ref.alpha_of_theta, 1e-12, idx, "alpha"))),
            Call("bell", "bell.ch_scan.0p1deg", bell.ch_scan, (math.radians(0.1),),
                 Stable(lambda rep: _check_bell_scan(
                     json.dumps(rep.to_json_dict(), sort_keys=True, indent=2) + "\n"))),
            Call("lln", "lln.pmf_base_vector", lln.pmf_base_vector, (self.dist,),
                 Stable(self._check_pmf)),
        ]

    def calls(self, pass_index: int) -> list[Call]:
        return self._calls

    def _check_convex(self, x):
        expect(np.all((x >= 0.0) & (x <= 1.0)), "convex inverse leaves [0,1]")
        resid = float(np.max(np.abs(self.convex.forward(x) - self.y_convex)))
        expect(resid <= 1e-13, f"convex round trip off by {resid:.3e}")

    def _check_pmf(self, v):
        import mpmath

        expect(v.shape == (self.dist.N + 1,), "pmf length")
        expect(abs(math.fsum(v) - 1.0) <= 1e-11, f"pmf sums to {math.fsum(v)!r}")
        p = ref.g(self.pmf_p)
        q = ref.g(1.0 - self.pmf_p)
        mode = int(self.dist.N * p)
        for n in range(max(0, mode - 20), min(self.dist.N, mode + 20) + 1, 4):
            exact = float(mpmath.binomial(self.dist.N, n) * mpmath.mpf(q) ** (self.dist.N - n)
                          * mpmath.mpf(p) ** n)
            expect(abs(v[n] - exact) <= 1e-10 * exact, f"pmf[{n}]")

    def oracle(self, oracle: ref.Oracle) -> None:
        """Sine forward/inverse on [-3, 3] and iterates at k = +-1, on a fixed sample."""
        rng = np.random.default_rng(ORACLE_SEED)
        xr = rng.uniform(-3.0, 3.0, 256)
        x01 = rng.random(256)
        for label, inputs, out, k in (
                ("forward", xr, self.eg.forward(xr), 1),
                ("inverse", xr, self.eg.inverse(xr), -1),
                ("g^1", x01, eval_iterate(self.eg, 1, x01), 1),
                ("g^-1", x01, eval_iterate(self.eg, -1, x01), -1)):
            for x, y in zip(inputs, out):
                if ref.off_plateau(float(y)):
                    oracle.record(f"{label}({float(x)!r})", float(y), oracle.iterate(float(x), k))


# ----------------------------------------------------------------------- scalar_calls

def _operand(rng) -> float:
    """Most operands in (0, 1]; a ``REAL_LINE_SHARE`` of them on [-3, 3]."""
    if rng.random() < REAL_LINE_SHARE:
        return float(rng.uniform(-3.0, 3.0))
    return float(1.0 - rng.random())


def _unit01(rng) -> float:
    return float(1.0 - rng.random())


def _random_unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class ScalarCalls:
    """Many single-value calls, each on fresh operands drawn from (seed, pass)."""

    name = "scalar_calls"
    calibration = "scalar"

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.eg = sine_extended()
        self.pa = gcomplex.PairArithmetic.default_sine()
        self.ctx = {lv: ArithmeticContext(self.eg, lv) for lv in (1, 2, 5)}

    def calls(self, pass_index: int) -> list[Call]:
        rng = np.random.default_rng([self.seed, 3, pass_index])
        eg = self.eg
        calls = []
        for _ in range(16):
            x = _operand(rng)
            calls.append(Call("generator", "generator.forward.scalar", eg.forward, (x,),
                              self._close(ref.g(x), 1e-12, "forward")))
            y = _operand(rng)
            calls.append(Call("generator", "generator.inverse.scalar", eg.inverse, (y,),
                              self._close(ref.ginv(y), 1e-12, "inverse")))
        for level in (1, 2, 5):
            for op in OPS * 2:
                x, y = _operand(rng), _operand(rng)
                calls.append(Call("arithmetic", f"arithmetic.arith.l{level}", arith,
                                  (self.ctx[level], op, x, y),
                                  self._close(ref.arith(level, op, x, y), 1e-12, op)))
        for _ in range(4):
            level = int(rng.integers(1, 3))
            vals = [_unit01(rng) for _ in range(8)]
            pulled = [ref.iterate(v, -level) for v in vals]
            calls.append(Call("arithmetic", "arithmetic.level_sum", level_sum,
                              (self.ctx[level], vals),
                              self._close(ref.iterate(math.fsum(pulled), level), 1e-12,
                                          "level_sum")))
            calls.append(Call("arithmetic", "arithmetic.level_prod", level_prod,
                              (self.ctx[level], vals),
                              self._close(ref.iterate(math.prod(pulled), level), 1e-12,
                                          "level_prod")))
        calls += self._calculus(rng)
        calls += self._fubini(rng)
        calls += self._gcomplex(rng)
        calls += self._probability(rng)
        for _ in range(6):
            quad = bell.AngleQuad(*(float(a) for a in rng.uniform(0.0, 2.0 * math.pi, 4)))
            calls.append(Call("bell", "bell.ch_value_level1", bell.ch_value_level1, (quad,),
                              self._check_ch1(quad)))
        for _ in range(4):
            dist = entropy.Distribution(rng.dirichlet(np.ones(16)))
            alpha = float(rng.uniform(0.25, 4.0))
            if abs(alpha - 1.0) < 0.05:
                alpha += 0.1
            closed = math.log(math.fsum(p ** alpha for p in dist.support())) / (1.0 - alpha)
            calls.append(Call("entropy", "entropy.renyi_kn", entropy.renyi_kn, (dist, alpha),
                              self._close(closed, 1e-12, "renyi_kn")))
            calls.append(Call("entropy", "entropy.renyi_closed", entropy.renyi_closed,
                              (dist, alpha), self._close(closed, 1e-12, "renyi_closed")))
        return calls

    @staticmethod
    def _close(reference, tol, what):
        def check(out):
            expect_close(out, reference, tol, what)
        return check

    def _calculus(self, rng) -> list[Call]:
        calls = []
        counter = Counter()
        for i in range(6):
            src, dst = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            c0, c1, w = rng.uniform(-1, 1), rng.uniform(0.5, 2), rng.uniform(1, 6)
            a, b = sorted((_unit01(rng), _unit01(rng)))
            b = min(1.0, max(b, a + 0.05))
            ra, rb = ref.iterate(a, -src), ref.iterate(b, -src)
            if i % 2 == 0:
                base = lambda r, c0=c0, c1=c1, w=w: c0 + c1 * math.sin(w * r)  # noqa: E731
                prim = lambda r, c0=c0, c1=c1, w=w: c0 * r - c1 * math.cos(w * r) / w  # noqa: E731
                cuts = ()
            else:
                m = ra + (rb - ra) * rng.uniform(0.1, 0.9)
                base = lambda r, c0=c0, c1=c1, w=w, m=m: (  # noqa: E731
                    c0 + c1 * math.exp(-w * abs(r - m)))
                prim = lambda r, c0=c0, c1=c1, w=w, m=m: (  # noqa: E731
                    c0 * r + c1 * math.copysign(1.0 - math.exp(-w * abs(r - m)), r - m) / w)
                cuts = (m,)
            fn = calculus.LevelFunction(counter.wrap(base), self.eg, src, dst, cuts)
            calls.append(Call("calculus", "calculus.nn_integral", calculus.nn_integral,
                              (fn, a, b), self._close(ref.iterate(prim(rb) - prim(ra), dst),
                                                      1e-8, "nn_integral"), counter))
            x = _unit01(rng)
            smooth = calculus.LevelFunction(
                lambda r, c0=c0, c1=c1, w=w: c0 + c1 * math.sin(w * r), self.eg, src, dst)
            r = ref.iterate(x, -src)
            calls.append(Call("calculus", "calculus.nn_derivative", calculus.nn_derivative,
                              (smooth, x), self._close(ref.iterate(c1 * w * math.cos(w * r), dst),
                                                       1e-7, "nn_derivative")))
        for _ in range(4):
            l, k = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            x = _operand(rng)
            e = ref.iterate(math.exp(ref.iterate(x, -k)), l)
            calls.append(Call("calculus", "calculus.nn_exp", calculus.nn_exp,
                              (self.eg, l, k, x), self._close(e, 1e-12, "nn_exp")))
            calls.append(Call("calculus", "calculus.nn_ln", calculus.nn_ln, (self.eg, k, l, e),
                              self._close(ref.iterate(math.log(ref.iterate(e, -l)), k), 1e-12,
                                          "nn_ln")))
        return calls

    def _fubini(self, rng) -> list[Call]:
        calls = []
        for _ in range(2):
            a, b = _random_unit(rng, 4), _random_unit(rng, 4)
            big_p = abs(sum(complex(u).conjugate() * complex(v) for u, v in zip(b, a))) ** 2
            calls.append(Call("fubini", "fubini.lifted_form_value", fubini.lifted_form_value,
                              (fubini.projector_form(b), a),
                              self._close(ref.g(big_p), LIFTED_FORM_TOL,
                                          "lifted form vs g(<a|P|a>)")))
        for _ in range(6):
            big_p = _unit01(rng)
            calls.append(Call("fubini", "fubini.ladder", fubini.ladder, (big_p, -3, 3),
                              self._check_ladder(big_p)))
        return calls

    @staticmethod
    def _check_ladder(big_p):
        p0 = 1.0 - math.acos(math.sqrt(big_p)) / ref.HALF_PI

        def check(rungs):
            expect(len(rungs) == 7, "ladder length")
            for j, v in zip(range(-3, 4), rungs):
                expect_close(v, ref.iterate(p0, j), 1e-12, f"ladder rung {j}")
            expect_close(rungs[4], big_p, 1e-12, "rung 1 against P")
        return check

    def _gcomplex(self, rng) -> list[Call]:
        pa = self.pa
        calls = []
        ops = {"add": gcomplex.gc_add, "sub": gcomplex.gc_sub, "mul": gcomplex.gc_mul,
               "div": gcomplex.gc_div}
        for name, fn in list(ops.items()) * 3:
            u = gcomplex.GComplex(_operand(rng), _operand(rng))
            v = gcomplex.GComplex(_operand(rng), _operand(rng))
            zu = complex(ref.g(u.x1), ref.g(u.x2))
            zv = complex(ref.g(v.x1), ref.g(v.x2))
            z = {"add": zu + zv, "sub": zu - zv, "mul": zu * zv, "div": zu / zv}[name]
            calls.append(Call("gcomplex", f"gcomplex.gc_{name}", fn, (pa, u, v),
                              self._check_base(z, 1e-12, f"gc_{name}")))
        counter = Counter()
        for _ in range(2):
            c = complex(*rng.uniform(-1, 1, 2))
            w = float(rng.uniform(0.5, 3.0))
            nu = w + float(rng.choice([-1, 1]) * rng.uniform(0.1, 2.0))
            fa = counter.wrap(lambda r, c=c, w=w: c * complex(math.cos(w * r), math.sin(w * r)))
            fb = lambda r, nu=nu: complex(math.cos(nu * r), math.sin(nu * r))  # noqa: E731
            big_t = _unit01(rng)
            half = ref.g(big_t) / 2.0
            d = nu - w
            z = c.conjugate() * 2.0 * math.sin(d * half) / d
            calls.append(Call(
                "gcomplex", "gcomplex.gc_scalar_product", gcomplex.gc_scalar_product,
                (gcomplex.ComplexLevelFunction(fa, self.eg, pa),
                 gcomplex.ComplexLevelFunction(fb, self.eg, pa), big_t),
                self._check_base(z, 1e-9, "scalar product"), counter))
        return calls

    @staticmethod
    def _check_base(z, tol, what):
        """Compare a pair-arithmetic result on the base side, where g is well conditioned."""
        def check(out):
            expect_close(ref.g(out.x1), z.real, tol, f"{what} real part")
            expect_close(ref.g(out.x2), z.imag, tol, f"{what} imaginary part")
        return check

    def _probability(self, rng) -> list[Call]:
        calls = []

        def node(depth):
            p0 = float(rng.uniform(0.05, 0.95))
            kids = None if depth == 1 else (node(depth - 1), node(depth - 1))
            return probability.CondNode(level=int(rng.integers(0, 3)), p0=p0, p1=1.0 - p0,
                                        children=kids)

        for _ in range(2):
            tree = probability.CondTree(root=node(4), sum_level=0)
            calls.append(Call("probability", "probability.tree_normalization",
                              probability.tree_normalization, (tree,),
                              self._close(1.0, 1e-12, "tree normalization")))
        for _ in range(6):
            conds = [(_unit01(rng), int(rng.integers(0, 3))) for _ in range(3)]
            l = int(rng.integers(0, 2))
            prod = math.prod(ref.iterate(ref.iterate(p, k), -l) for p, k in conds)
            calls.append(Call("probability", "probability.joint_product",
                              probability.joint_product, (conds, l),
                              self._close(ref.iterate(prod, l), 1e-12, "joint_product")))
        return calls

    @staticmethod
    def _check_ch1(quad):
        def t(delta):
            d = abs(delta) % (2.0 * math.pi)
            return math.cos(0.5 * (math.pi - abs(math.pi - d))) ** 2

        acc = ref.arith(1, "sub", t(quad.a - quad.b), t(quad.a - quad.b_prime))
        acc = ref.arith(1, "add", acc, t(quad.a_prime - quad.b))
        value = ref.arith(1, "add", acc, t(quad.a_prime - quad.b_prime))

        def check(out):
            expect(0.0 <= out <= 2.0 + 1e-12, f"level-1 CH value {out!r} outside [0, 2]")
            expect_close(out, value, 1e-12, "ch_value_level1")
        return check

    def oracle(self, oracle: ref.Oracle) -> None:
        """Scalar forward/inverse and arith at levels 1, 2, 5 on a fixed operand sample.

        Additions and subtractions whose base operands cancel by more than
        four bits are left out: their ulp error measures the conditioning of
        the operation, not the implementation.
        """
        rng = np.random.default_rng(ORACLE_SEED)
        for _ in range(64):
            x = _operand(rng)
            for label, out, k in (("forward", self.eg.forward(x), 1),
                                  ("inverse", self.eg.inverse(x), -1)):
                if ref.off_plateau(out):
                    oracle.record(f"{label}({x!r})", out, oracle.iterate(x, k))
        for level in (1, 2, 5):
            for op in OPS * 6:
                x, y = _operand(rng), _operand(rng)
                out = arith(self.ctx[level], op, x, y)
                if not ref.off_plateau(out):
                    continue
                px, py, exact = oracle.arith_parts(level, op, x, y)
                if op in ("add", "sub") and abs(ref.OPS[op](px, py)) * 16 < abs(px) + abs(py):
                    continue
                oracle.record(f"arith l{level} {op}({x!r}, {y!r})", out, exact)


WORKLOADS = {w.name: w for w in (CliDocs, VectorSweeps, ScalarCalls)}
