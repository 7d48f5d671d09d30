"""Batch command line front end emitting CSV/JSON data files.

Every command is a thin wrapper over the library modules; output is data,
never rendered plots, and is byte-identical for identical (config, seed).
Each command takes ``--out``; the six that evaluate g^k take ``--generator``,
and only the stochastic ``lln-sim`` takes ``--seed``.
Angles are radians unless suffixed with ``deg``.  Exit codes: 0 success,
2 validation failure (an unwritable ``--out`` included), 3 numeric failure.

A CSV table is written from its columns: each float column is tested for
finiteness before the output opens, and one row template formats and writes
a few thousand rows at a time, so a large grid never holds all its cells.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

import numpy as np

from . import bell, entropy, fubini, lln, probability
from .arithmetic import ArithmeticContext, arith
from .errors import ConfigError, NncalcError, QuadratureError
from .generator import ExtendedGenerator, _shown, load_generator

_FLOAT_FMT = "%.17g"
#: most points a --grid may have: a column of 10**7 floats takes 80 MB
_MAX_GRID = 10**7
#: most rows an lln table may have: a row takes about 128 bytes and 5 us to build
_MAX_ROWS = 10**6


def _parse_angle(text: str) -> float:
    text = text.strip()
    if text.endswith("deg"):
        return math.radians(float(text[:-3]))
    return float(text)


def _parse_list(convert, what: str, text: str) -> list:
    """A comma-separated list of ``convert`` values; empty items are skipped."""
    try:
        return [convert(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {what} list {text!r}") from exc


def _write(out_path, text) -> None:
    """Write a str, or an iterable of str chunks one at a time, to out_path or stdout."""
    chunks = (text,) if isinstance(text, str) else text
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


#: rows formatted per chunk by _csv
_CSV_CHUNK_ROWS = 4096


def _csv(header: list[str], columns: list):
    """CSV text of equal-length columns, as a lazy iterable of str chunks.

    An ndarray column holds float64 values, written as ``%.17g``; any other
    sequence holds ints, written as ``%d``.  A non-finite float raises
    QuadratureError at once, with the first one in row order as its estimate.
    """
    floats = [c for c in columns if isinstance(c, np.ndarray)]
    if not all(np.isfinite(c).all() for c in floats):
        cells = np.column_stack(floats)
        raise QuadratureError("non-finite value in output",
                              estimate=float(cells[~np.isfinite(cells)][0]))
    row = ",".join(_FLOAT_FMT if isinstance(c, np.ndarray) else "%d" for c in columns) + "\n"

    def chunks():
        yield ",".join(header) + "\n"
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunk = [c[start:start + _CSV_CHUNK_ROWS] for c in columns]
            chunk = [c.tolist() if isinstance(c, np.ndarray) else c for c in chunk]
            yield "".join(map(row.__mod__, zip(*chunk)))

    return chunks()


def _json_text(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise QuadratureError(f"non-finite value in output: {exc}", estimate=math.nan) from exc


def _egen(args) -> ExtendedGenerator:
    return ExtendedGenerator(load_generator(args.generator))


def _check_grid(points: int) -> None:
    """NncalcError unless 2 <= points <= _MAX_GRID, tested before any array is made."""
    if points < 2:
        raise NncalcError("grid must have at least 2 points")
    if points > _MAX_GRID:
        raise NncalcError(f"grid must have at most {_MAX_GRID} points, got {points}")


def _cmd_iterate(args):
    _check_grid(args.grid)
    egen = _egen(args)
    ps = np.linspace(0.0, 1.0, args.grid)
    return _csv(["p"] + [f"g{k}" for k in args.levels],
                [ps] + [egen.iterate(ps, k) for k in args.levels])


def _cmd_alpha_theta(args):
    _check_grid(args.grid)
    thetas = np.linspace(0.0, math.pi, args.grid)
    return _csv(["theta", "alpha"], [thetas, probability.alpha_of_theta(thetas)])


def _cmd_bell_scan(args) -> str:
    report = bell.ch_scan(args.resolution, egen=_egen(args))
    return _json_text(report.to_json_dict())


def _cmd_lln(args):
    if args.n_min > args.n_max:
        raise NncalcError("--n-min must not exceed --n-max")
    count = len(args.levels) * (args.n_max - args.n_min + 1)
    if count > _MAX_ROWS:  # tested before any row is built
        raise NncalcError(f"an lln table must have at most {_MAX_ROWS} rows, got {_shown(count)}")
    rows = lln.fig3_table(args.levels, range(args.n_min, args.n_max + 1), args.eps,
                          egen=_egen(args))
    levels, ns, bounds = zip(*rows) if rows else ((), (), ())
    return _csv(["level", "N", "bound"], [levels, ns, np.array(bounds, dtype=float)])


def _cmd_lln_sim(args) -> str:
    dist = lln.LevelBinomial(N=args.N, p=args.p, k=args.k, l=args.l, egen=_egen(args))
    report = lln.simulate(dist, eps=args.eps, trials=args.trials, seed=args.seed)
    return _json_text(report.to_json_dict())


def _cmd_singlet(args):
    table = probability.singlet_table(args.theta)
    return _csv(["a", "b", "p"], [(0, 0, 1, 1), (0, 1, 0, 1), table.ravel()])


def _cmd_entropy(args) -> str:
    dist = entropy.Distribution(args.probs)
    return _json_text({
        "alpha": args.alpha,
        "probs": list(dist.probs),
        "renyi_kn": entropy.renyi_kn(dist, args.alpha),
        "renyi_closed": entropy.renyi_closed(dist, args.alpha),
    })


def _load_state(path: str):
    """A state: a list of numbers or [re, im] pairs, bare or as ``{"components": [...]}``."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    comps = obj.get("components") if isinstance(obj, dict) else obj
    if not isinstance(comps, list):
        raise ConfigError(f"state file {path!r} holds no list of components")
    pairs = [c if isinstance(c, list) else [c, 0.0] for c in comps]
    if not all(len(c) == 2 and all(isinstance(v, (int, float)) for v in c) for c in pairs):
        raise ConfigError(f"state file {path!r}: a component is not a number or [re, im] pair")
    try:
        return np.asarray([complex(re, im) for re, im in pairs], dtype=complex)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ConfigError(f"state file {path!r}: a component is beyond the float range") from exc


def _cmd_fubini(args) -> str:
    a = _load_state(args.state_a)
    b = _load_state(args.state_b)
    theta = fubini.geodesic_distance(a, b)
    p = fubini.hidden_prob(theta)
    big_p = math.cos(theta) ** 2
    levels = list(range(-3, 4))
    rungs = fubini.ladder(big_p, -3, 3, egen=_egen(args))
    return _json_text({
        "theta": theta,
        "hidden_p": p,
        "ladder_levels": levels,
        "ladder": [float(v) for v in rungs],
    })


def _cmd_arith(args) -> str:
    # arith rejects a non-finite base result, and g_R^k of a finite float is finite
    ctx = ArithmeticContext(_egen(args), args.level)
    return _FLOAT_FMT % arith(ctx, args.op, args.x, args.y) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nncalc",
        description="Data files for the hierarchy of arithmetics, its calculus, "
                    "and the associated probability experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    levels = partial(_parse_list, int, "level")

    def add(name, fn, help_text, generator=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if generator:
            p.add_argument("--generator", default="sine", help="builtin name or JSON config path")
        return p

    p = add("iterate", _cmd_iterate, "columns p, g^k(p) on a uniform grid")
    p.add_argument("--levels", type=levels, required=True)
    p.add_argument("--grid", type=int, default=1001)

    p = add("alpha-theta", _cmd_alpha_theta, "the angle map between two hierarchy levels",
            generator=False)
    p.add_argument("--grid", type=int, default=1001)

    p = add("bell-scan", _cmd_bell_scan, "grid extrema of both Clauser-Horne values")
    p.add_argument("--resolution", type=_parse_angle, required=True)

    p = add("lln", _cmd_lln, "symmetric-coin deviation bounds per level and N")
    p.add_argument("--levels", type=levels, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = add("lln-sim", _cmd_lln_sim, "Monte Carlo deviation rate vs the level-0 bound")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = add("singlet", _cmd_singlet, "the 2x2 joint probability table at angle theta",
            generator=False)
    p.add_argument("--theta", type=_parse_angle, required=True)

    p = add("entropy", _cmd_entropy, "Renyi entropy of a finite distribution", generator=False)
    p.add_argument("--probs", type=partial(_parse_list, float, "probability"), required=True)
    p.add_argument("--alpha", type=float, required=True)

    p = add("fubini", _cmd_fubini, "geodesic angle, hidden probability, and ladder")
    p.add_argument("--state-a", required=True)
    p.add_argument("--state-b", required=True)

    p = add("arith", _cmd_arith, "one transported operation (debugging aid)")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--op", choices=["add", "sub", "mul", "div"], required=True)
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)

    return parser


#: parse_args leaves the parser as it found it, so one instance serves every run()
_PARSER = build_parser()


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _write(args.out, args.fn(args))  # args.fn runs every check before the output opens
    except QuadratureError as exc:
        print(f"nncalc: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (NncalcError, ValueError, OSError) as exc:
        print(f"nncalc: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"nncalc: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
