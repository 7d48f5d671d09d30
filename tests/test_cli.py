import argparse
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import python_process
from nncalc import cli, entropy, probability
from nncalc.cli import build_parser, run
from nncalc.errors import QuadratureError
from nncalc.generator import sine_extended


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def run_to_file(tmp_path, args, name="out.txt"):
    path = tmp_path / name
    code = run(args + ["--out", str(path)])
    return code, path.read_bytes()


def test_iterate_columns(tmp_path):
    code, data = run_to_file(tmp_path, ["iterate", "--levels", "1,2,5,15", "--grid", "101"])
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0] == "p,g1,g2,g5,g15"
    assert len(lines) == 102
    mid = lines[51].split(",")
    assert float(mid[0]) == 0.5
    assert all(float(v) == 0.5 for v in mid[1:])
    first = lines[1].split(",")
    assert all(float(v) == 0.0 for v in first)


def test_iterate_identity_level(tmp_path):
    code, data = run_to_file(tmp_path, ["iterate", "--levels", "0", "--grid", "11"])
    assert code == 0
    for line in data.decode().splitlines()[1:]:
        p, g0 = (float(v) for v in line.split(","))
        assert g0 == p


def test_iterate_negative_levels_flatten(tmp_path):
    code, data = run_to_file(tmp_path, ["iterate", "--levels", "-15", "--grid", "101"])
    assert code == 0
    rows = [tuple(float(v) for v in line.split(","))
            for line in data.decode().splitlines()[1:]]
    interior = [g for p, g in rows if 0.05 <= p <= 0.95]
    assert all(abs(g - 0.5) < 0.02 for g in interior)
    assert rows[0][1] == 0.0 and rows[-1][1] == 1.0


def test_alpha_theta(tmp_path):
    code, data = run_to_file(tmp_path, ["alpha-theta", "--grid", "101"])
    assert code == 0
    rows = [tuple(float(v) for v in line.split(","))
            for line in data.decode().splitlines()[1:]]
    assert rows[0] == (0.0, 0.0)
    assert rows[-1][1] == pytest.approx(math.pi, abs=1e-12)
    assert rows[50][1] == pytest.approx(0.5 * math.pi, abs=1e-12)
    alphas = [a for _, a in rows]
    assert all(a2 > a1 for a1, a2 in zip(alphas, alphas[1:]))


def test_singlet(tmp_path):
    code, data = run_to_file(tmp_path, ["singlet", "--theta", "1.5707963267948966"])
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0] == "a,b,p"
    assert len(lines) == 5
    for line in lines[1:]:
        a, b, p = line.split(",")
        assert float(p) == pytest.approx(0.25, abs=1e-14)


def test_singlet_deg_suffix(tmp_path):
    code, data = run_to_file(tmp_path, ["singlet", "--theta", "90deg"])
    assert code == 0
    for line in data.decode().splitlines()[1:]:
        assert float(line.split(",")[2]) == pytest.approx(0.25, abs=1e-12)


def test_lln_single_row(tmp_path):
    code, data = run_to_file(
        tmp_path, ["lln", "--levels", "1", "--eps", "0.1", "--n-min", "50", "--n-max", "50"])
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0] == "level,N,bound"
    level, n, bound = lines[1].split(",")
    assert (level, n) == ("1", "50")
    assert float(bound) == pytest.approx(0.5, abs=1e-12)


def test_lln_sim(tmp_path):
    code, data = run_to_file(
        tmp_path, ["lln-sim", "--N", "10000", "--p", "0.5", "--eps", "0.05",
                   "--trials", "200", "--seed", "5"])
    assert code == 0
    report = json.loads(data)
    assert set(report) == {"empirical_exceed_rate", "bound"}
    assert report["bound"] == pytest.approx(0.01, abs=1e-12)
    assert report["empirical_exceed_rate"] <= report["bound"]


def test_entropy(tmp_path):
    code, data = run_to_file(tmp_path, ["entropy", "--probs", "0.5,0.5", "--alpha", "2"])
    assert code == 0
    report = json.loads(data)
    assert report["renyi_kn"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert report["renyi_closed"] == pytest.approx(math.log(2.0), abs=1e-12)


def test_bell_scan(tmp_path):
    code, data = run_to_file(tmp_path, ["bell-scan", "--resolution", "5deg"])
    assert code == 0
    report = json.loads(data)
    assert set(report) == {"max0", "argmax0", "max1", "argmax1", "tsirelson_check"}
    assert report["max0"] == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-9)
    assert report["max1"] <= 2.0 + 1e-9
    assert report["tsirelson_check"] is True


def test_fubini(tmp_path):
    state_a = tmp_path / "a.json"
    state_b = tmp_path / "b.json"
    state_a.write_text(json.dumps({"components": [[1.0, 0.0], [0.0, 0.0]]}))
    r = 1.0 / math.sqrt(2.0)
    state_b.write_text(json.dumps({"components": [[r, 0.0], [r, 0.0]]}))
    code, data = run_to_file(
        tmp_path, ["fubini", "--state-a", str(state_a), "--state-b", str(state_b)])
    assert code == 0
    report = json.loads(data)
    assert report["theta"] == pytest.approx(0.25 * math.pi, abs=1e-12)
    assert report["hidden_p"] == pytest.approx(0.5, abs=1e-12)
    assert report["ladder_levels"] == list(range(-3, 4))
    assert report["ladder"] == pytest.approx([0.5] * 7, abs=1e-12)
    # near theta = 0 the ladder is g^j(hidden_p) bitwise; through P = cos^2 theta
    # and acos(sqrt(P)), level 0 missed hidden_p by about 1200 ulps
    delta = 1e-5
    state_b.write_text(json.dumps({"components": [[math.cos(delta), 0.0],
                                                  [math.sin(delta), 0.0]]}))
    code, data = run_to_file(
        tmp_path, ["fubini", "--state-a", str(state_a), "--state-b", str(state_b)])
    assert code == 0
    report = json.loads(data)
    p = report["hidden_p"]
    assert report["ladder"][3] == p
    assert [_bits(v) for v in report["ladder"]] == [_bits(sine_extended().iterate(p, j))
                                                     for j in range(-3, 4)]


def test_fubini_huge_components(tmp_path):
    # the norm of (1e200, 1e200) overflows unless the state is rescaled first
    state = tmp_path / "s.json"
    state.write_text(json.dumps({"components": [[1e200, 0.0], [1e200, 0.0]]}))
    code, data = run_to_file(tmp_path,
                             ["fubini", "--state-a", str(state), "--state-b", str(state)])
    assert code == 0
    report = json.loads(data)
    assert report["theta"] == 0.0
    assert report["hidden_p"] == 1.0


def test_arith_command(capsys):
    assert run(["arith", "--level", "1", "--op", "mul", "0.5", "0.5"]) == 0
    out = capsys.readouterr().out
    assert float(out.strip()) == pytest.approx(0.14644660940672624, abs=1e-14)


def test_custom_generator_config(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"name": "convex",
                               "components": ["sine", "identity"],
                               "weights": [0.5, 0.5]}))
    code, data = run_to_file(
        tmp_path, ["iterate", "--levels", "1", "--grid", "11", "--generator", str(cfg)])
    assert code == 0
    rows = data.decode().splitlines()[1:]
    p, g1 = (float(v) for v in rows[5].split(","))
    assert p == 0.5 and g1 == pytest.approx(0.5, abs=1e-12)


def test_validation_exit_codes(tmp_path, capsys):
    # domain violation inside the library
    assert run(["singlet", "--theta", "4.0"]) == 2
    # malformed generator config
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"name": "sine", "extra": 1}')
    assert run(["iterate", "--levels", "1", "--generator", str(cfg)]) == 2
    # missing file
    assert run(["fubini", "--state-a", "/nonexistent.json",
                "--state-b", "/nonexistent.json"]) == 2
    # convex configs whose components or weights are not lists of the right kind
    for comps, weights in ((5, [1]), (["sine"], ["x"]), (["sine"], [10 ** 400])):
        cfg.write_text(json.dumps({"name": "convex", "components": comps, "weights": weights}))
        assert run(["iterate", "--levels", "1", "--generator", str(cfg)]) == 2
    # state files that are not lists of numbers or [re, im] pairs, or hold a NaN
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"components": [[1.0, 0.0], [0.0, 0.0]]}))
    state = tmp_path / "state.json"
    for bad in ('{"components": 5}', '{"components": [null, [1, 0]]}', '{"states": [1, 0]}',
                '[[1, 0, 0], [0, 1]]', '{"components": [NaN, 1]}',
                '{"components": [%d, 0]}' % 10 ** 400, '{"components": [[0, %d]]}' % 10 ** 400):
        state.write_text(bad)
        assert run(["fubini", "--state-a", str(state), "--state-b", str(good)]) == 2
        assert "nncalc: " in capsys.readouterr().err
    # distribution that does not normalize
    assert run(["entropy", "--probs", "0.5,0.6", "--alpha", "2"]) == 2
    # bad resolution
    assert run(["bell-scan", "--resolution", "0"]) == 2
    assert run(["bell-scan", "--resolution", "nan"]) == 2
    assert run(["bell-scan", "--resolution", "inf"]) == 2
    # closed-form commands only make sense for the sine bijection, so take no generator
    for args in (["singlet", "--theta", "1.0"], ["alpha-theta", "--grid", "5"]):
        with pytest.raises(SystemExit) as exc:
            run(args + ["--generator", "identity"])
        assert exc.value.code == 2
    # a base-level product that overflows
    assert run(["arith", "--level", "1", "--op", "mul", "1e200", "1e200"]) == 2
    # an eps whose square underflows, or that is NaN, leaves the bound undefined
    for eps in ("1e-200", "1e-160", "nan"):
        assert run(["lln", "--levels", "1", "--eps", eps, "--n-min", "1", "--n-max", "1"]) == 2
        assert run(["lln-sim", "--N", "10", "--p", "0.5", "--eps", eps, "--trials", "10",
                    "--seed", "1"]) == 2
    # a trial count below pq / eps^2 = 25, where the bound would exceed 1
    assert run(["lln", "--levels", "1", "--eps", "0.1", "--n-min", "1", "--n-max", "30"]) == 2
    assert "N >= 25" in capsys.readouterr().err
    # NaN fails the entropy guards
    assert run(["entropy", "--probs", "0.5,0.5", "--alpha", "nan"]) == 2
    assert run(["entropy", "--probs", "nan,0.5", "--alpha", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("args", [["--N", "10", "--seed", "-1"],
                                  ["--N", "10", "--seed", str(2**64)],
                                  ["--N", str(10**20), "--seed", "1"]], ids=" ".join)
def test_lln_sim_out_of_range_exits_2(args, capsys):
    # numpy's sampler raised a raw OverflowError, exit 1
    assert run(["lln-sim", "--p", "0.3", "--eps", "0.1", "--trials", "5"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("nncalc: ") and err.count("\n") == 1, err


def test_argparse_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["arith", "--level", "1", "--op", "cube", "1", "2"])
    assert exc.value.code == 2


def test_each_command_declares_only_the_flags_it_reads():
    """--out everywhere, --generator where g^k is evaluated, --seed where random numbers are drawn."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    common = {"--out", "--generator", "--seed"}
    flags = {name: common & {s for a in p._actions for s in a.option_strings}
             for name, p in sub.choices.items()}
    out, gen = {"--out"}, {"--out", "--generator"}
    assert flags == {
        "iterate": gen, "bell-scan": gen, "lln": gen, "fubini": gen, "arith": gen,
        "lln-sim": gen | {"--seed"},
        "alpha-theta": out, "singlet": out, "entropy": out,
    }


def test_parse_error_exits_2_and_run_still_works(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["singlet", "--theta", "1.0", "--seed", "1"])
    assert exc.value.code == 2
    code, data = run_to_file(tmp_path, ["singlet", "--theta", "90deg"])
    assert code == 0 and data.decode().splitlines()[0] == "a,b,p"


def test_numeric_failure_exit_code(capsys, monkeypatch):
    # alpha = 5000 underflowed the Renyi sum to an entropy of inf; that is mended,
    # and no documented input leaves a non-finite value any more, so one is planted
    monkeypatch.setattr(entropy, "renyi_kn", lambda dist, alpha: math.inf)
    assert run(["entropy", "--probs", "0.5,0.5", "--alpha", "5000"]) == 3
    capsys.readouterr()


def reference_csv(header, columns):
    """The CSV text of ``columns`` built cell by cell: a float as %.17g, an int as %d."""
    rows = ([("%.17g" % v) if isinstance(v, float) else ("%d" % v) for v in row]
            for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


#: -0.0, the least subnormal, a larger subnormal, the largest double below 1,
#: and magnitudes near the top of the float range
EDGE_FLOATS = [-0.0, 5e-324, 2.5e-310, 1.0 - 2.0 ** -53, 1.7e308, -1.7e308]


@st.composite
def float_and_int_columns(draw):
    n = draw(st.integers(0, 40))
    cell = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    columns = [np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
               for _ in range(draw(st.integers(1, 3)))]
    ints = draw(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=n, max_size=n))
    columns.insert(draw(st.integers(0, len(columns))), ints)
    return columns


@given(float_and_int_columns())
@example([np.array(EDGE_FLOATS), list(range(len(EDGE_FLOATS)))])
def test_csv_matches_cell_by_cell_formatting(columns):
    header = [f"c{i}" for i in range(len(columns))]
    assert "".join(cli._csv(header, columns)) == reference_csv(header, columns)


def test_csv_across_row_chunk_edges():
    rng = np.random.default_rng(5)
    size = cli._CSV_CHUNK_ROWS
    for n in (1, size - 1, size, size + 1, 2 * size + 1):
        columns = [list(range(n)), rng.random(n), rng.normal(size=n) * 1e-310]
        text = "".join(cli._csv(["n", "u", "tiny"], columns))
        assert text == reference_csv(["n", "u", "tiny"], columns), n
        assert text.count("\n") == n + 1


def test_csv_reports_the_first_non_finite_value_in_row_order():
    # column order would find the NaN of row 1 first
    with pytest.raises(QuadratureError, match="non-finite value in output") as exc:
        cli._csv(["a", "b"], [np.array([1.0, math.nan]), np.array([-math.inf, 2.0])])
    assert exc.value.estimate == -math.inf


def test_csv_is_made_chunk_by_chunk():
    size = cli._CSV_CHUNK_ROWS
    chunks = cli._csv(["n"], [list(range(2 * size + 1))])
    assert not isinstance(chunks, str) and next(chunks) == "n\n"
    assert [chunk.count("\n") for chunk in chunks] == [size, size, 1]


@pytest.mark.parametrize("args,message", [
    (["iterate", "--levels", "1", "--grid", "1"], "grid must have at least 2 points"),
    (["alpha-theta", "--grid", "1"], "grid must have at least 2 points"),
    (["lln", "--levels", "1", "--eps", "0.1", "--n-min", "30", "--n-max", "25"],
     "--n-min must not exceed --n-max"),
], ids=("iterate-grid", "alpha-theta-grid", "lln-n-range"))
def test_command_checks_exit_2(args, message, capsys):
    assert run(args) == 2
    assert capsys.readouterr().err == f"nncalc: {message}\n"


@pytest.mark.parametrize("args,message", [
    (["iterate", "--levels", "1,x"], "bad level list '1,x'"),
    (["entropy", "--probs", "0.5,y", "--alpha", "2"], "bad probability list '0.5,y'"),
], ids=("levels", "probs"))
def test_malformed_lists_exit_2(args, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2 and message in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run(["singlet", "--theta", "90deg", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nncalc: ") and "No such file or directory" in err, err
    assert err.count("\n") == 1 and not out.parent.exists()


@pytest.mark.parametrize("command", [["iterate", "--levels", "1"], ["alpha-theta"]],
                         ids=["iterate", "alpha-theta"])
def test_a_grid_too_large_to_allocate_exits_2(command, tmp_path, monkeypatch, capsys):
    # the real allocation is left out: a host with the memory would grant it
    message = "Unable to allocate 76.3 MiB for an array with shape (10000000,)"

    def linspace(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli.np, "linspace", linspace)
    out = tmp_path / "out.csv"
    assert run(command + ["--grid", str(cli._MAX_GRID), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"nncalc: out of memory: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["iterate", "--levels", "1"], ["alpha-theta"]],
                         ids=["iterate", "alpha-theta"])
@pytest.mark.parametrize("grid", [cli._MAX_GRID + 1, 10**12])
def test_a_grid_above_the_bound_exits_2_before_any_allocation(command, grid, tmp_path,
                                                             monkeypatch, capsys):
    # an overcommitting host would grant 10**12 points and run until it is killed
    calls = []
    monkeypatch.setattr(cli.np, "linspace", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "out.csv"
    assert run(command + ["--grid", str(grid), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"nncalc: grid must have at most {cli._MAX_GRID} points, got {grid}\n")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("levels, n_max", [("1", cli._MAX_ROWS + 1),
                                           ("1,2", cli._MAX_ROWS // 2 + 1), ("1,2,3", 10**12)])
def test_an_lln_table_above_the_row_bound_exits_2_before_any_row(levels, n_max, tmp_path,
                                                                monkeypatch, capsys):
    # fig3_table appends one row at a time, so 10**12 rows would run until killed
    calls = []
    monkeypatch.setattr(cli.lln, "fig3_table", lambda *args, **kwargs: calls.append(args) or [])
    out = tmp_path / "out.csv"
    argv = ["lln", "--levels", levels, "--eps", "0.1", "--n-min", "1", "--out", str(out)]
    width = len(levels.split(","))
    assert run(argv + ["--n-max", str(n_max)]) == 2
    assert capsys.readouterr().err == (
        f"nncalc: an lln table must have at most {cli._MAX_ROWS} rows, got {width * n_max}\n")
    assert calls == [] and not out.exists()
    # a table of up to _MAX_ROWS rows is built
    assert run(argv + ["--n-max", str(cli._MAX_ROWS // width)]) == 0 and len(calls) == 1


def test_empty_level_list(tmp_path):
    code, data = run_to_file(tmp_path, ["iterate", "--levels=", "--grid", "3"])
    assert code == 0 and data == b"p\n0\n0.5\n1\n"
    code, data = run_to_file(
        tmp_path, ["lln", "--levels=", "--eps", "0.1", "--n-min", "25", "--n-max", "30"])
    assert code == 0 and data == b"level,N,bound\n"


def test_non_finite_output_exits_3(monkeypatch, capsys):
    alpha_of_theta = probability.alpha_of_theta

    def broken(thetas):
        alphas = alpha_of_theta(thetas)
        alphas[[2, 5]] = [-math.inf, math.nan]
        return alphas

    monkeypatch.setattr(probability, "alpha_of_theta", broken)
    assert run(["alpha-theta", "--grid", "11"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "nncalc: numeric failure: non-finite value in output\n"
    args = cli._PARSER.parse_args(["alpha-theta", "--grid", "11"])
    with pytest.raises(QuadratureError) as exc:
        args.fn(args)
    assert exc.value.estimate == -math.inf


def test_non_finite_output_leaves_no_out_file(tmp_path, monkeypatch, capsys):
    alpha_of_theta = probability.alpha_of_theta

    def broken(thetas):
        alphas = alpha_of_theta(thetas)
        alphas[-1] = math.nan
        return alphas

    monkeypatch.setattr(probability, "alpha_of_theta", broken)
    out = tmp_path / "alpha.csv"
    assert run(["alpha-theta", "--grid", "11", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("nncalc: numeric failure: ")
    assert not out.exists()


def test_byte_determinism(tmp_path):
    commands = [
        ["iterate", "--levels", "1,2,5,15", "--grid", "101"],
        ["alpha-theta", "--grid", "101"],
        ["bell-scan", "--resolution", "10deg"],
        ["lln", "--levels", "1,2", "--eps", "0.1", "--n-min", "25", "--n-max", "30"],
        ["lln-sim", "--N", "500", "--p", "0.5", "--eps", "0.1", "--trials", "50",
         "--seed", "42"],
        ["singlet", "--theta", "0.7"],
        ["entropy", "--probs", "0.2,0.8", "--alpha", "3"],
        ["arith", "--level", "2", "--op", "div", "0.7", "0.3"],
    ]
    for i, args in enumerate(commands):
        _, first = run_to_file(tmp_path, args, name=f"a{i}.txt")
        _, second = run_to_file(tmp_path, args, name=f"b{i}.txt")
        assert first == second, args


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_commands():
    """Every command of the README's CLI ``sh`` block, as an argv without the program name."""
    blocks = re.findall(r"```sh\n(.*?)```", _readme(), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("nncalc ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_readme_commands_exit_zero(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text(json.dumps({"components": [[1.0, 0.0], [0.0, 0.0]]}))
    (tmp_path / "b.json").write_text(json.dumps({"components": [[0.6, 0.0], [0.0, 0.8]]}))
    for i, args in enumerate(commands):
        if "--out" not in args:
            args = args + ["--out", str(tmp_path / f"stdout{i}.txt")]
        try:
            code = run(args)
        except SystemExit as exc:
            code = exc.code
        assert code == 0, args


def test_readme_python_quick_start_runs_and_its_comments_hold():
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", _readme(), flags=re.S)[1]
    namespace = {}
    exec(block, namespace)
    stated = {code.strip(): comment.strip() for code, _, comment
              in (line.partition("#") for line in block.splitlines()) if comment}

    def value(expr, comment):
        assert stated[expr] == comment, expr
        return eval(expr, namespace)

    product = value('arith(ctx, "mul", 0.5, 0.5)', "0.1464... = g(1/4)")
    assert product.hex() == namespace["eg"].forward(0.25).hex()
    assert f"{product:.17g}".startswith("0.1464")
    table = value("singlet_table(math.pi / 2)", "2x2 table, all entries 1/4")
    assert table.shape == (2, 2) and np.all(np.abs(table - 0.25) <= 1e-16)
    alpha = float(value("alpha_of_theta(math.pi / 4)", "1.2309..."))
    assert f"{alpha:.17g}".startswith("1.2309")


def test_the_module_entry_point_exits_with_the_code_of_run():
    # main(), the console script's entry point, runs only in a process of its own
    done = python_process(["-m", "nncalc.cli", "arith", "--level", "1", "--op", "mul", "0.5",
                           "0.5"])
    assert done.returncode == 0, done.stderr
    assert done.stdout == (Path(__file__).parent / "golden" / "arith.txt").read_bytes()
    done = python_process(["-m", "nncalc.cli", "iterate", "--levels", "1", "--grid", "1"])
    assert done.returncode == 2 and done.stdout == b"", done.stderr
