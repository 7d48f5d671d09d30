import json
import math
import re
import shlex
from pathlib import Path

import pytest

from nncalc.cli import run


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
    # distribution that does not normalize
    assert run(["entropy", "--probs", "0.5,0.6", "--alpha", "2"]) == 2
    # bad resolution
    assert run(["bell-scan", "--resolution", "0"]) == 2
    assert run(["bell-scan", "--resolution", "nan"]) == 2
    assert run(["bell-scan", "--resolution", "inf"]) == 2
    # closed-form commands only make sense for the sine bijection
    assert run(["singlet", "--theta", "1.0", "--generator", "identity"]) == 2
    assert run(["alpha-theta", "--grid", "5", "--generator", "identity"]) == 2
    # a base-level product that overflows
    assert run(["arith", "--level", "1", "--op", "mul", "1e200", "1e200"]) == 2
    # an eps whose square underflows, or that is NaN, leaves the bound undefined
    for eps in ("1e-200", "1e-160", "nan"):
        assert run(["lln", "--levels", "1", "--eps", eps, "--n-min", "1", "--n-max", "1"]) == 2
        assert run(["lln-sim", "--N", "10", "--p", "0.5", "--eps", eps, "--trials", "10",
                    "--seed", "1"]) == 2
    # NaN fails the entropy guards
    assert run(["entropy", "--probs", "0.5,0.5", "--alpha", "nan"]) == 2
    assert run(["entropy", "--probs", "nan,0.5", "--alpha", "2"]) == 2
    capsys.readouterr()


def test_argparse_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["arith", "--level", "1", "--op", "cube", "1", "2"])
    assert exc.value.code == 2


def test_numeric_failure_exit_code(capsys):
    # an alpha extreme enough to underflow the averaging route to -inf
    assert run(["entropy", "--probs", "0.5,0.5", "--alpha", "5000"]) == 3
    capsys.readouterr()


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


def _readme_commands():
    """Every command of the README's CLI ``sh`` block, as an argv without the program name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
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
