"""CLI output bytes pinned against the files in tests/golden/.

Each command runs in-process through ``cli.run()``; any byte difference from
its golden file fails.  Outputs too big to commit are pinned instead by the
SHA-256 of their bytes in ``tests/golden/digests.json``.  The test never
writes a golden.  After a deliberate output change, rewrite them with
``PYTHONPATH=src python tests/golden/make_goldens.py``, which prints each
changed file's max ulp difference, and each changed digest, or that nothing
moved, for CHANGES.md.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nncalc.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Input files the commands read, written as ``<key>.json``; an argument
#: ``{key}`` is replaced by the file's path.
INPUTS = {
    "state_a": {"components": [[1.0, 0.0], [0.0, 0.0]]},
    "state_b": {"components": [[0.6, 0.0], [0.8, 0.0]]},
    "convex": {"name": "convex", "components": ["sine", "identity"], "weights": [0.3, 0.7]},
}

#: Golden file name -> CLI arguments.  The first nine are the commands of
#: acceptance criterion 12.
COMMANDS = {
    "iterate.csv": ["iterate", "--levels", "1,2,5,15", "--grid", "201"],
    "alpha_theta.csv": ["alpha-theta", "--grid", "201"],
    "bell_scan.json": ["bell-scan", "--resolution", "1deg"],
    "lln.csv": ["lln", "--levels", "1,2,3,4", "--eps", "0.1", "--n-min", "25", "--n-max", "75"],
    "lln_sim.json": ["lln-sim", "--N", "2000", "--p", "0.5", "--eps", "0.05", "--trials", "200",
                     "--seed", "123"],
    "singlet.csv": ["singlet", "--theta", "1.0471975511965976"],
    "entropy.json": ["entropy", "--probs", "0.1,0.2,0.3,0.4", "--alpha", "2"],
    "arith.txt": ["arith", "--level", "1", "--op", "mul", "0.5", "0.5"],
    "fubini.json": ["fubini", "--state-a", "{state_a}", "--state-b", "{state_b}"],
    "iterate_inverse.csv": ["iterate", "--levels=-1,-2,-5,-15", "--grid", "201"],
    # array kernel with the bisection inverse
    "iterate_convex.csv": ["iterate", "--levels", "1,-1,3", "--grid", "201",
                           "--generator", "{convex}"],
}

#: Output name -> CLI arguments for outputs pinned by digest only.  The last
#: spans three 16 Ki blocks, so it runs the threaded iterate path, and
#: several row chunks of the CSV writer.
DIGEST_COMMANDS = {
    "iterate_grid1001.csv": ["iterate", "--levels", "1,2,5,15", "--grid", "1001"],
    "iterate_inverse_grid1001.csv": ["iterate", "--levels=-1,-2,-5,-15"],
    "alpha_theta_grid1001.csv": ["alpha-theta", "--grid", "1001"],
    "iterate_grid40000.csv": ["iterate", "--levels", "3,-3", "--grid", "40000"],
}
DIGEST_FILE = GOLDEN_DIR / "digests.json"


def render(name: str, directory: Path) -> bytes:
    """Run the command of golden ``name`` with its inputs in ``directory``; return its output."""
    paths = {}
    for key, obj in INPUTS.items():
        paths[key] = directory / f"{key}.json"
        paths[key].write_text(json.dumps(obj))
    args = [arg.format_map(paths) for arg in {**COMMANDS, **DIGEST_COMMANDS}[name]]
    out = directory / name
    code = run(args + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{args} exited {code}")
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, tmp_path):
    assert render(name, tmp_path) == (GOLDEN_DIR / name).read_bytes()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGEST_COMMANDS))
def test_cli_output_matches_digest(name, tmp_path):
    assert digest(render(name, tmp_path)) == json.loads(DIGEST_FILE.read_text())[name]


def test_make_goldens_says_when_nothing_moved(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends the tests directory
    spec = importlib.util.spec_from_file_location("make_goldens", GOLDEN_DIR / "make_goldens.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(tool, "DIGEST_FILE", tmp_path / "digests.json")
    monkeypatch.setattr(tool, "COMMANDS", {"a.txt": []})
    monkeypatch.setattr(tool, "DIGEST_COMMANDS", {"b.csv": []})
    outputs = {"a.txt": b"0.5\n", "b.csv": b"x\n1\n"}
    monkeypatch.setattr(tool, "render", lambda name, tmp: outputs[name])
    tool.main()
    assert capsys.readouterr().out == "a.txt: new\ndigests.json: b.csv new\n"
    tool.main()
    assert capsys.readouterr().out == "all goldens and digests unchanged\n"
    outputs["a.txt"] = b"0.5000000000000001\n"
    tool.main()
    assert capsys.readouterr().out == "a.txt: max 1 ulp\n"
