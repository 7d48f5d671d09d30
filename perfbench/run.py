"""Benchmark harness for nncalc.

Run from the repository root:

    python3 perfbench/run.py --workload cli_docs --seed 1 --seconds 30 --trace 0

Workloads: cli_docs, vector_sweeps, scalar_calls (see workloads.py and
notes.json).  Each is a closed loop with one caller on one thread.  The
harness times every call it makes into nncalc, checks every output, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` (times
in reference seconds, see calibrate.py), the per-layer metrics with
``--trace 1``.  Spans and a full report, raw wall times included, go to
``.perfbench_out/`` in the working directory.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread in this process and in the set-up probes it starts;
# set before numpy is first imported.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import calibrate  # noqa: E402
from spans import FIELDS, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 8
DIRECT_REPEATS = 5
MODULES = ("generator", "arithmetic", "calculus", "probability", "bell", "lln", "entropy",
           "fubini", "gcomplex", "cli")
CLI_COMMANDS = ("iterate", "iterate-inverse", "alpha-theta", "bell-scan", "lln", "lln-sim",
                "singlet", "entropy", "fubini", "arith")
_SCALE = {"s": 1e9, "ms": 1e6, "us": 1e3}

# (metric, span name, unit, elements per call for ns/elem)
SPAN_TIMES = [(f"cli.run.{c}.ms", f"cli.run.{c}", "ms", None) for c in CLI_COMMANDS] + [
    ("cli.build_parser.ms", "cli.build_parser", "ms", None),
    ("generator.load_generator.ms", "generator.load_generator", "ms", None),
    ("generator.forward.ns_per_elem", "generator.forward", "ns/elem", 1_000_000),
    ("generator.inverse.ns_per_elem", "generator.inverse", "ns/elem", 1_000_000),
    ("generator.eval_iterate.k1.s", "generator.eval_iterate.k1", "s", None),
    ("generator.eval_iterate.k-1.s", "generator.eval_iterate.k-1", "s", None),
    ("generator.eval_iterate.k15.s", "generator.eval_iterate.k15", "s", None),
    ("generator.eval_iterate.k-15.s", "generator.eval_iterate.k-15", "s", None),
    ("generator.convex_inverse.ms", "generator.convex_inverse", "ms", None),
    ("generator.forward.scalar_us", "generator.forward.scalar", "us", None),
    ("generator.inverse.scalar_us", "generator.inverse.scalar", "us", None),
    ("arithmetic.arith.l1.us", "arithmetic.arith.l1", "us", None),
    ("arithmetic.arith.l2.us", "arithmetic.arith.l2", "us", None),
    ("arithmetic.arith.l5.us", "arithmetic.arith.l5", "us", None),
    ("arithmetic.level_sum.us", "arithmetic.level_sum", "us", None),
    ("calculus.nn_integral.ms", "calculus.nn_integral", "ms", None),
    ("calculus.nn_derivative.us", "calculus.nn_derivative", "us", None),
    ("probability.alpha_of_theta.ns_per_elem", "probability.alpha_of_theta", "ns/elem",
     1_000_000),
    ("probability.tree_normalization.ms", "probability.tree_normalization", "ms", None),
    ("probability.joint_product.us", "probability.joint_product", "us", None),
    ("bell.ch_scan.0p1deg.s", "bell.ch_scan.0p1deg", "s", None),
    ("bell.ch_scan.1deg.ms", "bell.ch_scan.1deg", "ms", None),
    ("bell.ch_value_level1.us", "bell.ch_value_level1", "us", None),
    ("lln.fig3_table.ms", "lln.fig3_table", "ms", None),
    ("lln.simulate.ms", "lln.simulate", "ms", None),
    ("lln.pmf_base_vector.ms", "lln.pmf_base_vector", "ms", None),
    ("entropy.renyi_kn.us", "entropy.renyi_kn", "us", None),
    ("entropy.renyi_closed.us", "entropy.renyi_closed", "us", None),
    ("fubini.lifted_form_value.ms", "fubini.lifted_form_value", "ms", None),
    ("fubini.ladder.us", "fubini.ladder", "us", None),
    ("gcomplex.gc_mul.us", "gcomplex.gc_mul", "us", None),
    ("gcomplex.gc_scalar_product.ms", "gcomplex.gc_scalar_product", "ms", None),
]
# (metric, span name): the median of the counter read at each call
SPAN_COUNTS = [
    ("generator.convex_inverse.forward_calls", "generator.convex_inverse"),
    ("calculus.nn_integral.base_evals", "calculus.nn_integral"),
    ("gcomplex.gc_scalar_product.base_evals", "gcomplex.gc_scalar_product"),
]


class Stats:
    """Attempted and failed calls, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, call, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{call.name}: {reason}")


def run_pass(calls, tracer, stats, check_failed) -> float:
    """Make each call, then check its output; returns the summed call time in seconds.

    Checks run between calls and are not timed.  In a traced pass the span
    bookkeeping falls inside the timed interval, which is what the tracing
    overhead measures.
    """
    busy = 0
    for c in calls:
        if c.counter is not None:
            c.counter.n = 0
        stats.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = tracer.call(c.module, c.name, c.fn, c.args, c.counter)
        except Exception as exc:  # a call that raises is a failed call; the run goes on
            busy += time.perf_counter_ns() - t0
            stats.fail(c, f"raised {type(exc).__name__}: {exc}")
            continue
        busy += time.perf_counter_ns() - t0
        try:
            c.check(out)
        except check_failed as exc:
            stats.fail(c, str(exc))
    return busy / 1e9


class SetupProbe:
    """Cold set-ups of a workload, each in a fresh interpreter timed from outside.

    Set-ups alternate with runs of the set-up calibration (calibrate.py), so
    each set-up is bracketed by two calibrations.
    """

    def __init__(self, root: str, src: str, workload: str):
        self.cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload]
        self.cal_cmd = [sys.executable, "-c", calibrate.SETUP_IMPORTS]
        self.env = dict(os.environ, PYTHONPATH=src)
        self.root = root
        self.times: list[float] = []
        self.ref_times: list[float] = []

    def _time(self, cmd) -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, env=self.env, cwd=self.root, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def measure(self, repeats: int) -> None:
        self._time(self.cmd)  # unmeasured: writes the bytecode caches a later set-up finds
        cals = [self._time(self.cal_cmd)]
        for _ in range(repeats):
            self.times.append(self._time(self.cmd))
            cals.append(self._time(self.cal_cmd))
        self.ref_times = calibrate.reference_seconds(self.times, cals, "setup")


def tail(times):
    """(value, percentile): the highest percentile with at least ten passes beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(spans, clamps, traced_times, plain_times):
    """Per-layer metrics from the spans of one traced run."""
    idx = {f: i for i, f in enumerate(FIELDS)}
    dur = defaultdict(list)
    counts = defaultdict(list)
    for s in spans:
        dur[s[idx["name"]]].append(s[idx["end_ns"]] - s[idx["start_ns"]])
        if s[idx["count"]] is not None:
            counts[s[idx["name"]]].append(s[idx["count"]])

    out = {}
    for metric, name, unit, elems in SPAN_TIMES:
        med = statistics.median(dur[name])
        out[metric] = (med / elems if elems else med / _SCALE[unit], unit)
    for metric, name in SPAN_COUNTS:
        out[metric] = (statistics.median(counts[name]), "count")
    self_ms = [(statistics.median(dur[f"cli.run.{c}"])
                - statistics.median(dur[f"cli.direct.{c}"])) / 1e6 for c in CLI_COMMANDS]
    out["cli.self.ms"] = (statistics.median(self_ms), "ms")
    out["generator.clamps"] = (statistics.median(clamps), "count")

    # Module totals per pass: from the workload's own traced passes, or, for a
    # module the workload never calls, from the reference passes of the others.
    per_pass = {phase: defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
                for phase in ("pass", "ref")}
    for s in spans:
        module, phase = s[idx["module"]], s[idx["phase"]]
        if module is None or phase not in per_pass:
            continue
        acc = per_pass[phase][module][s[idx["parent_id"]]]
        acc[0] += 1
        acc[1] += s[idx["end_ns"]] - s[idx["start_ns"]]
        acc[2] += bool(s[idx["error"]])
    for module in MODULES:
        passes = per_pass["pass"][module] or per_pass["ref"][module]
        rows = list(passes.values())
        out[f"{module}.calls"] = (sum(r[0] for r in rows), "count")
        out[f"{module}.busy_ms"] = (statistics.median(r[1] for r in rows) / 1e6, "ms")
        out[f"{module}.errors"] = (sum(r[2] for r in rows), "count")
    overhead = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli_docs", "vector_sweeps", "scalar_calls"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nncalc", "__init__.py")):
        print("perfbench: ./src/nncalc not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import nncalc

    if os.path.dirname(os.path.dirname(os.path.abspath(nncalc.__file__))) != src:
        print(f"perfbench: imported nncalc from {nncalc.__file__}, not ./src", file=sys.stderr)
        return 2

    import numpy as np

    import reference
    import workloads
    from nncalc.generator import clamp_count, reset_clamp_count

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmpdir = os.path.join(root, ".perfbench_tmp", f"{tag}-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        probe = SetupProbe(root, src, args.workload)
        if not args.trace:
            probe.measure(SETUP_REPEATS)
        tracer = Tracer(run_id=f"{tag}-{os.getpid()}-{time.time_ns()}")
        stats = Stats()
        wl = workloads.WORKLOADS[args.workload](args.seed, tmpdir)

        def one_pass(w, index, traced):
            tracer.enabled = traced
            calls = w.calls(index)
            reset_clamp_count()
            with tracer.group(f"pass.{w.name}"):
                t = run_pass(calls, tracer, stats, workloads.CheckFailed)
            tracer.enabled = False
            return t, clamp_count()

        one_pass(wl, 0, False)  # warm-up: fills caches and makes the reference checks
        times = {False: [], True: []}
        pass_s, traced_flags, cals = [], [], []
        clamps = []
        tracer.phase = "pass"
        deadline = time.perf_counter() + args.seconds
        index = 1
        calibrate.measure(wl.calibration)  # warm-up: first-touch of the kernel's arrays
        cals.append(calibrate.measure(wl.calibration))
        while (not times[False] or (args.trace and not times[True])
               or time.perf_counter() < deadline):
            traced = bool(args.trace) and index % 2 == 0
            t, c = one_pass(wl, index, traced)
            cals.append(calibrate.measure(wl.calibration))
            times[traced].append(t)
            pass_s.append(t)
            traced_flags.append(traced)
            clamps.append(c)
            index += 1
        # untraced passes in reference seconds, see calibrate.py
        ref_times = [r for r, traced in zip(
            calibrate.reference_seconds(pass_s, cals, wl.calibration), traced_flags) if not traced]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace:
            # every per-layer metric is reported on every workload: the other
            # workloads contribute one traced reference pass each, and the
            # cli commands' direct library calls are timed for cli.self.ms
            others = {n: cls(args.seed, tmpdir) for n, cls in workloads.WORKLOADS.items()
                      if n != args.workload}
            tracer.phase = "ref"
            for w in others.values():
                one_pass(w, 0, False)
                one_pass(w, 1, True)
            cli_wl = wl if args.workload == "cli_docs" else others["cli_docs"]
            tracer.phase = "direct"
            cli_wl.direct(tracer)  # untraced warm-up
            tracer.enabled = True
            for _ in range(DIRECT_REPEATS):
                cli_wl.direct(tracer)
            tracer.enabled = False

        oracle = reference.Oracle()
        wl.oracle(oracle)
        plain = times[False]
        tail_s, tail_pct = tail(plain)
        tail_ref_s, _ = tail(ref_times)
        correct = stats.failed == 0 and oracle.samples > 0 and not oracle.failures

        if args.trace:
            tracer.dump(os.path.join(out_dir, f"spans-{tag}.json"), workload=args.workload,
                        seed=args.seed)
            metrics = layer_metrics(tracer.spans, clamps, times[True], plain)
        else:
            metrics = {
                "setup_s": (statistics.median(probe.ref_times), "s"),
                "pass_ref_s_p50": (statistics.median(ref_times), "s"),
                "pass_ref_s_tail": (tail_ref_s, "s"),
                "max_err_ulps": (oracle.worst, "ulp"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "correct": correct,
            "attempted": stats.attempted, "failed": stats.failed,
            "failed_frac": stats.failed / stats.attempted, "failures": stats.reasons,
            "calls_per_pass": len(wl.calls(0)), "passes": len(plain),
            "traced_passes": len(times[True]), "pass_s": plain, "traced_pass_s": times[True],
            "setup_probe_s": probe.times, "setup_wall_s": statistics.median(probe.times)
            if probe.times else None,
            "pass_s_p50": statistics.median(plain), "pass_s_tail": tail_s,
            "pass_s_tail_percentile": tail_pct, "pass_s_tail_samples": len(plain),
            "pass_ref_s": ref_times,
            "oracle_samples": oracle.samples, "oracle_worst_case": oracle.worst_case,
            "oracle_failures": oracle.failures[:5],
            "machine": {"python": platform.python_version(), "numpy": np.__version__,
                        "machine": platform.machine(), "nproc": os.cpu_count()},
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        with open(os.path.join(out_dir, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        for key in ("attempted", "failed", "failed_frac", "failures", "calls_per_pass",
                    "passes", "traced_passes", "pass_s_p50", "pass_s_tail",
                    "pass_s_tail_percentile", "oracle_samples",
                    "oracle_worst_case", "oracle_failures", "machine"):
            print(f"{key}: {report[key]}")
        for k, (v, u) in metrics.items():
            print(f"{k}: {v:.6g} {u}")
        print(json.dumps({"correct": correct, "attempted": stats.attempted,
                          "failed": stats.failed, "metrics": report["metrics"]}))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(tmpdir))  # only when no other run is using it


if __name__ == "__main__":
    sys.exit(main())
