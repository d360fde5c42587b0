"""Benchmark of the tamecalc command line: check, connect and verify.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs the workload's operations one at a time, each
in a fresh `python3 -m tamecalc.cli` process, the way a user runs them.
A pass is one round of the workload's operations; passes repeat until the
operations have run for S seconds.  Every result is checked: exit codes,
report verdicts, byte-identical artifacts and, for each artifact, the
covariant-derivative table against the exact Christoffel oracle.

With --trace 0 the last line reports the end-to-end metrics (medians over
passes).  With --trace 1 one pass runs under the span recorder of spans.py
and the last line reports the per-layer metrics of that pass.  Inputs,
artifacts, results and traces go to perfbench/work/<workload>/, so only
one run at a time may use a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from random import Random

# The modules that import tamecalc (inputs, spans, the engine itself) are
# imported inside functions, once main() has put src/ on the path.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

OP_TIMEOUT_S = 150.0     # one operation; the whole run must end within 180 s
SETUP_MIN_REPS = 2
SETUP_MIN_S = 1.0
STARTUP_REPS = 5

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.startup_s": "s",
    "specfile.load_s": "s",
    "specfile.write_s": "s",
    "algebra.validate_s": "s",
    "bimodule.tensor_square_s": "s",
    "bimodule.hom_s": "s",
    "bimodule.pair_apply_calls": "count",
    "bimodule.pair_apply_s": "s",
    "calculus.validate_s": "s",
    "calculus.symmetry_s": "s",
    "metric.validate_s": "s",
    "metric.fields_s": "s",
    "connection.reference_s": "s",
    "connection.koszul_s": "s",
    "connection.direct_s": "s",
    "connection.certify_s": "s",
    "connection.covariant_derivative_calls": "count",
    "connection.covariant_derivative_s": "s",
    "connection.lie_bracket_calls": "count",
    "connection.lie_bracket_s": "s",
    "connection.direct_rows": "count",
    "connection.direct_unknowns": "count",
    "linalg.elim_calls": "count",
    "linalg.elim_s": "s",
    "linalg.elim_rows": "count",
    "linalg.elim_nnz": "count",
    "linalg.matmul_calls": "count",
    "linalg.matmul_s": "s",
    "linalg.apply_calls": "count",
    "linalg.apply_s": "s",
}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    kind: str                 # "connect", "verify" or "check"
    input: str
    metric: str
    expect_exit: int = 0


def workload_plan(name: str, seed: int):
    """The metric draws of each input and the operations of one pass."""
    from inputs import draw_metric

    rng = Random(seed)
    if name == "fuzzy3-connect":
        grams = {"fuzzy-sphere-3": {"g0": draw_metric(rng, "A3")}}
        return grams, [Op("connect", "fuzzy-sphere-3", "g0")]
    if name == "torus4-check":
        grams = {"abelian-torus-4": {"g0": draw_metric(rng, "A2")}}
        return grams, [Op("check", "abelian-torus-4", "g0")]
    if name == "small-roundtrip":
        grams = {inp: {"g0": draw_metric(rng, "A" + n), "g1": draw_metric(rng, "B" + n)}
                 for inp, n in (("matrix-derivations-2", "3"), ("fuzzy-sphere-2", "3"),
                                ("abelian-torus-2", "2"))}
        ops = [Op(kind, inp, m) for inp, ms in grams.items() for m in ms
               for kind in ("connect", "verify")]
        grams["matrix-derivations-2"]["asym"] = draw_metric(rng, "asym3")
        ops.append(Op("check", "matrix-derivations-2", "asym", expect_exit=1))
        return grams, ops
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fuzzy3-connect", "torus4-check", "small-roundtrip")


def setup(grams, workdir: Path):
    from inputs import write_input

    return {name: write_input(name, g, workdir) for name, g in grams.items()}


# ---------------------------------------------------------------------------
# Running one operation
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def launch(argv: list[str], workdir: Path, env: dict) -> Outcome:
    """Run one process to its end; wall time and peak RSS from wait4."""
    out_path = workdir / "op.stdout"
    with open(out_path, "wb") as out, open(workdir / "op.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                cwd=ROOT, env=env)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                   out_path.read_text(encoding="utf-8", errors="replace"))


def op_argv(op: Op, inputs, workdir: Path) -> list[str]:
    inp = inputs[op.input]
    metric = inp.metrics[op.metric]
    artifact = workdir / f"{op.input}.{op.metric}.connection.json"
    args = {"connect": [str(inp.spec_path), "--out", str(artifact)],
            "verify": [str(inp.spec_path), str(artifact)],
            "check": [str(inp.spec_path)]}[op.kind]
    return [op.kind] + args + ["--metric", str(metric.path), "--json"]


# ---------------------------------------------------------------------------
# Checking results
# ---------------------------------------------------------------------------

class Checker:
    """Decides whether one operation's result is right.

    Repeated connects of one input must write byte-identical artifacts; the
    first artifact of each input is read on the frame one-forms and compared
    with the oracle's Christoffel symbols.
    """

    def __init__(self, inputs, workdir: Path):
        self.inputs = inputs
        self.workdir = workdir
        self.artifacts: dict[tuple[str, str], bytes] = {}
        self.oracle_ok: dict[tuple[str, str], bool] = {}
        self.problems: list[str] = []
        self.wrong_results = 0

    def __call__(self, op: Op, out: Outcome) -> bool:
        """True when the operation succeeded.  Every problem counts the
        operation as failed; a wrong result behind the expected exit code also
        makes the run incorrect."""
        problem = self.problem(op, out)
        if problem:
            self.problems.append(f"{op.kind} {op.input} {op.metric}: {problem}")
            self.wrong_results += out.code == op.expect_exit
        return problem is None

    def problem(self, op: Op, out: Outcome) -> str | None:
        if out.code != op.expect_exit:
            return f"exit {out.code}, expected {op.expect_exit}"
        try:
            report = json.loads(out.stdout)
        except json.JSONDecodeError:
            return "report is not JSON"
        failing = sorted(c["name"] for c in report["checks"] if not c["ok"])
        if op.expect_exit == 1:
            if failing != ["metric_valid"] or report["summary"].get("metric_valid") is not False:
                return f"expected only metric_valid to fail, got {failing}"
            return None
        if failing or not report["ok"]:
            return f"failing checks {failing}"
        summary = report["summary"]
        wanted = {"check": ("calculus_valid", "tame", "metric_valid"),
                  "connect": ("levi_civita",),
                  "verify": ("valid_connection", "torsionless", "compatible")}[op.kind]
        if not all(summary.get(k) is True for k in wanted):
            return f"summary {summary}"
        if op.kind == "connect":
            return self.artifact_problem(op)
        return None

    def artifact_problem(self, op: Op) -> str | None:
        key = (op.input, op.metric)
        data = (self.workdir / f"{op.input}.{op.metric}.connection.json").read_bytes()
        first = self.artifacts.setdefault(key, data)
        if data != first:
            return "artifact differs from this run's first connect of the same input"
        if key not in self.oracle_ok:
            self.oracle_ok[key] = self.matches_oracle(op, json.loads(data))
        if not self.oracle_ok[key]:
            return "covariant-derivative table differs from the Christoffel oracle"
        return None

    def matches_oracle(self, op: Op, artifact: dict) -> bool:
        from oracle import table_mismatches

        if not all(artifact["checks"].values()):
            return False
        inp = self.inputs[op.input]
        read = read_table(artifact["table"], inp.calculus)
        return read is not None and not table_mismatches(
            read, inp.constants, inp.metrics[op.metric].gram)


def read_table(table, calc):
    """<table[p][q], theta^s> as Fractions; None if a value is not a scalar."""
    from tamecalc.bimodule import dual_module
    from tamecalc.linalg import ZERO, scalar_from_json

    e_star = dual_module(calc.one_forms)
    unit = calc.algebra.unit
    nA = calc.algebra.dim
    u0 = next(i for i, u in enumerate(unit) if not u.is_zero())
    n = len(table)
    thetas = [tuple(unit[k % nA] if k // nA == s else ZERO for k in range(n * nA))
              for s in range(n)]
    read = []
    for row in table:
        read_row = []
        for entry in row:
            coords = tuple(scalar_from_json(x) for x in entry)
            values = []
            for theta in thetas:
                v = e_star.value(coords, theta)
                k = v[u0] / unit[u0]
                if v != tuple(k * u for u in unit) or k.imag != 0:
                    return None
                values.append(k.re)
            read_row.append(values)
        read.append(read_row)
    return read


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def timed_setup(grams, workdir: Path, times: list[float]):
    start = time.perf_counter()
    inputs = setup(grams, workdir)
    times.append(time.perf_counter() - start)
    return inputs


def run_untraced(grams, ops, seconds: float, workdir: Path) -> dict:
    """Whole passes until the operations have run for `seconds` seconds.

    Set-up runs SETUP_MIN_REPS times and for SETUP_MIN_S seconds first, then
    once more before each operation, so its samples spread over the run and
    the median does not rest on one short span of the machine's speed.  The
    files it rewrites are byte-identical.
    """
    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_S:
        inputs = timed_setup(grams, workdir, setup_times)
    env = child_env()
    checker = Checker(inputs, workdir)
    passes: list[dict[str, float]] = []
    attempted = failed = 0
    peak = 0.0
    measured = 0.0
    while measured < seconds:
        walls = {"pass": 0.0}
        for op in ops:
            inputs = timed_setup(grams, workdir, setup_times)
            out = launch(["-m", "tamecalc.cli"] + op_argv(op, inputs, workdir), workdir, env)
            attempted += 1
            failed += not checker(op, out)
            peak = max(peak, out.rss_mb)
            walls["pass"] += out.wall_s
            walls[op.kind] = walls.get(op.kind, 0.0) + out.wall_s
        measured += walls["pass"]
        passes.append(walls)

    for kind in ("setup", "pass", "connect", "check", "verify"):
        vals = setup_times if kind == "setup" else [p[kind] for p in passes if kind in p]
        if vals:
            q1, med, q3 = quartiles(vals)
            print(f"{kind}_s: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} n {len(vals)}")
    for problem in checker.problems:
        print(f"FAILED {problem}")
    metrics = {"setup_s": statistics.median(setup_times),
               "pass_s": statistics.median(p["pass"] for p in passes),
               "peak_rss_mb": peak}
    return {"correct": checker.wrong_results == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


class Breakdown:
    """Per-layer sums over traced spans: self time (a span's duration minus
    its children's), inclusive time, counts, and the time each layer spends
    directly inside each other layer."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.inclusive_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.inside_s: Counter = Counter()

    def add(self, spans, counts) -> None:
        names = {sid: name for sid, name, *_ in spans}
        child_s: Counter = Counter()
        for _sid, name, start, end, parent in spans:
            child_s[parent] += end - start
            if parent in names:
                self.inside_s[f"{names[parent]} > {name}"] += end - start
        for sid, name, start, end, _parent in spans:
            self.inclusive_s[name] += end - start
            self.self_s[name] += end - start - child_s[sid]
        self.counts.update(counts)

    def metric(self, name: str) -> float:
        if name.endswith("_calls"):
            return self.counts[name[:-len("_calls")] + ".calls"]
        if name.endswith("_s"):
            return self.self_s[name[:-len("_s")]]
        return self.counts[name]


def run_traced(grams, ops, workdir: Path) -> dict:
    """One pass with every operation under the span recorder."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    inputs = tracer.run("setup", setup, grams, workdir)
    breakdown = Breakdown()
    breakdown.add(tracer.spans, tracer.counts)

    env = child_env()
    startup = [launch(["-c", "import tamecalc.cli"], workdir, env).wall_s
               for _ in range(STARTUP_REPS)]
    breakdown.self_s["cli.startup"] = statistics.median(startup)

    checker = Checker(inputs, workdir)
    attempted = failed = 0
    coverage: dict[str, list[float]] = {}
    pass_wall = 0.0
    unwrapped = set(tracer.unwrapped)
    for i, op in enumerate(ops):
        trace_path = workdir / f"trace.{i}.json"
        out = launch([str(BENCH / "spans.py"), str(trace_path)]
                     + op_argv(op, inputs, workdir), workdir, env)
        attempted += 1
        failed += not checker(op, out)
        pass_wall += out.wall_s
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        unwrapped.update(trace["unwrapped"])
        breakdown.add(trace["spans"], trace["counts"])
        root = next(s for s in trace["spans"] if s[1] == "op")
        covered = sum(e - s for _i, _n, s, e, parent in trace["spans"] if parent == root[0])
        coverage.setdefault(op.kind, []).append(covered / out.wall_s)

    print(f"traced pass_s: {pass_wall:.4f}")
    for kind, shares in coverage.items():
        print(f"covered by named spans, {kind}: median {statistics.median(shares):.3f} "
              f"of the process wall time over {len(shares)} ops")
    for name in sorted(breakdown.inclusive_s, key=breakdown.inclusive_s.get, reverse=True):
        print(f"layer {name}: calls {breakdown.counts[name + '.calls']} "
              f"self {breakdown.self_s[name]:.4f} s inclusive {breakdown.inclusive_s[name]:.4f} s")
    for edge, secs in sorted(breakdown.inside_s.items(), key=lambda kv: -kv[1]):
        if secs >= 0.01 * pass_wall:
            print(f"inside {edge}: {secs:.4f} s")
    for key in sorted(breakdown.counts):
        print(f"count {key}: {breakdown.counts[key]}")
    if unwrapped:
        print(f"not traced (missing in the package): {sorted(unwrapped)}")
    for problem in checker.problems:
        print(f"FAILED {problem}")

    metrics = {name: {"value": breakdown.metric(name), "unit": unit}
               for name, unit in PER_LAYER.items()}
    return {"correct": checker.wrong_results == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tamecalc" / "cli.py").is_file():
        print(f"no tamecalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    for old in workdir.iterdir():
        old.unlink()
    grams, ops = workload_plan(args.workload, args.seed)
    if args.trace:
        result = run_traced(grams, ops, workdir)
    else:
        result = run_untraced(grams, ops, args.seconds, workdir)
    line = json.dumps(result)
    (workdir / "result.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
