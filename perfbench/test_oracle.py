"""Tests of the Christoffel oracle the benchmark checks artifacts against.

    python3 -m pytest perfbench/test_oracle.py
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from inputs import CALCULI, bracket_constants, draw_metric, gram, write_input  # noqa: E402
from oracle import expected_table  # noqa: E402
from run import Checker, Op, child_env  # noqa: E402

EUCLIDEAN = gram([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_golden_value_on_matrix_derivations():
    """<nabla_{X_1} X_2, theta^3> = 1 with the Euclidean metric, the value
    the engine's own acceptance suite pins."""
    C = bracket_constants(CALCULI["matrix-derivations-2"]())
    assert expected_table(C, EUCLIDEAN)[0][1][2] == 1


def test_flat_torus_has_zero_symbols():
    C = bracket_constants(CALCULI["abelian-torus-2"]())
    c = gram([[2, 1], [1, -1]])
    assert all(x == 0 for row in expected_table(C, c) for entry in row for x in entry)


def test_oracle_accepts_engine_table_and_rejects_one_changed_entry(tmp_path):
    grams = {"eu": EUCLIDEAN, "a": draw_metric(Random(7), "A3"), "b": draw_metric(Random(8), "B3")}
    inp = write_input("matrix-derivations-2", grams, tmp_path)
    checker = Checker({inp.name: inp}, tmp_path)
    for name, metric in inp.metrics.items():
        artifact_path = tmp_path / f"{inp.name}.{name}.connection.json"
        subprocess.run([sys.executable, "-m", "tamecalc.cli", "connect", str(inp.spec_path),
                        "--metric", str(metric.path), "--out", str(artifact_path)],
                       check=True, stdout=subprocess.DEVNULL, env=child_env())
        artifact = json.loads(artifact_path.read_text(encoding="utf-8"))
        op = Op("connect", inp.name, name)
        assert checker.matches_oracle(op, artifact)

        entry = artifact["table"][0][1]
        k = next(i for i, x in enumerate(entry) if x != "0")
        entry[k] = str(Fraction(entry[k]) + 1)
        assert not checker.matches_oracle(op, artifact)
