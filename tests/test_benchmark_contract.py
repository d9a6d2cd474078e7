"""The benchmark's span tracer still installs on the package and counts.

``perfbench/tracer.py`` rewraps every public function of the layer modules
and ``Calendar.periods`` (as a staticmethod). A refactor that breaks one of
those attributes fails here, not only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a child interpreter keeps this one's -W options, so -W error reaches it
PYTHON = [sys.executable, *(f"-W{option}" for option in sys.warnoptions)]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import factormom, tracer
from factormom import cli

tr = tracer.Tracer()
tr.install(factormom)
out = sys.argv[2]
codes = [
    cli.main(["--seed", "1", "--out-dir", out, "simulate", "--T", "24", "--burn-in", "0"]),
    cli.main(["--out-dir", out, "resample", "--input", sys.argv[3]]),
]
trace = tr.export()
print(json.dumps({"codes": codes, "counters": trace["counters"],
                  "spans": sorted({span[0] for span in trace["spans"]})}))
"""


def test_tracer_installs_and_counts(tmp_path):
    daily = tmp_path / "daily.csv"
    daily.write_text("date,A\n2000-01-03,0.01\n2000-01-04,0.02\n2000-02-01,-0.01\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [*PYTHON, "-c", SCRIPT, str(ROOT / "perfbench"), str(tmp_path), str(daily)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["counters"]["panel.Calendar.periods.labels"] == 24
    assert result["counters"]["panel.emit_csv.cells"] > 0
    assert result["counters"]["model.simulated_cells"] > 0
    assert {"panel.Calendar.periods", "panel.resample_monthly", "model.simulate"} <= set(
        result["spans"])


VERIFY_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import factormom, tracer
from factormom import cli

tr = tracer.Tracer()
tr.install(factormom)
code = cli.main(["--seed", "1", "--out-dir", sys.argv[2], "verify", "--T", "4000", "--k-max", "1"])
trace = tr.export()
print(json.dumps({"code": code, "counters": trace["counters"], "wrapped": trace["wrapped"],
                  "spans": sorted({span[0] for span in trace["spans"]})}))
"""


def test_tracer_spans_verify_and_wraps_every_declared_layer(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [*PYTHON, "-c", VERIFY_SCRIPT, str(ROOT / "perfbench"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] in (0, 1)  # a small-T verify can miss a 3-SE check
    # verify streams its path through private helpers: neither simulate nor
    # the public estimators run, so only its own spans are required
    assert {"model.verify_model", "model.reconstruction_check"} <= set(result["spans"])
    # a traced benchmark run is marked incorrect when a declared layer never reports
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    declared = {m["name"].removesuffix(".calls") for m in per_layer if m["name"].endswith(".calls")}
    assert declared <= set(result["wrapped"])
