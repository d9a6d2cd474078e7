"""factormom benchmark: CLI workloads end to end, and per layer when traced.

usage (from the repository root):

    python3 perfbench/run.py --workload {factor_grid,stock_panel,model_mc,all}
                             --seed N [--seconds S] [--trace 0|1]

Load model: one closed-loop client. Each command of a workload runs in its
own fresh child process (``perfbench/child.py`` calling
``factormom.cli.main``), one after another, with BLAS pinned to one thread
before the child starts. A run generates the workload's inputs from the
seed (untimed), imports ``factormom.cli`` in a few probe children (set-up),
then repeats rounds of the workload's commands for about ``--seconds``.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
``setup_s`` (median import time of ``factormom.cli`` over every child),
``run_s`` (median over rounds of the summed ``cli.main`` wall time) and
``peak_rss_mb`` (median over rounds of the largest child ``ru_maxrss``).
``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics: span self times, calls, RSS growth and computed-work
counters, plus the tracing overhead.

Outputs must exit 0 (``verify`` may exit 1: a known calibration defect,
counted as completed and reported), be byte-identical across all rounds of
a run, traced or not, and pass the workload's checks. The last stdout line
is the JSON result; a full record with a host fingerprint goes to
``.perfbench_work/results/``. The exit code is non-zero if a command failed
or an output was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3  # counted import-only children, after one uncounted warm-up
RUN_DEADLINE_S = 170.0  # every run must finish inside 180 s
ALLOWED_EXIT = {"verify": (0, 1)}  # verify exits 1 when a 3-SE check misses


class BenchError(Exception):
    """The benchmark cannot run here."""


def child_env(tmp: Path) -> dict:
    env = dict(os.environ, **BLAS_THREADS, TMPDIR=str(tmp))
    # children cache factormom's bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(argv, cwd: Path, result: Path, traced: bool, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
           str(HERE / "child.py"), str(result), "1" if traced else "0", *argv]
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    if not result.is_file():
        return {"error": f"child exited {proc.returncode} without a result: {proc.stderr[-500:]}"}
    rec = json.loads(result.read_text())
    if not Path(rec["module_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"factormom imported from {rec['module_file']}, not from {SRC}")
    if traced:
        rec["import_scipy_s"] = scipy_import_s(proc.stderr)
    return rec


def scipy_import_s(stderr: str) -> float:
    """Cumulative ``-X importtime`` seconds of the outermost scipy imports."""
    entries = []
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        entries.append((len(parts[2]) - len(parts[2].lstrip()), name, int(parts[1])))
    total, stack = 0, []
    for depth, name, cumulative in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            total += cumulative
        stack.append((depth, is_scipy))
    return total / 1e6


def digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def summary(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples above it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 11:
        out[f"p{100 * (len(values) - 10) // len(values)}"] = sorted(values)[len(values) - 11]
    return out


def host_fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), None)
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = f"L{_read(idx / 'level').strip()}{_read(idx / 'type').strip()[:1]}"
        caches[kind] = _read(idx / "size").strip()
    mem = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/meminfo").splitlines()
                if ln.startswith("MemTotal")), None)
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        head = _read(ROOT / ".git" / head[5:]).strip()
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads_set": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "caches": caches,
        "mem_total": mem, "platform": platform.platform(), "git_commit": head or None,
    }


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        return _run_in(work, name, seed, seconds, trace, spec, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(work, name, seed, seconds, trace, spec, deadline) -> dict:
    wl = WORKLOADS[name]
    t_gen = time.monotonic()
    inputs = wl.inputs(seed, work / "inputs")
    generate_s = time.monotonic() - t_gen  # kept out of every metric
    commands = wl.commands(inputs)
    env = child_env(work)

    # set-up: the warm-up child may compile bytecode; users pay that once
    imports = []
    for i in range(SETUP_PROBES + 1):
        rec = run_child([], work, work / f"probe{i}.json", False, env, deadline)
        if "error" in rec:
            raise BenchError(f"importing factormom.cli failed: {rec['error']}")
        if i:
            imports.append(rec["import_s"])

    rounds = []  # (traced, wall seconds, per-command records)
    first_dirs: list[Path] = []
    failures: list[str] = []
    expected: list[dict] = []
    min_rounds = 3 if trace else 2  # traced runs need two traced rounds to compare counts
    t0 = time.monotonic()
    while True:
        done = len(rounds)
        if done >= min_rounds:
            per_round = (time.monotonic() - t0) / done
            if time.monotonic() - t0 + per_round > seconds:
                break
        traced = trace and done % 2 == 0
        start = time.monotonic()
        recs = []
        for i, (cmd, args, outputs) in enumerate(commands):
            cdir = work / f"round{done}" / f"{i}_{cmd}"
            cdir.mkdir(parents=True)
            argv = ["--seed", str(seed), "--out-dir", ".", *args]
            rec = run_child(argv, cdir, cdir.parent / f"{i}.result.json", traced, env, deadline)
            rec["cmd"] = cmd
            rec["outputs"] = digests(cdir)
            problem = _command_problem(cmd, rec, outputs, expected[i] if done else None)
            if problem:
                failures.append(f"round {done} {cmd}: {problem}")
                rec["failed"] = True
            if not done:
                expected.append(rec["outputs"])
                first_dirs.append(cdir)
            recs.append(rec)
        rounds.append((traced, time.monotonic() - start, recs))
        if done:
            shutil.rmtree(work / f"round{done}")

    problems, info = [], {}
    if not any(rec.get("failed") for rec in rounds[0][2]):
        try:
            problems, info = wl.check(inputs, first_dirs)
        except Exception as exc:  # malformed output the checks could not parse
            problems = [f"output check crashed: {type(exc).__name__}: {exc}"]
    attempted = sum(len(r) for _, _, r in rounds)
    failed = sum(1 for _, _, r in rounds for rec in r if rec.get("failed"))
    untraced = [r for t, _, r in rounds if not t]
    imports += [rec["import_s"] for r in untraced for rec in r if "import_s" in rec]
    cmd_s = {}
    for cmd in dict.fromkeys(c for c, _, _ in commands):
        cmd_s[f"{cmd}_s"] = summary([sum(rec.get("main_s", 0.0) for rec in r if rec["cmd"] == cmd)
                                     for r in untraced])
    e2e = {
        "setup_s": summary(imports),
        "run_s": summary([sum(rec.get("main_s", 0.0) for rec in r) for r in untraced]),
        "peak_rss_mb": summary([max(rec.get("maxrss_kb", 0) for rec in r) / 1024.0
                                for r in untraced]),
        **cmd_s,
        "failed_ops_frac": failed / attempted,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "host": host_fingerprint(), "inputs": inputs.records, "generate_s": generate_s,
        "commands": [[c, a] for c, a, _ in commands],
        "rounds": [{"traced": t, "wall_s": w,
                    "commands": [{k: v for k, v in rec.items() if k != "trace"} for rec in r]}
                   for t, w, r in rounds],
        "end_to_end": e2e, "info": info, "failures": failures, "problems": problems,
        "attempted": attempted, "failed": failed,
    }
    if trace:
        layers, count_problems, spans = per_layer(rounds)
        problems += count_problems
        record["per_layer"], record["spans_first_traced_round"] = layers, spans
    return record


def _command_problem(cmd, rec, outputs, expected) -> str | None:
    if "error" in rec:
        return rec["error"]
    if rec["exit_code"] not in ALLOWED_EXIT.get(cmd, (0,)):
        return f"exit code {rec['exit_code']}"
    missing = [o for o in outputs if o not in rec["outputs"]]
    if missing:
        return f"missing outputs {missing}"
    if expected is not None and rec["outputs"] != expected:
        return "outputs differ from the first round"
    return None


COUNTS = ("calls", "cells", "cells_missing", "bytes", "labels", "simulated_cells", "useful_ratio")


def _is_count(key: str) -> bool:
    """Computed-work counters, which must repeat exactly from round to round."""
    return key.rsplit(".", 1)[-1] in COUNTS


def per_layer(rounds) -> tuple[dict, list[str], list]:
    """Per-layer metrics: medians over traced rounds; counts must repeat."""
    per_round = []
    for traced, _, recs in rounds:
        traces = [rec["trace"] for rec in recs if "trace" in rec]  # failed children have none
        if not traced or not traces:
            continue
        values: dict[str, float] = dict.fromkeys(tracer.COUNTERS, 0)
        for name in traces[0]["wrapped"]:
            values.update({f"{name}.calls": 0, f"{name}.self_s": 0.0,
                           f"{name}.rss_growth_mb": 0.0})
        for tr in traces:
            for name, t in tracer.layer_totals(tr["spans"]).items():
                for q, v in t.items():
                    values[f"{name}.{q}"] += v
            for key, v in tr["counters"].items():
                values[key] += v
        calls = values["momentum.signal.calls"]
        windows = sum(tr["signal_windows"] for tr in traces)
        values["momentum.signal.useful_ratio"] = windows / calls if calls else 0.0
        values["cli.import_scipy_s"] = statistics.median(
            rec["import_scipy_s"] for rec in recs if "import_scipy_s" in rec)
        per_round.append(values)
    if not per_round:
        return {}, ["no traced command completed"], {}
    problems = []
    for key in filter(_is_count, per_round[0]):
        if len({r[key] for r in per_round}) != 1:
            problems.append(f"count {key} differs between traced rounds")
    layers = {k: per_round[0][k] if _is_count(k) else statistics.median(r[k] for r in per_round)
              for k in per_round[0]}
    run_s = {t: statistics.median(sum(rec.get("main_s", 0.0) for rec in r)
                                  for tt, _, r in rounds if tt == t) for t in (True, False)}
    layers["trace.overhead_s"] = run_s[True] - run_s[False]
    first = next(r for t, _, r in rounds if t)
    spans = {f"{i}_{rec['cmd']}": rec["trace"]["spans"]
             for i, rec in enumerate(first) if "trace" in rec}
    return layers, problems, spans


def result_line(record: dict, spec: dict) -> dict:
    values = record["per_layer"] if record["trace"] else {
        k: v["median"] if isinstance(v, dict) else v for k, v in record["end_to_end"].items()}
    declared = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}  # all of them unless a command failed
    return {"correct": not record["problems"] and not record["failed"]
            and len(metrics) == len(declared),
            "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}


def print_report(record: dict) -> None:
    name = f"{record['workload']} seed={record['seed']}"
    units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "failed_ops_frac": "ratio"}
    for key, v in record["end_to_end"].items():
        unit = units.get(key, "s")
        if isinstance(v, dict):
            tail = "".join(f" {k}={x:.4f}" for k, x in v.items() if k.startswith("p"))
            print(f"{name} {key}: median={v['median']:.4f} {unit}{tail} n={v['n']}")
        else:
            print(f"{name} {key}: {v:.4f} {unit} n={record['attempted']}")
    if record["trace"]:
        for key, v in record["per_layer"].items():
            shown = v if isinstance(v, int) else f"{v:.6g}"
            print(f"{name} {key}: {shown}" + (" (computed)" if _is_count(key) else ""))
    for key, v in record["info"].items():
        print(f"{name} info {key}: {v}")
    for msg in record["failures"] + record["problems"]:
        print(f"{name} FAILED: {msg}")
    verdict = "correct" if not (record["failures"] or record["problems"]) else "INCORRECT"
    print(f"{name} outputs: {verdict} ({record['attempted'] - record['failed']}"
          f"/{record['attempted']} commands completed)")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "factormom" / "cli.py").is_file():
        print(f"error: no factormom source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1))
        print_report(record)
        results[name] = result_line(record, spec)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
