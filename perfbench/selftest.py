#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py on toy inputs and asserts that
  * the untraced run prints every end-to-end metric of BENCHMARK.json and
    the traced run every per-layer metric, each with its unit, both in the
    metric lines and in the closing JSON line, and exits 0 with
    "correct": true;
  * the traced run's Chrome trace is read by tools/trace2summary.py;
  * a run checked against a wrong oracle exits 1 with "correct": false.
It also asserts that the benchmark exits non-zero, without a result line,
in a directory that holds only BENCHMARK.json and perfbench/.  Exit 0 when
everything holds; the first failed assertion is printed otherwise.
"""
import json
import os
import re
import shutil
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py"]


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=900)


def result_line(done):
    lines = done.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{done.stderr}"
    return json.loads(lines[-1])


def check_metrics(done, specs, label):
    assert done.returncode == 0, (
        f"{label}: exit {done.returncode}\n{done.stderr}")
    result = result_line(done)
    assert result["correct"] is True, f"{label}: not correct: {result}"
    assert result["attempted"] >= 1 and result["failed"] == 0, label
    metrics = result["metrics"]
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        assert name in metrics, f"{label}: {name} missing from the result"
        assert metrics[name]["unit"] == unit, (
            f"{label}: {name} has unit {metrics[name]['unit']}, want {unit}")
        pattern = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s"
        assert re.search(pattern, done.stdout, re.M), (
            f"{label}: no metric line for {name} [{unit}]")
    extra = set(metrics) - {s["name"] for s in specs}
    assert not extra, f"{label}: metrics not in BENCHMARK.json: {extra}"


def check_trace(done, workload):
    match = re.search(r"^trace\s+: (\S+)$", done.stderr, re.M)
    assert match, f"{workload}: no trace file reported"
    path = match.group(1)
    summary = subprocess.run(
        [sys.executable, "tools/trace2summary.py", path],
        capture_output=True, text=True)
    span = "serve.query" if workload == "serve-mixed" else "mst.solve"
    assert summary.returncode == 0 and span in summary.stdout, (
        f"{workload}: trace2summary did not summarize {path}\n"
        f"{summary.stdout}{summary.stderr}")
    os.remove(path)


def check_bare_directory():
    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "road-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "bare directory: exit 0"
    assert '"correct"' not in done.stdout, "bare directory: printed a result"


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        check_metrics(run(name, 0), bench["end_to_end"], f"{name} trace 0")
        traced = run(name, 1)
        check_metrics(traced, bench["per_layer"], f"{name} trace 1")
        check_trace(traced, name)
        wrong = run(name, 0, "--corrupt-oracle")
        assert wrong.returncode == 1, (
            f"{name}: wrong oracle exited {wrong.returncode}")
        result = result_line(wrong)
        assert result["correct"] is False and result["failed"] >= 1, (
            f"{name}: wrong oracle not detected: {result}")
        print(f"ok  {name}")
    check_bare_directory()
    print("ok  bare directory refused")
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}")
        sys.exit(1)
