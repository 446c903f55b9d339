"""Smoke check of the benchmark itself.

Usage, from the root of a checkout:  python3 bench/smoke.py

1. Runs every workload shortened to one schedule cycle, untraced and traced,
   and requires a correct result whose metrics are exactly the ones named in
   BENCHMARK.json, each with its unit.
2. Flips the expected label of each workload's first op and requires that op
   to be counted as failed, so the output checks are shown to be live.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, and requires it to fail without printing a result.

Exits 0 when every step holds; prints each failed requirement otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import harness

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
problems: list[str] = []


def require(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAIL {message}", flush=True)


def report_ok(label: str, problems_before: int) -> None:
    if len(problems) == problems_before:
        print(f"ok {label}", flush=True)


def bench(workload, trace, cwd=harness.ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(workload, trace)
            label = f"{workload} --trace {trace}"
            before = len(problems)
            require(proc.returncode == 0, f"{label}: exit code {proc.returncode}\n{proc.stderr}")
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                require(False, f"{label}: last line is not a JSON result")
                continue
            require(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{label}: correct {result['correct']}, failed {result['failed']}")
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            require(got == want, f"{label}: metrics differ from BENCHMARK.json: "
                                 f"missing {sorted(set(want) - set(got))}, "
                                 f"extra {sorted(set(got) - set(want))}, "
                                 f"units {[k for k in want if got.get(k) not in (None, want[k])]}")
            report_ok(label, before)


def check_wrong_label_fails() -> None:
    for workload in harness.WORKLOADS:
        before = len(problems)
        run = harness.run_benchmark(workload, 7, 1, False, corrupt=True)
        out = run["result"]
        failed_ops = {line.split(":")[0] for line in run["lines"] if line.startswith("FAILED")}
        require(not out["correct"] and out["failed"] >= 1 and len(failed_ops) == 1,
                f"{workload}: a wrong label gave failed {out['failed']}, {failed_ops}")
        report_ok(f"{workload} counts a wrong label as a failed op", before)


def check_fails_without_program() -> None:
    bare = harness.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(harness.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        before = len(problems)
        proc = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        last = (proc.stdout.splitlines() or [""])[-1]
        require(proc.returncode != 0 and not last.startswith("{"),
                f"without the program: exit code {proc.returncode}, last line {last!r}")
        report_ok("fails without the program", before)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_metrics()
    check_wrong_label_fails()
    check_fails_without_program()
    print("smoke check:", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)
