"""Workload loops, metrics and the result line (see run.py for usage).

Every workload is a closed loop with one client: the next op starts when the
previous one has returned and its output has been checked. An op is one CLI
command. The loop runs the workload's schedule in whole cycles, a number
fixed by the requested seconds (see CYCLE_S), so every run times the same
ops; op times exclude the checks between ops.
"""

from __future__ import annotations

import os

# Fix the BLAS thread count before numpy is first imported, here and in every
# child process (see child_env).
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
WALL_LIMIT_S = 140.0  # stop starting cycles past this, so a run ends within 180 s
# Seconds one schedule cycle takes on the reference machine (2-vCPU Intel
# Xeon, one BLAS thread). A run does round(seconds / cycle) cycles, at least
# one, so the same --seconds always times the same ops: a faster program then
# finishes sooner instead of timing a different mix.
CYCLE_S = {"cli_cold": 5.0, "verify_sweep": 9.0, "trajectory_sweep": 13.0}
WORKLOADS = tuple(CYCLE_S)
IN_PROCESS = ("verify_sweep", "trajectory_sweep")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env["PYTHONPATH"] = str(SRC)
    env.pop("EDCHAN_TOL", None)  # every op runs at the CLI's default tolerance
    return env


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "blas_threads_set": BLAS_THREADS,
    }


def measure_setup(env, cwd) -> float:
    """Median time from a fresh interpreter to ``edchan.cli`` imported and ready.

    perf_counter reads CLOCK_MONOTONIC, which parent and child share.
    """
    code = ("import time, edchan.cli; edchan.cli.build_parser(); "
            "print(time.perf_counter())")

    def once():
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                             capture_output=True, text=True, check=True).stdout
        return float(out.split()[-1]) - t0

    once()  # writes the bytecode cache
    return statistics.median(once() for _ in range(SETUP_REPEATS))


def run_child(cmd, env, cwd):
    """Run one op as a child process; return (seconds, exit code, stdout, peak RSS kB)."""
    t0 = time.perf_counter()
    with open(cwd / "stderr.txt", "wb") as err:
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
    elapsed = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, p.returncode, out.decode(), usage.ru_maxrss


class Runner:
    """Runs ops, checks each output, and keeps the timings and outcomes."""

    def __init__(self, workload, workdir, oracle, env):
        self.workload = workload
        self.workdir = workdir
        self.oracle = oracle
        self.env = env
        self.tracer = None
        self.times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.certified: dict[str, bool] = {}
        self.child_rss_kb = 0
        self.spans_file = workdir / "spans.json"
        self.out_file = workdir / "out.txt"

    def run(self, op) -> None:
        if self.workload in IN_PROCESS:
            elapsed, code, text = self._in_process(op)
        else:
            elapsed, code, text = self._child(op)
        self.times.append(elapsed)
        self.attempted += 1
        failure, certified = check(op, code, text, self.oracle)
        if failure is not None:
            self.failures.append(f"{op['command']} {op['input']}: {failure}")
        if certified is not None:
            self.certified.setdefault(op["input"], certified)

    def _in_process(self, op):
        import edchan.cli

        self.out_file.unlink(missing_ok=True)
        argv = op["argv"] + ["--output", str(self.out_file)]
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        t0 = time.perf_counter()
        try:
            code = edchan.cli.main(argv)
        except Exception as exc:  # a raising op is a failed op, not a crash
            return time.perf_counter() - t0, None, f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
        text = self.out_file.read_text(encoding="utf-8") if self.out_file.exists() else ""
        return elapsed, code, text

    def _child(self, op):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "edchan", *op["argv"]]
        else:
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(self.spans_file),
                   str(self.attempted), "--", *op["argv"]]
            self.spans_file.unlink(missing_ok=True)
        elapsed, code, text, rss_kb = run_child(cmd, self.env, self.workdir)
        if self.tracer is not None:
            with open(self.spans_file, encoding="utf-8") as fh:
                self.tracer.extend(json.load(fh)["spans"])
        else:
            self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        return elapsed, code, text

    def cycles(self, ops, seconds, started) -> tuple[int, float]:
        """Run whole schedule cycles; return (ops run, their summed op seconds)."""
        first = len(self.times)
        for _ in range(max(1, round(seconds / CYCLE_S[self.workload]))):
            for op in ops:
                self.run(op)
            if time.perf_counter() - started > WALL_LIMIT_S:
                break
        return len(self.times) - first, sum(self.times[first:])


def tail(times):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def make_fixtures(workload, seed, workdir, env) -> list:
    subprocess.run([sys.executable, str(BENCH / "fixtures.py"), workload, str(seed),
                    str(workdir)], env=env, cwd=workdir, check=True)
    with open(workdir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def corrupt_first_label(ops) -> None:
    """Flip the expected verdict of the first op (used by the smoke check)."""
    e = ops[0]["expect"]
    key = next(k for k in ("cp", "divisible", "tp") if k in e)
    e[key] = not e[key]


def run_benchmark(workload, seed, seconds, trace, corrupt=False) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    if not (SRC / "edchan" / "__init__.py").is_file():
        raise FileNotFoundError(f"the program is not there: {SRC / 'edchan'} is missing")
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    env = child_env()
    os.environ.pop("EDCHAN_TOL", None)
    try:
        setup_s = measure_setup(env, workdir)
        ops = make_fixtures(workload, seed, workdir, env)
        if corrupt:
            corrupt_first_label(ops)
        if workload in IN_PROCESS:
            sys.path.insert(0, str(SRC))
        with np.load(workdir / "oracle.npz") as oracle:
            runner = Runner(workload, workdir, oracle, env)
            n, busy = runner.cycles(ops, seconds / 2 if trace else seconds, started)
            result = {"setup_s": setup_s, "n": n, "busy": busy, "runner": runner}
            if trace:
                runner.tracer = Tracer()
                if workload in IN_PROCESS:
                    runner.tracer.install()
                try:
                    result["traced"] = runner.cycles(ops, seconds / 2, started)
                finally:
                    runner.tracer.uninstall()
                TRACES.mkdir(exist_ok=True)
                runner.tracer.write(TRACES / f"{workload}-seed{seed}.json")
        return report(workload, seed, trace, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(workload, seed, trace, result) -> dict:
    runner = result["runner"]
    times = runner.times[:result["n"]]
    p_tail, pct = tail(times)
    ops_per_s = result["n"] / result["busy"]
    if workload in IN_PROCESS:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = runner.child_rss_kb
    planted = len(runner.certified)
    witnessed = sum(runner.certified.values())
    lines = [
        f"machine {json.dumps(machine_facts(), sort_keys=True)}",
        f"workload {workload} seed {seed}: {result['n']} timed ops, "
        f"{runner.attempted} ops checked",
        f"op_s.tail is p{pct:.1f} of {len(times)} samples",
        f"failed_ratio {len(runner.failures) / runner.attempted:.4g} "
        f"({len(runner.failures)} of {runner.attempted} ops)",
        f"witness_rate {witnessed}/{planted} planted violations certified",
        *(f"FAILED {reason}" for reason in runner.failures[:10]),
    ]
    if trace:
        n_traced, busy_traced = result["traced"]
        overhead = (n_traced / busy_traced) / ops_per_s
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   summarize(runner.tracer.spans).items()}
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        lines.append(f"trace.overhead_ratio {overhead:.4f} (traced ops/s over "
                     f"untraced ops/s; {n_traced} traced ops)")
    else:
        metrics = {
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "op_s.p50": {"value": statistics.median(times), "unit": "s"},
            "op_s.tail": {"value": p_tail, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "witness_rate": {"value": witnessed / planted if planted else 0.0,
                             "unit": "ratio"},
        }
    return {"lines": lines, "result": {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }}
