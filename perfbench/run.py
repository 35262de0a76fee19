"""The bridgestate benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every command of a workload runs
in a fresh ``python`` process (perfbench/child.py) that calls
``bridgestate.cli.main`` on the checkout's ``src``, and the workload repeats
in rounds until S seconds have passed.  Each command's output goes through
the workload's gate (perfbench/gates.py).  A round is one pass over the
workload's commands; end-to-end metrics aggregate all rounds.

With ``--trace 1`` each round runs its commands once untraced and once with
every layer wrapped (perfbench/spans.py), and the per-layer metrics are
medians over the traced rounds.  The last line of stdout is the result
object; the line before it is the full record of the run, which is also
kept in perfbench/_results/.  See perfbench/README.md for the workloads
and metrics.
"""

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "_results"
REFERENCE = json.loads((BENCH / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_PROBES = 5        # set-up-only launches per run, besides the commands
MIN_ROUNDS = 3
RUN_DEADLINE_S = 165    # a run prints its result well inside 180 s


class Launcher:
    """Starts child processes for one benchmark run, inside its deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.serial = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        PERFBENCH_SRC=str(SRC))

    def run(self, cli_args, workdir: Path, traced: bool = False) -> dict:
        """Run one command; returns the child's record plus ``stdout`` (its
        path), ``trace_files`` and ``ok`` (clean exit, rc 0)."""
        self.serial += 1
        tag = f"c{self.serial}"
        result_path = workdir / f"{tag}.result.json"
        stdout_path = workdir / f"{tag}.stdout"
        prefix = str(workdir / f"{tag}.spans") if traced else "-"
        env = dict(self.env, PERFBENCH_RUN_ID=f"{workdir.name}/{tag}")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"ok": False, "error": "run deadline passed",
                    "stdout": stdout_path, "trace_files": []}
        with open(stdout_path, "wb") as out:
            launch = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(result_path),
                 repr(launch), prefix, "--", *map(str, cli_args)],
                stdout=out, stderr=subprocess.PIPE, env=env, cwd=workdir,
                start_new_session=True)
            try:
                _, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return {"ok": False, "error": "timed out",
                        "stdout": stdout_path, "trace_files": []}
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        if proc.returncode != 0 or not result_path.exists():
            return {"ok": False, "stdout": stdout_path, "trace_files": [],
                    "error": f"child exit {proc.returncode}: "
                             f"{err.decode(errors='replace')[-2000:]}"}
        record = json.loads(result_path.read_text())
        record["stdout"] = stdout_path
        record["trace_files"] = sorted(workdir.glob(f"{tag}.spans.*.json"))
        record["ok"] = record["error"] is None and record["rc"] in (0, None)
        if record["rc"] not in (0, None):
            record["error"] = f"exit code {record['rc']}"
        return record


# ---------------------------------------------------------------------------
# workloads: prepare(rng) -> inputs; commands(inputs, workdir) -> list of
# (cli_args, gate), where gate(record) -> (ops, failed, surfaces, checks,
# output_bytes, reason)


def _file_size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _census_commands(jobs: int):
    ref = REFERENCE["census"]

    def commands(_inputs, workdir: Path):
        knots, surfs = workdir / "knots.csv", workdir / "surfaces.csv"
        for path in (knots, surfs):
            path.unlink(missing_ok=True)

        def gate(record):
            size = sum(_file_size(p) for p in (knots, surfs, record["stdout"]))
            if not record["ok"]:
                return ref["knots"], ref["knots"], ref["surfaces"], 0, size, \
                    record["error"]
            ok, checks, why = gates.check_census_files(knots, surfs, ref)
            return (ref["knots"], 0 if ok else ref["knots"], ref["surfaces"],
                    checks, size, why)

        args = ["census", "--max-alpha", ref["max_alpha"], "--out", knots,
                "--out-surfaces", surfs, "--jobs", jobs]
        return [(args, gate)]

    return commands


def _verify_commands(_inputs, _workdir: Path):
    ref = REFERENCE["verify"]

    def gate(record):
        size = _file_size(record["stdout"])
        if not record["ok"]:
            return ref["knots"], ref["knots"], ref["surfaces"], 0, size, \
                record["error"]
        ok, checks, why = gates.check_verify_output(
            record["stdout"].read_text(errors="replace"), ref)
        return (ref["knots"], 0 if ok else ref["knots"], ref["surfaces"],
                checks, size, why)

    return [(["verify", "--max-alpha", ref["max_alpha"]], gate)]


def _deep_commands(queries, _workdir: Path):
    out = []
    for query in queries:
        def gate(record, query=query):
            size = _file_size(record["stdout"])
            if not record["ok"]:
                return 1, 1, query["surfaces"], 0, size, record["error"]
            ok, checks, why = gates.check_invariants_reply(
                record["stdout"].read_text(errors="replace"), query)
            return 1, 0 if ok else 1, query["surfaces"], checks, size, why

        out.append((["invariants", query["alpha"], query["beta"], "--json"],
                    gate))
    return out


def pool_jobs() -> int:
    return len(os.sched_getaffinity(0))


WORKLOADS = {
    # name: (prepare, commands, pool size)
    "census": (lambda rng: None, _census_commands(1), 1),
    "census-par": (lambda rng: None, _census_commands(pool_jobs()), pool_jobs()),
    "verify": (lambda rng: None, _verify_commands, 1),
    "deep": (gates.deep_queries, _deep_commands, 1),
}


# ---------------------------------------------------------------------------
# rounds


def run_round(launcher, name, inputs, workdir: Path, traced: bool) -> dict:
    """One pass over the workload's commands, each gated."""
    _prepare, commands, jobs = WORKLOADS[name]
    rnd = {"ops": 0, "failed": 0, "surfaces": 0, "checks": 0, "body_s": 0.0,
           "cpu_s": 0.0, "peak_rss_kb": 0, "setups": [], "output_bytes": 0,
           "trace_files": [], "failures": []}
    for cli_args, gate in commands(inputs, workdir):
        record = launcher.run(cli_args, workdir, traced=traced)
        ops, failed, surfaces, checks, size, why = gate(record)
        rnd["ops"] += ops
        rnd["failed"] += failed
        rnd["surfaces"] += surfaces
        rnd["checks"] += checks
        rnd["output_bytes"] += size
        if failed:
            rnd["failures"].append(f"{cli_args}: {why}")
        if "body_s" in record:
            rnd["body_s"] += record["body_s"]
            rnd["cpu_s"] += record["cpu_s"]
            rnd["peak_rss_kb"] = max(rnd["peak_rss_kb"], record["peak_rss_kb"])
            rnd["setups"].append(record["setup_s"])
        rnd["trace_files"] += record["trace_files"]
    return rnd


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    launcher = Launcher(start + RUN_DEADLINE_S)
    rng = random.Random(seed)
    prepare, _commands, jobs = WORKLOADS[name]
    _fresh_dir(WORK)

    setups = []
    probe_dir = _fresh_dir(WORK / "setup")
    launcher.run([], probe_dir)  # warm-up: byte-code caches, page cache
    for _ in range(SETUP_PROBES):
        record = launcher.run([], probe_dir)
        if record["ok"]:
            setups.append(record["setup_s"])

    rounds, traced_rounds, layer_rounds = [], [], []
    round_s = 0.0
    while (time.monotonic() - start < seconds or len(rounds) < MIN_ROUNDS) \
            and time.monotonic() + round_s < launcher.deadline:
        began = time.monotonic()
        inputs = prepare(rng)
        workdir = _fresh_dir(WORK / f"round{len(rounds)}")
        shutil.rmtree(WORK / f"round{len(rounds) - 1}", ignore_errors=True)
        plain = run_round(launcher, name, inputs, workdir, traced=False)
        setups += plain["setups"]
        if trace:
            traced = run_round(launcher, name, inputs, workdir, traced=True)
            records = spans.read_trace_files(traced["trace_files"])
            if records and not traced["failed"]:
                layer = spans.layer_metrics(
                    records, traced["surfaces"], jobs, traced["output_bytes"])
                layer["trace.overhead_frac"] = (
                    traced["body_s"] / plain["body_s"] - 1)
                layer_rounds.append(layer)
            traced_rounds.append(traced)
        rounds.append(plain)
        round_s = time.monotonic() - began

    ops = sum(r["ops"] for r in rounds + traced_rounds)
    failed = sum(r["failed"] for r in rounds + traced_rounds)
    clean = [r for r in rounds if not r["failed"] and r["body_s"] > 0]
    if trace:
        declared = SPEC["per_layer"]
        metrics = {m["name"]: statistics.median(lr[m["name"]] for lr in
                                                layer_rounds)
                   if layer_rounds else 0 for m in declared}
    else:
        declared = SPEC["end_to_end"]
        surfaces = sum(r["surfaces"] for r in clean)
        # Totals over rounds, not medians: the host's speed drifts between
        # a few levels for seconds at a time, and a median jumps between
        # them where a total moves with the share of time spent in each.
        metrics = {
            "surfaces_per_s": surfaces / sum(r["body_s"] for r in clean)
            if clean else 0,
            "cpu_s": statistics.mean(r["cpu_s"] for r in clean) if clean else 0,
            "peak_rss_mb": statistics.median(
                r["peak_rss_kb"] / 1024 for r in clean) if clean else 0,
            "setup_s": statistics.median(setups) if setups else 0,
            "checks_per_surface": (
                sum(r["checks"] for r in clean) / surfaces if surfaces else 0),
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "rounds": len(rounds),
        "jobs": jobs,
        "sizes": {"knots_per_round": [r["ops"] for r in rounds],
                  "surfaces_per_round": [r["surfaces"] for r in rounds]},
        "per_round": [{k: r[k] for k in ("body_s", "cpu_s", "peak_rss_kb")}
                      for r in rounds],
        "setups": setups,
        "attempted": ops,
        "failed": failed,
        "ops_failed_frac": failed / ops if ops else 1.0,
        "failures": [f for r in rounds + traced_rounds
                     for f in r["failures"]][:5],
        "wall_s": time.monotonic() - start,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
        **environment(),
    }


def environment() -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, check=True).stdout)
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": sha, "git_dirty": dirty, "nproc": os.cpu_count(),
            "affinity": pool_jobs(), "cpu_model": cpu_model,
            "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bridgestate" / "cli.py").is_file():
        print(f"perfbench: no bridgestate sources under {SRC}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, entry in record["metrics"].items():
        print(f"{metric} = {entry['value']} {entry['unit']}")
    print(f"ops_failed_frac = {record['ops_failed_frac']} ratio")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"] if record["attempted"] else 1,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
