"""Benchmark of cohwalk: one workload, measured end to end or per layer.

    python3 cohbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's operations (see
``workloads.py``) form one round.  Each round runs in a fresh Python
process (``worker.py``), one operation after the other, with nothing
else running: a closed loop with one caller.  Rounds repeat until
``--seconds`` have passed (at least ``MIN_ROUNDS``), so every run
attempts whole rounds.  After the last round this process checks every
output against ``checks.py`` and prints one JSON line:

* ``--trace 0``: the end-to-end metrics, medians over the rounds;
* ``--trace 1``: the per-layer metrics, medians over the traced rounds.
  Traced and untraced rounds alternate, and ``trace.overhead_s`` is the
  difference of their median ``wall_s``.

Metric names and units come from ``BENCHMARK.json`` at the root.
Round outputs, and every round's record with its per-operation times,
stay in ``.cohbench_runs/<workload>-trace<0|1>/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4  # two traced, two untraced
ROUND_TIMEOUT_S = 150


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_round(run_dir, index, traced):
    """Spawn one worker round and return its record."""
    round_dir = os.path.join(run_dir, f"round{index}")
    os.makedirs(round_dir)
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "worker.py"), round_dir]
    if traced:
        cmd.append("--trace")
    spawned = _clock()
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
    with open(os.path.join(round_dir, "stderr.txt"), "w") as handle:
        handle.write(proc.stderr)
    record_path = os.path.join(round_dir, "round.json")
    if proc.returncode != 0 or not os.path.exists(record_path):
        raise RuntimeError(f"round {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(record_path) as handle:
        record = json.load(handle)
    record["dir"] = round_dir
    record["traced"] = traced
    record["setup_s"] = record["ready"] - spawned
    if traced:
        record["layers"].update(tracer.import_times(proc.stderr))
        record["layers"]["cli.bytes_out"] = sum(
            os.path.getsize(os.path.join(round_dir, name))
            for name in os.listdir(round_dir) if name.endswith((".csv", ".json"))
            and name != "round.json")
    return record


def output_of(op, record):
    if op["kind"] != "cli":
        return record["results"][op["id"]]
    with open(os.path.join(record["dir"], f"{op['id']}.{op['format']}")) as handle:
        return handle.read()


def verify(ops, rounds):
    """Check every output of every round; return (failed count, problems)."""
    failed, problems, verdicts, first_table = 0, [], {}, {}
    for record in rounds:
        for op in ops:
            code = record["codes"][op["id"]]
            if code != 0:
                failed += 1
                if record is rounds[0]:
                    why = op.get("known_fault", "not a known fault")
                    print(f"failed: {op['id']} exit {code} ({why})", file=sys.stderr)
                continue
            output = output_of(op, record)
            key = (op["id"], json.dumps(output, sort_keys=True))
            if key not in verdicts:
                verdicts[key] = checks.check(op, output)
            problems += [f"{op['id']}: {p}" for p in verdicts[key]]
            if op.get("command") == "mc":
                # a seeded Monte Carlo table is bit-identical on every run
                if first_table.setdefault(op["id"], output) != output:
                    problems.append(f"{op['id']}: table differs between rounds")
    return failed, problems


def end_to_end(rounds):
    return {name: statistics.median(r[name] for r in rounds)
            for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}


def per_layer(rounds):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(r["wall_s"] for r in plain)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cohwalk", "cli.py")):
        print(f"error: no cohwalk sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    ops = workloads.build(args.workload, args.seed)
    run_dir = os.path.join(ROOT, ".cohbench_runs", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "ops.json"), "w") as handle:
        json.dump(ops, handle)

    rounds, start = [], _clock()
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    while len(rounds) < min_rounds or _clock() - start < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 0
        rounds.append(run_round(run_dir, len(rounds), traced))

    failed, problems = verify(ops, rounds)
    for problem in problems:
        print(f"wrong: {problem}", file=sys.stderr)
    values = per_layer(rounds) if args.trace else end_to_end(rounds)
    with open(os.path.join(run_dir, "rounds.json"), "w") as handle:
        json.dump(rounds, handle, indent=1)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": len(ops) * len(rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
