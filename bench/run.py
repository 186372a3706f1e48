"""qcover benchmark: time-to-answer of the CLI on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; qcover is imported from its ``src``.
One client runs one command at a time (a closed loop, one process, one
thread). Each repetition of the workload runs in a fresh process
(worker.py), so set-up and peak RSS are per repetition; repetitions
continue until the next one would end after T seconds, and at least
``MIN_REPS`` run. Every answer is checked; a nonzero or unexpected exit or
a failed check counts as a failed op.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the repetitions. Times are calibrated to the speed of a reference host
(worker.SpeedSampler), because the speed a shared CPU gives this process
swings by up to 2x within seconds; the report lines also give wall times.
``setup_s`` is the wall time from spawning a repetition's process until
the worker's first statement, plus the calibrated time of its imports and
input generation. ``--trace 1`` runs one untraced repetition and then
traced ones (at least two), and reports the per-layer metrics from the
traced repetitions; the exact counts must repeat between them, and
``trace.overhead_ratio`` is traced over untraced time-to-answer. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The lines before it are a readable report, including the host, and the
full record (with every repetition and the spans of traced ones) is kept
under ``.bench_work/results/``.

reference.json holds the sha256 of the outputs of seed 1 (and of the
seed-independent solve and bounds outputs); it is the ``digests`` field of
a seed-1 result, recorded at the commit that defined the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_REPS = 2
MIN_TRACED_REPS = 2
#: no repetition starts after this many seconds, so a run ends well within 180 s
HARD_STOP_S = 110.0
REP_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def host_info() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "loadavg_start": os.getloadavg(),
    }


def run_rep(workload: str, seed: int, trace: bool, work: Path, out: Path) -> dict:
    """Run one repetition in a fresh process; returns its result plus timing."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed",
           str(seed), "--workdir", str(work), "--trace", str(int(trace)), "--out", str(out)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S)
        error = proc.stderr[-2000:] if proc.returncode != 0 else ""
    except subprocess.TimeoutExpired:
        error = f"repetition exceeded {REP_TIMEOUT_S} s"
    wall = time.monotonic() - t_spawn
    if error or not out.is_file():
        return {"error": error or "worker wrote no result", "wall_s": wall, "traced": trace}
    rep = json.loads(out.read_text())
    rep.update(wall_s=wall, traced=trace,
               setup_s=rep["t_start"] - t_spawn + rep["setup_cal_s"],
               setup_wall_s=rep["t_ready"] - t_spawn,
               time_to_answer_s=sum(op["cal_s"] for op in rep["ops"]),
               time_to_answer_wall_s=sum(op["s"] for op in rep["ops"]))
    return rep


def median(xs):
    return statistics.median(xs) if xs else 0.0


def summarize(xs) -> str:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    xs = sorted(xs)
    text = f"median {median(xs):.6g}"
    if len(xs) > 10:
        k = len(xs) - 10
        text += f", p{100 * k / len(xs):.0f} {xs[k - 1]:.6g}"
    return text + f", n={len(xs)}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "qcover" / "cli.py").is_file():
        print(f"error: no qcover sources under {SRC}; run from a qcover checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    host = host_info()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = ROOT / ".bench_work" / "results" / tag
    work = ROOT / ".bench_work" / f"tmp-{os.getpid()}"
    shutil.rmtree(results, ignore_errors=True)
    results.mkdir(parents=True)
    reps = []
    start = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(reps) > 0  # trace runs: first rep untraced
            reps.append(run_rep(args.workload, args.seed, traced, work,
                                results / f"rep{len(reps)}.json"))
            now = time.monotonic() - start
            done = [r for r in reps if r["traced"] == bool(args.trace)]
            enough = len(done) >= (MIN_TRACED_REPS if args.trace else MIN_REPS)
            typical = median([r["wall_s"] for r in reps[-3:]])
            if (enough and now + typical > args.seconds) or now > HARD_STOP_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host["loadavg_end"] = os.getloadavg()

    ok_reps = [r for r in reps if "error" not in r]
    attempted = sum(len(r["ops"]) for r in ok_reps) + (len(reps) - len(ok_reps))
    failed = len(reps) - len(ok_reps)
    lines = [f"host: {json.dumps(host)}"]
    for i, r in enumerate(reps):
        if "error" in r:
            lines.append(f"rep {i}: FAILED: {r['error'].strip()[-300:]}")
            continue
        for op in r["ops"]:
            failed += bool(op["problems"])
            status = "ok" if not op["problems"] else "FAILED: " + "; ".join(op["problems"])
            lines.append(f"rep {i}{' traced' if r['traced'] else ''}: {op['label']}: "
                         f"{op['cal_s']:.4f} s (wall {op['s']:.4f} s), exit {op['rc']}, "
                         f"{status}")
    correct = failed == 0

    plain = [r for r in ok_reps if not r["traced"]]
    traced = [r for r in ok_reps if r["traced"]]
    if args.trace:
        metrics, problems = layer_metrics(traced, plain)
        for p in problems:
            lines.append(f"FAILED: {p}")
        correct = correct and not problems and len(traced) >= MIN_TRACED_REPS
        wanted = spec["per_layer"]
    else:
        metrics = {m["name"]: median([r[m["name"]] for r in plain]) for m in spec["end_to_end"]}
        lines += command_report(args.workload, plain, attempted, failed)
        wanted = spec["end_to_end"]
    out = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    for name, v in out.items():
        note = " (computed: sum of q^n*n*steps)" if name == "hamming.expand_cells" else ""
        lines.append(f"{args.workload}: {name} = {v['value']:.6g} {v['unit']}{note}")
    summary = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
               "metrics": out}
    (results / "report.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host,
         "reps": reps, **summary}, indent=1))
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


def command_report(workload: str, reps: list, attempted: int, failed: int) -> list:
    """The readable per-command report: each timing with median, tail and count."""
    lines = []
    for name in dict.fromkeys(op["metric"] for r in reps for op in r["ops"]):
        xs = [sum(op["cal_s"] for op in r["ops"] if op["metric"] == name) for r in reps]
        lines.append(f"{workload}: {name}: {summarize(xs)} s")
    for name, unit in (("time_to_answer_s", "s"), ("time_to_answer_wall_s", "s"),
                       ("setup_s", "s"), ("setup_wall_s", "s"), ("speed_mean", "x"),
                       ("peak_rss_mb", "MB")):
        lines.append(f"{workload}: {name}: {summarize([r[name] for r in reps])} {unit}")
    if workload == "construct-verify" and reps:
        q = reps[0]["quality"]
        lines.append(f"{workload}: code_size = {sum(q['code_size'])} words (exact per seed)")
        lines.append(f"{workload}: density_mean = {statistics.mean(q['density']):.6f}")
    lines.append(f"{workload}: failed_ops_frac = {failed / max(attempted, 1):.4f} "
                 f"({failed} of {attempted})")
    return lines


def layer_metrics(traced: list, plain: list):
    """Per-layer metrics over the traced reps, and the problems found."""
    from tracing import EXACT_COUNTS

    problems = []
    if not traced:
        return {}, ["no traced repetition completed"]
    first = traced[0]["layers"]
    for r in traced[1:]:
        for key in EXACT_COUNTS:
            if r["layers"][key] != first[key]:
                problems.append(f"{key} did not repeat: {first[key]} vs {r['layers'][key]}")
    metrics = {k: (first[k] if isinstance(first[k], int) else
                   median([r["layers"][k] for r in traced])) for k in first}
    untraced = median([r["time_to_answer_s"] for r in plain])
    metrics["trace.overhead_ratio"] = (
        median([r["time_to_answer_s"] for r in traced]) / untraced if untraced else 0.0)
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
