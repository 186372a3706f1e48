"""One repetition of one workload, in a fresh process.

Started by run.py with qcover's ``src`` on PYTHONPATH and the numeric
libraries pinned to one thread. Set-up (imports plus input generation) runs
from ``t_start`` to ``t_ready``, CLOCK_MONOTONIC readings the parent
compares with its own spawn time. Then each command runs through
``qcover.cli.main`` in turn, one at a time, and is timed end to end. Peak
RSS is read before the answers are checked, so checking does not count
against the program. The result goes to ``--out`` as JSON.

Every time is recorded twice: as wall time and calibrated to the speed of
the reference host (see ``SpeedSampler``). The host's CPUs are shared with
other machines' work, and the speed this process gets from its CPU swings
by up to 2x within seconds, with CPU time tracking wall time; a ten-second
command can run at either speed or both. Calibrated times take that swing
out, so they are what run.py reports as end-to-end metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path


#: How often the speed of the CPU is sampled while the program runs.
SAMPLE_PERIOD_S = 0.02
#: Typical duration of one warm ``_probe`` call on the reference host, a
#: shared 2-vCPU Xeon at 2.1 GHz with Python 3.11, at its faster speed;
#: calibrated times are in seconds of that host. On other hosts only ratios
#: of calibrated times carry meaning.
PROBE_REF_S = 50e-6

_PROBE_TABLE = {i: i for i in range(64)}


def _probe() -> int:
    """A fixed piece of interpreter work (about 50 us) independent of qcover."""
    s = 0
    for i in range(400):
        s += _PROBE_TABLE[(i * 7) & 63] + len((i, s & 3))
    return s


class SpeedSampler:
    """Samples the speed this process gets from its CPU while it works.

    Every ``SAMPLE_PERIOD_S`` of wall time a timer signal interrupts the
    program, between two bytecodes, and times a warm call of ``_probe``.
    An interval between two ``reading()``s is then worth, at reference
    speed, its wall time less the time spent probing, times the mean of
    ``PROBE_REF_S / probe duration`` over the samples taken in it. A small
    interpreter loop was the probe that tracked qcover's commands best: on
    the reference host, over two minutes of repeated ``solve`` and ``bounds
    table`` commands, it cut the spread between their quartiles from
    0.36-0.51 of the median to 0.03-0.05, against 0.09-0.2 for probes over a
    large list or a numpy gather. The probe costs under 1% of the time.
    """

    def __init__(self):
        self.samples = 0
        self.probe_s = 0.0
        self.speed_sum = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.monotonic()
        _probe()  # warms the probe's code and data after the program ran
        mid = time.monotonic()
        _probe()
        end = time.monotonic()
        self.samples += 1
        self.probe_s += end - start
        self.speed_sum += PROBE_REF_S / (end - mid)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reading(self) -> tuple:
        """(monotonic time, samples, probe time, speed sum), read atomically."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.monotonic(), self.samples, self.probe_s, self.speed_sum
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    @staticmethod
    def calibrated(before: tuple, after: tuple) -> float:
        """Seconds at reference speed between two readings; an interval with
        no sample (under ``SAMPLE_PERIOD_S``) counts at wall time."""
        wall = after[0] - before[0] - (after[2] - before[2])
        samples = after[1] - before[1]
        return wall * (after[3] - before[3]) / samples if samples else wall


def run_plan(plan, main, speed: SpeedSampler = None) -> list:
    """Time each op of the plan; returns one record per op (unchecked).
    Without a running ``speed`` sampler the calibrated time is wall time."""
    records = []
    for op in plan.ops:
        if op.before is not None:
            op.before()
        out = io.StringIO()
        before = speed.reading() if speed else None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                rc = main(op.argv)
            except Exception:  # a crash is a failed op, not a lost repetition
                traceback.print_exc()
                rc = -1
        elapsed = time.perf_counter() - start
        cal = SpeedSampler.calibrated(before, speed.reading()) if speed else elapsed
        records.append({"metric": op.metric, "label": op.label, "s": elapsed, "cal_s": cal,
                        "rc": rc,
                        "stdout": out.getvalue(),
                        "io_bytes": sum(p.stat().st_size for p in op.files if p.is_file())})
    return records


def check_plan(plan, records, reference) -> None:
    """Attach to each op's record the problems its check and digests found."""
    from workloads import OpResult, digest_problems

    for op, rec in zip(plan.ops, records):
        rec["problems"] = op.check(OpResult(rec["rc"], rec["stdout"]))
        rec["problems"] += digest_problems(op.artifacts, reference)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    speed = SpeedSampler()
    speed.start()
    setup_start = speed.reading()

    import workloads
    from qcover import cli

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    plan = workloads.WORKLOADS[args.workload](args.seed, work)
    setup_end = speed.reading()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        # cli.main is looked up after install so its root span is recorded
        records = run_plan(plan, lambda argv: cli.main(argv), speed)
    finally:
        speed.stop()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_plan(plan, records, workloads.REFERENCE)
    result = {
        "t_start": setup_start[0],
        "t_ready": setup_end[0],
        "setup_cal_s": SpeedSampler.calibrated(setup_start, setup_end),
        "speed_samples": speed.samples,
        "speed_mean": speed.speed_sum / max(speed.samples, 1),
        "peak_rss_mb": peak_rss_mb,
        "ops": [{k: v for k, v in r.items() if k != "stdout"} for r in records],
        "quality": plan.quality,
        "digests": {name: workloads.sha256(p) for op in plan.ops
                    for name, p in op.artifacts.items() if p.is_file()},
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["layers"]["cli.io_bytes"] = sum(r["io_bytes"] for r in records)
        Path(args.out).with_suffix(".spans.json").write_text(json.dumps(tracer.dump_spans()))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
