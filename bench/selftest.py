"""Self-test of the benchmark's output checks, on tiny inputs.

    python3 bench/selftest.py

Runs every workload once in this process on tiny inputs (n=12, K_2(4,1),
R=3..10, 5 samples) and requires every check to pass. Then it corrupts one
answer at a time (exit code, stdout or an output file) and requires the
check of that command to count it as failed with the expected complaint.
Exits 0 when the clean runs pass and every corruption is caught.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import EXACT_COUNTS  # noqa: E402
from worker import check_plan, run_plan  # noqa: E402
from workloads import OpResult, digest_problems  # noqa: E402

SEED = 3


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _edit_lines(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def _swap_first_words(obj) -> None:
    obj["words"][0], obj["words"][1] = obj["words"][1], obj["words"][0]


def _bump_k_size(obj) -> None:
    obj["levels"][0]["k_size"] += 1


def _set_cell(lines, R: int, col: int, fn) -> None:
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == str(R):
            cells[col] = repr(fn(float(cells[col]), cells))
            lines[i] = ",".join(cells)


def _stdout(rc: int, text: str):
    return lambda res, files: OpResult(rc, text)


def _file(name: str, edit, json_file: bool = True):
    def corrupt(res, files):
        (_edit_json if json_file else _edit_lines)(files[name], edit)
        return res
    return corrupt


def corruptions():
    """(workload, op index, what is corrupted, expected complaint, corrupt)."""
    return [
        ("construct-verify", 0, "a codeword dropped from the code file", "total_size",
         _file("q2-n12.json", lambda o: o["words"].pop(0))),
        ("construct-verify", 0, "code words out of order", "not distinct, sorted",
         _file("q2-n12.json", _swap_first_words)),
        ("construct-verify", 0, "a trace level's k_size", "k_size",
         _file("q2-n12.trace.json", _bump_k_size)),
        ("construct-verify", 0, "one extra byte in the code file", "sha256",
         _file("q2-n12.json", lambda ls: ls.append(""), json_file=False)),
        ("construct-verify", 1, "verify rejects a covering code", "exit code 1",
         _stdout(1, "uncovered: witness 000000000000\n")),
        ("construct-verify", 4, "negative control: verifier always says covered",
         "exit code 0", _stdout(0, "covered\n")),
        ("construct-verify", 4, "negative control: witness after the dropped word",
         "is not <= the dropped word", _stdout(1, "uncovered: witness 222222\n")),
        ("construct-verify", 4, "negative control: witness the code covers",
         "is covered by the punctured code",
         lambda res, f: OpResult(1, "uncovered: witness "
                                 + json.loads(f["q3-n6.punctured.json"].read_text())["words"][0]
                                 + "\n")),
        ("solve", 0, "optimum size", "expected 4",
         _file("solve-q2-n4-R1.json", lambda o: o.update(optimal_size=5))),
        ("solve", 0, "status", "status", _file("solve-q2-n4-R1.json",
                                               lambda o: o.update(status="budget_exceeded"))),
        ("solve", 0, "canonical flag", "canonical",
         _file("solve-q2-n4-R1.json", lambda o: o.update(canonical=False))),
        ("solve", 0, "a code that does not cover", "does not cover",
         _file("solve-q2-n4-R1.json",
               lambda o: o["code"].update(words=["0000", "0001", "0010", "0011"]))),
        ("bounds-table", 0, "bound_opt above cor_new at R=6", "> cor_new",
         _file("bounds.csv", lambda ls: _set_cell(ls, 6, 4, lambda v, c: float(c[5]) * 1.01),
               json_file=False)),
        ("bounds-table", 0, "x_opt moved at R=4", "parametric_bound",
         _file("bounds.csv", lambda ls: _set_cell(ls, 4, 2, lambda v, c: v * 1.001),
               json_file=False)),
        ("bounds-table", 0, "a missing row", "rows are not",
         _file("bounds.csv", lambda ls: ls.pop(3), json_file=False)),
        ("verify-sampled", 0, "sampled verify reports a witness", "exit code 1",
         _stdout(1, "uncovered: witness 000000000000\n")),
        ("verify-sampled", 0, "sampled verify ran too few samples", "stdout lacks",
         _stdout(0, "no-counterexample after 4 samples (not a covering proof)\n")),
    ]


def main() -> int:
    from qcover import cli

    caught = total = 0
    ok = True
    scratch = BENCH.parent / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        runs = {}
        for name, build in workloads.WORKLOADS.items():
            work = Path(tmp) / name
            work.mkdir()
            plan = build(SEED, work, tiny=True)
            recs = run_plan(plan, cli.main)
            clean = {n: workloads.sha256(p) for op in plan.ops for n, p in op.artifacts.items()}
            check_plan(plan, recs, clean)
            bad = [f"{r['label']}: {p}" for r in recs for p in r["problems"]]
            print(f"clean {name}: {'ok' if not bad else 'FAILED ' + '; '.join(bad)}")
            ok = ok and not bad
            runs[name] = (plan, recs, clean, {p.name: p for p in work.iterdir()})

        for name, index, what, expect, corrupt in corruptions():
            plan, recs, clean, files = runs[name]
            saved = {n: p.read_bytes() for n, p in files.items()}
            op, rec = plan.ops[index], recs[index]
            res = corrupt(OpResult(rec["rc"], rec["stdout"]), files)
            problems = op.check(res) + digest_problems(op.artifacts, clean)
            for n, data in saved.items():
                files[n].write_bytes(data)
            total += 1
            hit = any(expect in p for p in problems)
            caught += hit
            print(f"{'caught' if hit else 'MISSED'}: {name}: {op.label}: {what}"
                  f" -> {problems[:2]}")

    # Exact counts that differ between two traced repetitions are a failure.
    layers = {k: 1 for k in EXACT_COUNTS}
    reps = [{"layers": layers, "time_to_answer_s": 1.0},
            {"layers": dict(layers, **{"solver.nodes": 2}), "time_to_answer_s": 1.0}]
    _, problems = run.layer_metrics(reps, reps[:1])
    total += 1
    hit = any("solver.nodes did not repeat" in p for p in problems)
    caught += hit
    print(f"{'caught' if hit else 'MISSED'}: trace: solver.nodes differs between traced reps")

    print(f"corrupted answers counted as failed: {caught} of {total}")
    return 0 if ok and caught == total else 1


if __name__ == "__main__":
    sys.exit(main())
