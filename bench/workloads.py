"""The four benchmark workloads: their inputs, the CLI commands they time,
and the checks every answer must pass.

A workload's ``plan`` runs inside one repetition's process. It generates
the inputs from the seed (this is part of set-up) and returns the commands
to time, in order. Each command carries the check its output must pass.
Checks read only the exit code, the captured stdout and the files the
command wrote, so the self-test can corrupt any of these and re-check.

The checks are independent of the code under test where it matters: the
trace bookkeeping, the code-file shape and the negative control's distance
scan use only ``json``, ``hashlib`` and numpy. The solver's answer is
re-verified with qcover's exhaustive verifier and the bound table is
re-evaluated with ``parametric_bound``, as the answers' own definitions
require.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

#: sha256 of the outputs of seed 1 and of the seed-independent outputs,
#: keyed by artifact name; names with another seed are not checked
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

X_R2 = 2 * math.log(2) + 2  # x for R=2, y=2: feasible since x > 2 ln 2
X_R1 = math.log(2) + 2  # x for R=1, y=2


@dataclass
class OpResult:
    rc: int
    stdout: str


@dataclass
class Op:
    """One timed CLI command and the check of its answer."""

    metric: str  # the per-command timing it counts towards, e.g. construct_s
    label: str
    argv: List[str]
    check: Callable[[OpResult], List[str]]
    #: untimed preparation run just before the command (builds its input)
    before: Optional[Callable[[], None]] = None
    #: files the command reads or writes, for cli.io_bytes
    files: List[Path] = field(default_factory=list)
    #: artifact name -> file whose sha256 is compared with reference.json
    #: when the name is recorded there
    artifacts: Dict[str, Path] = field(default_factory=dict)


@dataclass
class Plan:
    ops: List[Op]
    #: quality figures filled in by the checks (code_size, density)
    quality: Dict[str, list] = field(default_factory=dict)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_problems(artifacts: Dict[str, Path], reference: Dict[str, str]) -> List[str]:
    problems = []
    for name, path in artifacts.items():
        want = reference.get(name)
        if want is not None and path.is_file() and sha256(path) != want:
            problems.append(f"{name}: sha256 differs from the reference digest")
    return problems


def _words_array(words: List[str], n: int) -> np.ndarray:
    """Digit-string codewords (the q <= 10 file format) as a (|K|, n) array."""
    flat = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    return (flat.reshape(len(words), n) - ord("0")).astype(np.int16)


def min_distance(words: np.ndarray, w) -> int:
    """Smallest Hamming distance from word ``w`` to the rows of ``words``."""
    if len(words) == 0:
        return 1 << 30
    return int((words != np.asarray(w, dtype=np.int16)).sum(axis=1).min())


def _ball_volume(q: int, n: int, R: int) -> int:
    return sum((q - 1) ** i * math.comb(n, i) for i in range(min(R, n) + 1))


def _expect_line(res: OpResult, rc: int, line: str) -> List[str]:
    problems = []
    if res.rc != rc:
        problems.append(f"exit code {res.rc}, expected {rc}")
    if line not in res.stdout.splitlines():
        problems.append(f"stdout lacks {line!r}")
    return problems


# ---------------------------------------------------------------------------
# construct-verify
# ---------------------------------------------------------------------------


def check_construct(res: OpResult, q: int, n: int, R: int, code_path: Path,
                    trace_path: Path, quality: Dict[str, list]) -> List[str]:
    """Exit 0; code file canonical and consistent with the per-level trace."""
    if res.rc != 0:
        return [f"exit code {res.rc}, expected 0"]
    problems = []
    try:
        code = json.loads(code_path.read_text())
        trace = json.loads(trace_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    words = code.get("words", [])
    if (code.get("q"), code.get("n")) != (q, n):
        problems.append(f"code file is over [{code.get('q')}]^{code.get('n')}")
    if any(len(w) != n for w in words) or any(a >= b for a, b in zip(words, words[1:])):
        problems.append("code words are not distinct, sorted, length-n strings")
    for lv in trace.get("levels", []):
        want = lv["x_size"] * q ** lv["r"] + lv["nbar_size"] * lv["k2_size"]
        if lv["k_size"] != want:
            problems.append(f"trace level n={lv['n']}: k_size {lv['k_size']} != {want}")
    if trace.get("total_size") != len(words):
        problems.append(f"trace total_size {trace.get('total_size')} != {len(words)} words")
    dens = trace.get("density", {})
    vol, space = _ball_volume(q, n, R), q**n
    if dens.get("numerator", 0) * space != len(words) * vol * dens.get("denominator", 1):
        problems.append("trace density != |K| * V / q^n")
    quality.setdefault("code_size", []).append(len(words))
    quality.setdefault("density", []).append(len(words) * vol / space)
    return problems


def check_covered(res: OpResult) -> List[str]:
    return _expect_line(res, 0, "covered")


def check_negative(res: OpResult, R: int, w: tuple, punctured_path: Path) -> List[str]:
    """verify must reject the punctured code with a witness <= w that the
    benchmark's own distance scan confirms is uncovered."""
    problems = []
    if res.rc != 1:
        problems.append(f"exit code {res.rc}, expected 1 (punctured code is not covering)")
    lines = [ln for ln in res.stdout.splitlines() if ln.startswith("uncovered: witness ")]
    if not lines:
        return problems + ["stdout names no witness"]
    text = lines[0].split("witness ", 1)[1].strip()
    try:
        witness = tuple(int(ch) for ch in text)
    except ValueError:
        return problems + [f"unparsable witness {text!r}"]
    if len(witness) != len(w):
        return problems + [f"witness {text} has the wrong length"]
    if witness > w:
        problems.append(f"witness {text} is not <= the dropped word")
    words = _words_array(json.loads(punctured_path.read_text())["words"], len(w))
    if min_distance(words, witness) <= R:
        problems.append(f"witness {text} is covered by the punctured code")
    return problems


def puncture(code_path: Path, out_path: Path, R: int, w: tuple) -> None:
    """Copy a code file without the codewords within R of w."""
    code = json.loads(code_path.read_text())
    words = code["words"]
    dist = (_words_array(words, len(w)) != np.asarray(w, dtype=np.int16)).sum(axis=1)
    code["words"] = [t for t, d in zip(words, dist) if d > R]
    out_path.write_text(json.dumps(code, sort_keys=True, indent=2) + "\n")


def plan_construct_verify(seed: int, work: Path, tiny: bool = False) -> Plan:
    instances = [(2, 12 if tiny else 22, 2, X_R2), (3, 6 if tiny else 12, 1, X_R1)]
    plan = Plan([])
    for q, n, R, x in instances:
        tag = f"q{q}-n{n}"
        code, trace = work / f"{tag}.json", work / f"{tag}.trace.json"
        plan.ops.append(Op(
            "construct_s", f"construct {tag}",
            ["construct", "--q", str(q), "--n", str(n), "--R", str(R), "--x", repr(x),
             "--y", "2", "--seed", str(seed), "--out", str(code), "--trace", str(trace)],
            lambda res, q=q, n=n, R=R, c=code, t=trace: check_construct(
                res, q, n, R, c, t, plan.quality),
            files=[code, trace],
            artifacts={f"seed{seed}/{tag}.json": code, f"seed{seed}/{tag}.trace.json": trace}))
        plan.ops.append(Op("verify_s", f"verify {tag}",
                           ["verify", "--code", str(code), "--R", str(R)], check_covered,
                           files=[code]))
    # Negative control on the q=3 code: drop every codeword within R of a
    # seeded word w, so w (and possibly smaller words) is left uncovered.
    q, n, R, _ = instances[1]
    rng = random.Random(f"negative-control:{seed}")
    w = tuple(rng.randrange(q) for _ in range(n))
    source, punctured = work / f"q{q}-n{n}.json", work / f"q{q}-n{n}.punctured.json"
    plan.ops.append(Op(
        "verify_s", f"verify q{q}-n{n} punctured",
        ["verify", "--code", str(punctured), "--R", str(R)],
        lambda res: check_negative(res, R, w, punctured),
        before=lambda: puncture(source, punctured, R, w),
        files=[punctured]))
    return plan


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def check_solve(res: OpResult, q: int, n: int, R: int, expected: int, out: Path) -> List[str]:
    """A proved, canonical optimum of the known size whose code covers."""
    from qcover.codes import code_from_dict, verify_covering

    if res.rc != 0:
        return [f"exit code {res.rc}, expected 0"]
    try:
        got = json.loads(out.read_text())
        code = code_from_dict(got["code"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable solve output: {exc}"]
    problems = []
    if got.get("optimal_size") != expected or len(code) != expected:
        problems.append(f"size {got.get('optimal_size')} ({len(code)} words), expected {expected}")
    if got.get("status") != "optimal":
        problems.append(f"status {got.get('status')!r}, expected 'optimal'")
    if got.get("canonical") is not True:
        problems.append("answer is not marked canonical")
    if (code.space.q, code.space.n) != (q, n) or not verify_covering(code, R).covered:
        problems.append("solver's code does not cover the space")
    return problems


def plan_solve(seed: int, work: Path, tiny: bool = False) -> Plan:
    # The inputs do not depend on the seed: K_q(n,R) has one answer.
    instances = [(2, 4, 1, 4)] if tiny else [(2, 6, 1, 12), (2, 7, 2, 7)]
    plan = Plan([])
    for q, n, R, expected in instances:
        tag = f"solve-q{q}-n{n}-R{R}"
        out = work / f"{tag}.json"
        plan.ops.append(Op(
            "solve_s", tag,
            ["solve", "--q", str(q), "--n", str(n), "--R", str(R), "--out", str(out)],
            lambda res, q=q, n=n, R=R, e=expected, o=out: check_solve(res, q, n, R, e, o),
            files=[out], artifacts={f"{tag}.json": out}))
    return plan


# ---------------------------------------------------------------------------
# verify-sampled
# ---------------------------------------------------------------------------


def plan_verify_sampled(seed: int, work: Path, tiny: bool = False) -> Plan:
    from qcover.cli import main

    # Each sample scans the sorted codewords up to the first one within R, so
    # the work varies with the seed: the scan length of one sample has a
    # coefficient of variation of about 0.8, which leaves a spread of about
    # 11% over seeds in the mean of 100 samples and about 6% at 300.
    n, samples = (12, 5) if tiny else (20, 300)
    code = work / f"q2-n{n}.json"
    argv = ["construct", "--q", "2", "--n", str(n), "--R", "2", "--x", repr(X_R2), "--y", "2",
            "--seed", str(seed), "--out", str(code), "--trace", str(work / "setup.trace.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            raise RuntimeError(f"set-up failed: qcover {' '.join(argv)}")
    line = f"no-counterexample after {samples} samples (not a covering proof)"
    return Plan(
        [Op("sampled_verify_s", f"verify q2-n{n} --sampled {samples}",
            ["verify", "--code", str(code), "--R", "2", "--sampled", str(samples),
             "--seed", str(seed)],
            lambda res: _expect_line(res, 0, line), files=[code],
            artifacts={f"seed{seed}/sampled-q2-n{n}.json": code})])


# ---------------------------------------------------------------------------
# bounds-table
# ---------------------------------------------------------------------------

BOUNDS_HEADER = ["R", "t_feas", "x_opt", "y_opt", "bound_opt", "cor_new", "cor_ksv_q2",
                 "cor_ksv_q3", "ratio_new_over_ksv2"]


def check_bounds(res: OpResult, r_min: int, r_max: int, out: Path) -> List[str]:
    """One row per R; the optimum beats the closed form for R >= 6 and is
    reproduced by parametric_bound at the reported (x, y)."""
    from qcover.bounds import BoundParams, parametric_bound

    if res.rc != 0:
        return [f"exit code {res.rc}, expected 0"]
    try:
        rows = list(csv.reader(io.StringIO(out.read_text())))
    except OSError as exc:
        return [f"unreadable table: {exc}"]
    problems = []
    if not rows or rows[0] != BOUNDS_HEADER:
        return ["table header differs"]
    body = rows[1:]
    if [r[0] for r in body] != [str(R) for R in range(r_min, r_max + 1)]:
        problems.append(f"rows are not R = {r_min}..{r_max}")
    for row in body:
        try:
            R = int(row[0])
            x, y, opt, cor = (float(row[i]) for i in (2, 3, 4, 5))
        except (ValueError, IndexError):
            problems.append(f"malformed row {row[:1]}")
            continue
        if R >= 6 and not opt <= cor:
            problems.append(f"R={R}: bound_opt {opt} > cor_new {cor}")
        try:
            again = parametric_bound(BoundParams(R=R, x=x, y=y))
        except (ValueError, ArithmeticError) as exc:  # infeasible (x_opt, y_opt)
            again = f"an error: {exc}"
        if not (isinstance(again, float) and math.isclose(again, opt, rel_tol=1e-12)):
            problems.append(f"R={R}: parametric_bound(x_opt, y_opt) gives {again}, "
                            f"not bound_opt {opt}")
    return problems


def plan_bounds_table(seed: int, work: Path, tiny: bool = False) -> Plan:
    r_min, r_max = (3, 10) if tiny else (3, 200)
    out = work / "bounds.csv"
    return Plan(
        [Op("bounds_table_s", f"bounds table R={r_min}..{r_max}",
            ["bounds", "table", "--R-min", str(r_min), "--R-max", str(r_max), "--out", str(out)],
            lambda res: check_bounds(res, r_min, r_max, out), files=[out],
            artifacts={f"bounds-R{r_min}-{r_max}.csv": out})])


#: workload name -> function making its plan
WORKLOADS = {
    "construct-verify": plan_construct_verify,
    "solve": plan_solve,
    "verify-sampled": plan_verify_sampled,
    "bounds-table": plan_bounds_table,
}
