"""The public surface: the names `qcover` exports and the names bench/ patches."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import qcover

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: Every public name of the package. Adding or removing one is an API change,
#: so it is made here on purpose.
PUBLIC_NAMES = [
    "BoundParams",
    "Code",
    "ConstructionTrace",
    "CoverVerdict",
    "DEFAULT_ENUMERATION_GUARD",
    "DominationFailure",
    "DominationResult",
    "EXACT_SOLVER_GUARD",
    "HammingSpace",
    "InfeasibleParamsError",
    "OptimizationResult",
    "SampleVerdict",
    "SolveResult",
    "SpaceTooLargeError",
    "Word",
    "ball_volume",
    "classic_bound",
    "closed_form_bound",
    "closed_form_chain_check",
    "code_from_dict",
    "code_to_dict",
    "density",
    "dominating_partial",
    "feasibility",
    "greedy_ball_cover",
    "hamming_distance",
    "index_word",
    "minimal_covering_code",
    "nested_parametric_bound",
    "optimize_parametric_bound",
    "parametric_bound",
    "read_code",
    "recursive_construct",
    "verify_covering",
    "verify_covering_sampled",
    "word_index",
]


def test_public_names_are_pinned():
    # submodules become package attributes once imported, so they are not names
    public = sorted(
        name
        for name, value in vars(qcover).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES


def _importable(module, name):
    """Whether ``from module import name`` succeeds."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_names_the_benchmark_uses_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.TIMED + tracing.COUNTED:
        importlib.import_module(f"qcover.{module}")
        _, _, fn = tracing._resolve(module, attr)
        assert callable(fn), (module, attr)
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qcover"):
                for alias in node.names:
                    where = (path.name, node.module, alias.name)
                    assert _importable(node.module, alias.name), where
