"""The library exports only what the program, the benchmark or the README uses.

Every public top-level function and every public method of a top-level class
in `src/flowcast` must be referenced by name somewhere under `src/` or
`perfbench/` (its own `def` line does not count) or on a line of the README.
A name that only tests call belongs in the tests. The check is by name, so a
method that shares its name with another callable passes once either is used.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flowcast"

# Kept on purpose although nothing outside the tests references them.
ALLOWED = {
    "CsrMatrix.from_dense": "the dense-to-CSR counterpart of to_dense; "
                            "tests build every small graph with it",
    "read_assignment_csv": "reader of the documented assignment.csv artifact "
                           "that write_assignment_csv produces",
    "SubgraphBundle.owned_global": "the owned side of the halo flags, which the "
                                   "partition tests check covers every node once",
    "TrainReport.train_curve": "per-epoch training loss of a run report",
    "TrainReport.valid_curve": "per-epoch validation loss of a run report",
    "SyntheticScenario.congested_flow_for_speed": "ground truth of the synthetic "
                                                  "generator that acceptance 06 checks",
    "congested_core_ticks": "ground truth of the synthetic generator that "
                            "acceptance 06 checks",
}


def _public_surface() -> list[tuple[str, str]]:
    """(qualified name, bare name) for each public function and method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    out.append((node.name, node.name))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not member.name.startswith("_")):
                        out.append((f"{node.name}.{member.name}", member.name))
    return out


def _reference_lines() -> list[str]:
    files = sorted(PACKAGE.parent.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    lines = [line for p in files for line in p.read_text(encoding="utf-8").splitlines()]
    return lines + (ROOT / "README.md").read_text(encoding="utf-8").splitlines()


def test_every_public_name_is_referenced_outside_tests():
    lines = _reference_lines()
    unused = []
    for qualified, name in _public_surface():
        if qualified in ALLOWED:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(async\s+)?def\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(qualified)
    assert not unused, f"public names referenced only by tests (or nothing): {unused}"


def test_allowlist_names_exist():
    qualified = {q for q, _ in _public_surface()}
    assert set(ALLOWED) <= qualified, sorted(set(ALLOWED) - qualified)
