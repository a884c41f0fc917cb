"""The library exports only what the program, the benchmark or the README uses.

Every public top-level function of `src/flowcast` must be referenced by an
identifier token somewhere in the code under `src/` or `perfbench/` (the name
its own `def` introduces does not count) or by name on a line of the README.
Every public method of a top-level class must appear as an attribute access
`.name`, in that code or in the README. Comments and strings are not code
tokens, so a name that only they mention is unreferenced. A name that only
tests call belongs in the tests. The check is by name, so a method that shares
its name with another attribute passes once either is used.
"""

import ast
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flowcast"

# Kept on purpose although nothing outside the tests references them.
ALLOWED = {
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


def _code_references() -> tuple[set[str], set[str]]:
    """(identifiers, attribute names) used by the code under src/ and perfbench/."""
    names, attributes = set(), set()
    files = sorted(PACKAGE.parent.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    skip = {tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT}
    for path in files:
        with open(path, "rb") as fh:
            previous = ""
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME and previous != "def":
                    names.add(tok.string)
                    if previous == ".":
                        attributes.add(tok.string)
                if tok.type not in skip:
                    previous = tok.string
    return names, attributes


def test_every_public_name_is_referenced_outside_tests():
    names, attributes = _code_references()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for qualified, name in _public_surface():
        if qualified in ALLOWED:
            continue
        if "." in qualified:  # a method: only an attribute access refers to it
            used = name in attributes or re.search(rf"\.{re.escape(name)}\b", readme)
        else:
            used = name in names or re.search(rf"\b{re.escape(name)}\b", readme)
        if not used:
            unused.append(qualified)
    assert not unused, f"public names referenced only by tests (or nothing): {unused}"


def test_allowlist_names_exist():
    qualified = {q for q, _ in _public_surface()}
    assert set(ALLOWED) <= qualified, sorted(set(ALLOWED) - qualified)


def test_only_the_tables_module_imports_csv():
    """The CSV format lives in `flowcast.tables`; every other module reads and
    writes tables through `read_table` and `write_table`."""
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if "csv" in (m.split(".")[0] for m in modules) and path.name != "tables.py":
                importers.append(path.name)
    assert not importers, f"modules importing csv besides tables.py: {importers}"
