"""The README's citations resolve: every test id it cites in backticks is
a function defined under ``tests/``, and every step it cites as the CI
step "NAME" is a step of the CI workflow."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cited_test_ids(readme: str) -> set[str]:
    return set(re.findall(r"`(test_\w+)[^`]*`", readme))


def cited_ci_steps(readme: str) -> set[str]:
    # A quote may span a line break; its words are joined by one space.
    quotes = re.findall(r'the\s+CI\s+step\s+"([^"]+)"', readme)
    return {" ".join(q.split()) for q in quotes}


def defined_functions() -> set[str]:
    names = set()
    for path in (ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
    return names


def workflow_step_names() -> set[str]:
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    return {m.strip() for m in re.findall(r"^\s*(?:-\s+)?name:\s*(.+)$", workflow, re.M)}


README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_cites_only_defined_tests():
    cited = cited_test_ids(README)
    assert cited
    assert sorted(cited - defined_functions()) == []


def test_readme_cites_only_workflow_steps():
    cited = cited_ci_steps(README)
    assert cited
    assert sorted(cited - workflow_step_names()) == []
