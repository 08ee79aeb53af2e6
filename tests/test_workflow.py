"""The CI workflow's pinned error texts resolve: every ``= "error: ..."``
comparison in it names a text that a test or a golden file under
``tests/`` holds, so a change to that text fails Tier-1 as well as the
CI step."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pinned_errors(workflow: str) -> set[str]:
    return set(re.findall(r'= "(error: [^"]*)"', workflow))


def texts_under_tests() -> list[str]:
    paths = [*(ROOT / "tests").rglob("*.py"), *(ROOT / "tests").rglob("*.json")]
    return [path.read_text(encoding="utf-8") for path in paths]


def test_every_error_text_the_workflow_pins_is_held_under_tests():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    pinned = pinned_errors(workflow)
    assert pinned
    held = texts_under_tests()
    assert sorted(text for text in pinned if not any(text in body for body in held)) == []
