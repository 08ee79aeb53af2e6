"""The library has no runtime dependency: it imports only itself and the
standard library, and ``pyproject.toml`` declares no dependency."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skelrecon"

# CPython's built-in SHA-256 module, _sha256, became _sha2 in 3.12, and
# sys.stdlib_module_names lists only the name its own version ships.
SHA256_MODULES = {"_sha2", "_sha256"}


def test_library_imports_only_itself_and_the_standard_library():
    stdlib = set(sys.stdlib_module_names)
    # either name is the standard library's as long as the other one is
    assert SHA256_MODULES & stdlib
    stdlib |= SHA256_MODULES
    foreign = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in stdlib:
                    foreign.append(f"{path.relative_to(ROOT)}:{node.lineno} imports {name}")
    assert foreign == []


def test_pyproject_declares_no_dependency():
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.S | re.M).group(1)
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.S | re.M)
    assert deps is not None and deps.group(1).strip() == ""
