"""Package layering: no module under ``src/repro/<pkg>/`` imports an
underscore-prefixed name from a different ``repro.<pkg>``."""

import ast
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).parent


def test_no_private_imports_across_packages():
    violations = []
    for path in sorted(ROOT.glob("*/**/*.py")):
        package = path.relative_to(ROOT).parts[0]
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            parts = (node.module or "").split(".")
            if parts[0] != "repro" or len(parts) < 2 or parts[1] == package:
                continue
            violations += [
                f"{path.relative_to(ROOT)}: {node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert not violations, "\n".join(violations)
