"""Package layering, checked on the import statements themselves (at any
nesting depth, so a function-local import counts):

* no module under ``src/repro/<pkg>/`` imports an underscore-prefixed
  name from a different ``repro.<pkg>``;
* ``repro.obs`` imports nothing of ``repro`` above itself;
* ``repro.findings`` is a leaf: it imports nothing from ``repro``;
* ``repro.lint`` imports none of ``repro.core``, ``repro.delta`` and
  ``repro.service``: lint is a function of the snapshot alone;
* only ``repro.core.session`` and ``repro.service`` import
  ``repro.core.cache``;
* only ``repro.core.session`` reads a session's stage table, its
  stages' locks or the outputs it may take from its base: everyone else
  asks ``Session.computed`` and ``Session.base_output``;
* nothing outside ``repro.service`` imports ``repro.service``;
* ``repro/__main__.py`` is the only module outside ``repro.service``
  that builds an ``argparse.ArgumentParser``;
* no module outside ``repro.questions`` holds a literal collection of
  question names: what a question is, is declared once, in
  ``repro.questions.registry``;
* the ``REPRO_*`` environment variables the package reads are the
  README's "Environment variables" table, and no other one is named;
* ``build_universe`` is the one code that makes a route-space universe;
* outside ``repro.config``, only ``repro.routing.policy`` (the table of
  match and set rows) names a ``MatchKind`` or ``SetKind`` member;
* ``repro.routing`` imports nothing of ``repro.lint``.
"""

import ast
import pathlib
import re

import repro
from repro.questions.registry import QUESTIONS

ROOT = pathlib.Path(repro.__file__).parent


def _imports(path):
    """(module, names) for every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module or "", [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []


def _repro_imports(path):
    """Dotted ``repro...`` names ``path`` imports (``from repro import
    obs`` counts as ``repro.obs``)."""
    for module, names in _imports(path):
        if module == "repro":
            yield from (f"repro.{name}" for name in names)
        elif module.startswith("repro."):
            yield module


def test_no_private_imports_across_packages():
    violations = []
    for path in sorted(ROOT.glob("*/**/*.py")):
        package = path.relative_to(ROOT).parts[0]
        for module, names in _imports(path):
            parts = module.split(".")
            if parts[0] != "repro" or len(parts) < 2 or parts[1] == package:
                continue
            violations += [
                f"{path.relative_to(ROOT)}: {module}.{name}"
                for name in names
                if name.startswith("_")
            ]
    assert not violations, "\n".join(violations)


def test_obs_imports_nothing_above_it():
    violations = [
        f"{path.relative_to(ROOT)}: {module}"
        for path in sorted((ROOT / "obs").glob("**/*.py"))
        for module in _repro_imports(path)
        if module != "repro.obs" and not module.startswith("repro.obs.")
    ]
    assert not violations, "\n".join(violations)


def test_findings_is_a_leaf():
    assert list(_repro_imports(ROOT / "findings.py")) == []


def test_lint_imports_no_session_cache_or_delta():
    above = ("repro.core.", "repro.delta.", "repro.service.")
    violations = [
        f"{path.relative_to(ROOT)}: {module}"
        for path in sorted((ROOT / "lint").glob("**/*.py"))
        for module in _repro_imports(path)
        if f"{module}.".startswith(above)
    ]
    assert not violations, "\n".join(violations)


def test_only_the_session_and_the_service_import_the_cache():
    """The disk cache backs sessions built from text, nothing else: the
    parser, the delta engine, sweeps and questions work in memory."""
    importers = {
        str(path.relative_to(ROOT))
        for path in ROOT.glob("**/*.py")
        for module, names in _imports(path)
        if "repro.core.cache" in {module, *(f"{module}.{name}" for name in names)}
    }
    assert "core/session.py" in importers
    assert sorted(
        path for path in importers
        if path != "core/session.py" and not path.startswith("service/")
    ) == []


def test_only_the_session_reads_its_stage_table():
    private = {"_outputs", "_inherited", "_locks", "_stage"}
    table = {"STAGES", "TAKEN", "Stage", "BaseOutputs"}
    violations = []
    for path in sorted(ROOT.glob("**/*.py")):
        where = path.relative_to(ROOT)
        if str(where) == "core/session.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in private:
                violations.append(f"{where}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "repro.core.session":
                violations += [
                    f"{where}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name in table
                ]
    assert not violations, "\n".join(violations)


def test_only_the_service_imports_the_service():
    violations = [
        f"{path.relative_to(ROOT)}: {module}"
        for path in sorted(ROOT.glob("**/*.py"))
        if path.relative_to(ROOT).parts[0] != "service"
        for module in _repro_imports(path)
        if module == "repro.service" or module.startswith("repro.service.")
    ]
    assert not violations, "\n".join(violations)


def test_one_argument_parser_outside_the_service():
    builders = [
        str(path.relative_to(ROOT))
        for path in sorted(ROOT.glob("**/*.py"))
        if path.relative_to(ROOT).parts[0] != "service"
        and "ArgumentParser(" in path.read_text()
    ]
    assert builders == ["__main__.py"]
    mains = sorted(
        str(path.relative_to(ROOT)) for path in ROOT.glob("**/__main__.py")
    )
    assert mains == ["__main__.py", "service/__main__.py"]


def test_question_names_are_listed_only_in_the_registry():
    """A set, list, tuple or dict literal naming two or more questions is
    a second list of them; so are the retired hand-kept lists, the
    per-question ``_q_*`` handlers and the two private param parsers."""
    retired = re.compile(
        r"ROUTING_QUESTIONS|CONFIG_QUESTIONS|ASYNC_QUESTIONS|DEBUG_QUESTIONS"
        r"|def _q_|_param_hosts|_PROTOCOLS\b"
    )
    violations = []
    for path in sorted(ROOT.glob("**/*.py")):
        text = path.read_text()
        where = path.relative_to(ROOT)
        violations += [f"{where}: {name}" for name in retired.findall(text)]
        if where.parts[0] == "questions":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Dict):
                items = node.keys
            elif isinstance(node, (ast.Set, ast.List, ast.Tuple)):
                items = node.elts
            else:
                continue
            named = sorted(
                item.value
                for item in items
                if isinstance(item, ast.Constant) and item.value in QUESTIONS
            )
            if len(named) > 1:
                violations.append(f"{where}:{node.lineno}: {named}")
    assert not violations, "\n".join(violations)


def test_environment_variables_are_the_readme_table():
    """A variable is read where its name is a string of its own in the
    code (``os.environ.get("REPRO_JOBS")``); docstrings and comments may
    name it too, but only if it is read."""
    section = (ROOT.parents[1] / "README.md").read_text()
    section = section.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    table = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M))
    read, named = set(), set()
    for path in sorted(ROOT.glob("**/*.py")):
        text = path.read_text()
        named.update(re.findall(r"\bREPRO_[A-Z_]+", text))
        read.update(
            node.value
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"REPRO_[A-Z_]+", node.value)
        )
    assert len(table) == 5
    assert read == table
    assert named == table


def test_build_universe_alone_makes_a_route_space_universe():
    """One universe per snapshot: the lint stage's semantic rules and its
    fixpoint share the one ``build_universe`` makes, so no module builds
    a universe of its own (per device, per rule)."""
    makers = set()
    for path in sorted(ROOT.glob("**/*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function (walk is breadth-first)
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                owner.update((node, function.name) for node in ast.walk(function))
        makers.update(
            f"{path.relative_to(ROOT)}:{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "RouteSpaceUniverse"
            in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        )
    assert sorted(makers) == ["lint/dataflow/domain.py:build_universe"]


def test_only_the_policy_table_names_a_match_or_set_kind():
    """What a route-map match or set kind means is one row of
    ``repro.routing.policy``; the simulator, the compiler and the lint
    rules read the rows, so no other module branches on a kind."""
    namers = set()
    for path in sorted(ROOT.glob("**/*.py")):
        where = path.relative_to(ROOT)
        if where.parts[0] == "config":
            continue
        namers.update(
            f"{where}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("MatchKind", "SetKind")
        )
    assert sorted(namers) == ["routing/policy.py"]


def test_routing_imports_nothing_of_lint():
    violations = [
        f"{path.relative_to(ROOT)}: {module}"
        for path in sorted((ROOT / "routing").glob("**/*.py"))
        for module in _repro_imports(path)
        if module == "repro.lint" or module.startswith("repro.lint.")
    ]
    assert not violations, "\n".join(violations)
