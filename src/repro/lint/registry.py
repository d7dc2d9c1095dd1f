"""Rule registry: rules declare themselves with the :func:`rule`
decorator and the runner discovers them here.

Keeping registration declarative means adding a check is one function in
one module — the property that let Batfish accumulate dozens of
questions without touching its core (Lesson 5's "simple checks get used
the most" argues for making simple checks cheap to add).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, TypeVar

from repro.config.model import Snapshot
from repro.findings import Finding, RuleInfo, Severity

if TYPE_CHECKING:
    from repro.lint.runner import LintStage

#: A check function: it takes the run's
#: :class:`~repro.lint.runner.LintStage` and reads its inputs off it.
RuleFn = TypeVar("RuleFn", bound=Callable[["LintStage"], List[Finding]])


@dataclass(frozen=True)
class Rule(RuleInfo):
    """A registered lint rule: metadata plus the check function."""

    fn: Callable[["LintStage"], List[Finding]]

    def run(self, snapshot: Snapshot) -> List[Finding]:
        """This rule alone on ``snapshot``, on a stage of its own."""
        from repro.lint.runner import LintStage

        return self.fn(LintStage(snapshot))


_REGISTRY: Dict[str, Rule] = {}


def rule(
    rule_id: str,
    severity: Severity,
    category: str,
    description: str,
) -> Callable[[RuleFn], RuleFn]:
    """Register a rule function. The function receives the run's
    :class:`~repro.lint.runner.LintStage` and returns findings."""

    def decorate(fn: RuleFn) -> RuleFn:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate lint rule id: {rule_id}")
        _REGISTRY[rule_id] = Rule(rule_id, severity, category, description, fn)
        return fn

    return decorate


def _load_builtin_rules() -> None:
    # Importing the rule modules triggers their @rule decorators.
    from repro.lint import rules_cross  # noqa: F401
    from repro.lint import rules_hygiene  # noqa: F401
    from repro.lint import rules_semantic  # noqa: F401
    from repro.lint.dataflow import rules  # noqa: F401


def all_rules() -> List[Rule]:
    _load_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Optional[Rule]:
    _load_builtin_rules()
    return _REGISTRY.get(rule_id)
