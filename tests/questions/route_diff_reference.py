"""``compare_routes`` as it was before PR 20, kept as a test-only
reference: every route of every node rendered on both sides, no node
skipped. Production skips a node whose two main RIBs are one object
(what a delta session holds where its own RIB came out equal to the
base's); the rows must not depend on that.
"""

from typing import List, Set

from repro.questions.differential import RouteDiffAnswer, RouteDiffRow
from repro.routing.engine import DataPlane


def reference_compare_routes(before: DataPlane, after: DataPlane) -> RouteDiffAnswer:
    rows: List[RouteDiffRow] = []
    nodes = sorted(set(before.nodes) | set(after.nodes))
    for node in nodes:
        before_routes: Set[str] = set()
        after_routes: Set[str] = set()
        if node in before.nodes:
            before_routes = {r.describe() for r in before.main_rib(node).routes()}
        if node in after.nodes:
            after_routes = {r.describe() for r in after.main_rib(node).routes()}
        for description in sorted(after_routes - before_routes):
            rows.append(RouteDiffRow(node, "added", description))
        for description in sorted(before_routes - after_routes):
            rows.append(RouteDiffRow(node, "removed", description))
    return RouteDiffAnswer(rows=rows)
