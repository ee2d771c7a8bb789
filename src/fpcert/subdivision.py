"""Breadth-first adaptive box subdivision shared by certification checks.

A classifier inspects one box and reports one of:

  * ``("verified", payload)``   the goal holds on the whole box,
  * ``("violated", payload)``   the goal provably fails on the whole box,
  * ``("irrelevant", payload)`` the box does not meet the constraint set,
  * ``("unknown", payload)``    undecided; the box is bisected,
  * ``("undecidable", payload)`` undecided, and no sub-box can decide it
    either; the box is kept unresolved and not bisected.

Boxes are processed in deterministic breadth-first order, always splitting
the widest splittable axis; a violation stops the search immediately.  Work
is bounded by both a depth budget and a box-count budget.  Undecidable
(equality-touching) boxes stop early: the classifier marks them and they end
unresolved at once, instead of being bisected until a budget runs out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .interval import Box

VERIFIED = "verified"
VIOLATED = "violated"
IRRELEVANT = "irrelevant"
UNKNOWN = "unknown"
UNDECIDABLE = "undecidable"

_MAX_STORED_UNRESOLVED = 64


@dataclass
class CoverResult:
    status: str  # 'verified' | 'violated' | 'indeterminate'
    verified: list = field(default_factory=list)  # (box, payload)
    violation: "tuple | None" = None  # (box, payload)
    unresolved: list = field(default_factory=list)  # (box, payload)
    unresolved_count: int = 0
    boxes_examined: int = 0
    depth_reached: int = 0


def adaptive_cover(seeds, classify, max_depth: int, max_boxes: int) -> CoverResult:
    result = CoverResult(status="verified")
    queue = deque((box, 0) for box in seeds)
    while queue:
        if result.boxes_examined >= max_boxes:
            break
        box, depth = queue.popleft()
        result.boxes_examined += 1
        result.depth_reached = max(result.depth_reached, depth)
        tag, payload = classify(box)
        if tag == VERIFIED:
            result.verified.append((box, payload))
        elif tag == IRRELEVANT:
            continue
        elif tag == VIOLATED:
            result.status = "violated"
            result.violation = (box, payload)
            return result
        elif tag == UNDECIDABLE:
            _note_unresolved(result, box, payload)
        else:
            axis = box.split_axis()
            if axis is None or depth >= max_depth:
                _note_unresolved(result, box, payload)
            else:
                left, right = box.bisect(axis)
                queue.append((left, depth + 1))
                queue.append((right, depth + 1))
    for box, _depth in queue:  # budget exhausted
        _note_unresolved(result, box, None)
    if result.unresolved_count:
        result.status = "indeterminate"
    return result


def _note_unresolved(result: CoverResult, box: Box, payload):
    result.unresolved_count += 1
    if len(result.unresolved) < _MAX_STORED_UNRESOLVED:
        result.unresolved.append((box, payload))

