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

A classifier that raises a `DomainError` on a box (a denominator whose naive
enclosure holds zero, a bound past the float range) leaves that box unknown:
it is split, since smaller boxes may evaluate, or ends unresolved at the
depth or box cap.  An unknown box never verifies or refutes anything, so
this is sound for every caller.
"""

from __future__ import annotations

from collections import deque

from .interval import Box, DomainError

VERIFIED = "verified"
VIOLATED = "violated"
IRRELEVANT = "irrelevant"
UNKNOWN = "unknown"
UNDECIDABLE = "undecidable"

_MAX_STORED_UNRESOLVED = 8


class CoverResult:
    __slots__ = ("status", "verified", "violation", "unresolved", "unresolved_count",
                 "boxes_examined", "depth_reached")

    def __init__(self):
        self.status = "verified"  # 'verified' | 'violated' | 'indeterminate'
        self.verified = []  # (box, payload)
        self.violation = None  # (box, payload)
        self.unresolved = []  # (box, payload)
        self.unresolved_count = 0
        self.boxes_examined = 0
        self.depth_reached = 0


def adaptive_cover(seeds, classify, max_depth: int, max_boxes: int) -> CoverResult:
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, not {max_depth}")
    result = CoverResult()
    queue = deque((box, 0) for box in seeds)
    while queue:
        if result.boxes_examined >= max_boxes:
            break
        box, depth = queue.popleft()
        result.boxes_examined += 1
        result.depth_reached = max(result.depth_reached, depth)
        try:
            tag, payload = classify(box)
        except DomainError:  # undecided here: smaller boxes may evaluate
            tag, payload = UNKNOWN, None
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

