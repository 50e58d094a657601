"""Exception types raised by the package."""
from __future__ import annotations


class GraphalError(Exception):
    """Base class for all package errors.

    A message that names nodes is a template: ``nodes`` holds their 0-based
    ids in the order of its ``{}`` fields, and ``str()`` shows them 0-based.
    The CLI renders ``template`` again with its 1-based ids.
    """

    def __init__(self, template: str = "", *nodes: int):
        self.template = template
        self.nodes = tuple(int(v) for v in nodes)
        super().__init__(template.format(*self.nodes) if self.nodes else template)


class InputError(GraphalError, ValueError):
    """Invalid graph, label, or file input."""


class ParseError(InputError):
    """A text input failed to parse; carries file path and line number."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class UnanchoredComponentError(GraphalError):
    """A connected component contains no labeled node, so the
    unlabeled-block Laplacian is singular."""

    def __init__(self, component: tuple[int, ...]):
        shown = component[:8]
        more = ", ..." if len(component) > 8 else ""
        super().__init__(
            "connected component {{" + ", ".join(["{}"] * len(shown)) + more + "}} "
            "has no labeled node; label a node in it or use a ridge > 0",
            *shown,
        )
        self.component = component


class DegeneracyError(GraphalError):
    """A maintained inverse hit a numerically degenerate pivot."""


class CapacityError(GraphalError):
    """A request exceeded a configured size cap (e.g. exact enumeration)."""


class UsageError(GraphalError):
    """An operation was called in an invalid sequence (e.g. labeling a
    node twice)."""
