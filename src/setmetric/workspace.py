"""Workspace files: one JSON document holding a metric, an element registry,
and named sets, interval unions and fuzzy sets.

Schema::

    {
      "metric":    {"kind": "discrete", "lambda": 1.0}
                 | {"kind": "euclidean"}
                 | {"kind": "lp", "p": 3}
                 | {"kind": "matrix", "ids": [...], "values": [[...]],
                    "pseudo": false},
      "elements":  {"id": [x, y, ...] | number | null, ...},
      "sets":      {"name": ["id", ...], ...},
      "intervals": {"name": [[lo, hi], ...], ...},
      "fuzzy":     {"name": {"id": grade, ...}, ...}
    }

Exactly one metric is active per workspace. Every named set may reference
only registered ids; violations are reported at load time. So are the
cells of a ``matrix`` table, but not its triangle inequality, which is
checked at the first read of a distance (see ``core.MatrixMetric``): a
command that reads none, such as ``dist --family j``, accepts a table that
fails only that check.
"""

from __future__ import annotations

import json
from collections.abc import Hashable
from pathlib import Path
from typing import TYPE_CHECKING

from .core import (
    BaseMetric,
    DiscreteMetric,
    ElementRegistry,
    EuclideanMetric,
    FiniteSet,
    LpMetric,
    MatrixMetric,
)

if TYPE_CHECKING:
    from .continuous import FuzzySet, IntervalUnion


class WorkspaceError(ValueError):
    """The workspace document is malformed or internally inconsistent."""


class Workspace:
    """A metric, its element registry and the named operands over it; each
    section omitted is a new empty dict."""

    def __init__(
        self,
        registry: ElementRegistry,
        metric: BaseMetric,
        sets: dict[str, FiniteSet] | None = None,
        intervals: dict[str, IntervalUnion] | None = None,
        fuzzy: dict[str, FuzzySet] | None = None,
    ):
        self.registry = registry
        self.metric = metric
        self.sets = {} if sets is None else sets
        self.intervals = {} if intervals is None else intervals
        self.fuzzy = {} if fuzzy is None else fuzzy


def metric_from_config(config: dict) -> BaseMetric:
    if not isinstance(config, dict) or "kind" not in config:
        raise WorkspaceError('metric config must be an object with a "kind"')
    kind = config["kind"]
    if kind == "matrix" and ("ids" not in config or "values" not in config):
        raise WorkspaceError('matrix metric needs "ids" and "values"')
    try:
        if kind == "discrete":
            return DiscreteMetric(lam=float(config.get("lambda", 1.0)))
        if kind == "euclidean":
            return EuclideanMetric()
        if kind == "lp":
            return LpMetric(p=float(config.get("p", 2.0)))
        if kind == "matrix":
            return MatrixMetric(
                ids=config["ids"], values=config["values"], pseudo=config.get("pseudo", False))
    except (TypeError, ValueError) as exc:  # ParameterError is a ValueError
        raise WorkspaceError(f"invalid metric config: {exc}") from exc
    raise WorkspaceError(f"unknown metric kind {kind!r}")


def parse_workspace(doc: dict) -> Workspace:
    if not isinstance(doc, dict):
        raise WorkspaceError("workspace must be a JSON object")
    for key in ("elements", "sets", "intervals", "fuzzy"):
        if not isinstance(doc.get(key, {}), dict):
            raise WorkspaceError(f'"{key}" must be a JSON object')
    metric = metric_from_config(doc.get("metric", {"kind": "euclidean"}))
    registry = ElementRegistry()
    for eid, payload in doc.get("elements", {}).items():
        try:
            registry.add(eid, payload)
        except (TypeError, ValueError) as exc:
            raise WorkspaceError(f"element {eid!r} has a malformed payload: {exc}") from exc

    sets: dict[str, FiniteSet] = {}
    for name, ids in doc.get("sets", {}).items():
        if not isinstance(ids, list) or not all(isinstance(eid, Hashable) for eid in ids):
            raise WorkspaceError(f"set {name!r} must be a list of ids")
        missing = [eid for eid in ids if eid not in registry]
        if missing:
            raise WorkspaceError(f"set {name!r} references unknown ids {missing}")
        sets[name] = registry.set_of(ids)

    if doc.get("intervals") or doc.get("fuzzy"):
        from .continuous import FuzzySet, IntervalUnion

    intervals: dict[str, IntervalUnion] = {}
    for name, pairs in doc.get("intervals", {}).items():
        try:
            intervals[name] = IntervalUnion.of(pairs)
        except (TypeError, ValueError) as exc:
            raise WorkspaceError(f"interval union {name!r} is malformed: {exc}") from exc

    fuzzy: dict[str, FuzzySet] = {}
    for name, membership in doc.get("fuzzy", {}).items():
        if not isinstance(membership, dict):
            raise WorkspaceError(f"fuzzy set {name!r} must map ids to grades")
        missing = [eid for eid in membership if eid not in registry]
        if missing:
            raise WorkspaceError(f"fuzzy set {name!r} references unknown ids {missing}")
        try:
            fuzzy[name] = FuzzySet(membership)
        except (TypeError, ValueError) as exc:
            raise WorkspaceError(f"fuzzy set {name!r} is invalid: {exc}") from exc

    return Workspace(registry=registry, metric=metric, sets=sets,
                     intervals=intervals, fuzzy=fuzzy)


def load_workspace(path: str | Path) -> Workspace:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise WorkspaceError(f"workspace file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"workspace file is not valid JSON: {exc}") from exc
    return parse_workspace(doc)
