"""MetricsRegistry: one namespaced tree over every collector in a job.

Before this existed, the stats a run produced were scattered: the
``Counter`` bag on :class:`~repro.mapreduce.context.JobContext`, each RDMA
provider's :class:`~repro.core.cache.CacheStats`, the per-disk
:class:`~repro.sim.monitor.UtilizationTracker`.  The registry federates
them: sources register once under a dotted namespace and
:meth:`MetricsRegistry.collect` snapshots everything into a flat ``{"cache.node00.hits": 3.0, ...}`` mapping (or a nested ``tree()``).

A source is anything that can produce a mapping of metric name -> value:

* an object with a ``metrics_snapshot()`` method (``Counter``,
  ``UtilizationTracker``, ``CacheStats``, ``DiskDevice``);
* a plain mapping (snapshotted as-is);
* a zero-argument callable returning a mapping (evaluated lazily at
  collect time, so late-bound values are current).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable

__all__ = ["MetricsRegistry"]

Source = Any  # metrics_snapshot() object | Mapping | zero-arg callable


class MetricsRegistry:
    """Federates metric sources under dotted namespaces."""

    def __init__(self) -> None:
        self._sources: dict[str, Source] = {}

    def register(self, namespace: str, source: Source) -> None:
        """Attach ``source`` under ``namespace`` (e.g. ``"cache.node00"``).

        Re-registering a namespace replaces the previous source (a job
        rebuilds providers on task retry).
        """
        if not namespace or namespace.startswith(".") or namespace.endswith("."):
            raise ValueError(f"bad namespace {namespace!r}")
        self._sources[namespace] = source

    def unregister(self, namespace: str) -> None:
        self._sources.pop(namespace, None)

    def namespaces(self) -> list[str]:
        return sorted(self._sources)

    def __contains__(self, namespace: str) -> bool:
        return namespace in self._sources

    # -- collection ---------------------------------------------------------

    @staticmethod
    def _snapshot(source: Source) -> Mapping[str, float]:
        snap: Callable[[], Mapping[str, float]] | None = getattr(
            source, "metrics_snapshot", None
        )
        if callable(snap):
            return snap()
        if isinstance(source, Mapping):
            return source
        if callable(source):
            got = source()
            if not isinstance(got, Mapping):
                raise TypeError(
                    f"callable source returned {type(got).__name__}, expected mapping"
                )
            return got
        raise TypeError(
            f"unsupported metrics source {type(source).__name__}: need "
            "metrics_snapshot(), a mapping, or a zero-arg callable"
        )

    def collect(self) -> dict[str, float]:
        """Flat snapshot: ``{namespace + '.' + metric: value}``."""
        out: dict[str, float] = {}
        for namespace in sorted(self._sources):
            for name, value in self._snapshot(self._sources[namespace]).items():
                out[f"{namespace}.{name}"] = value
        return out

    def tree(self) -> dict[str, Any]:
        """Nested snapshot: dotted namespaces become nested dicts."""
        root: dict[str, Any] = {}
        for dotted, value in self.collect().items():
            parts = dotted.split(".")
            node = root
            for part in parts[:-1]:
                nxt = node.get(part)
                if not isinstance(nxt, dict):
                    # A leaf and a subtree share a prefix ("cache" value vs
                    # "cache.hits"): keep the leaf under an empty-string key.
                    nxt = {} if nxt is None else {"": nxt}
                    node[part] = nxt
                node = nxt
            leaf = parts[-1]
            if isinstance(node.get(leaf), dict):
                node[leaf][""] = value
            else:
                node[leaf] = value
        return root
