"""The unified reachability-querier API all index facades speak.

The repository grows four ways to answer the same question "can ``s``
reach ``t``?" — the DAG-level :class:`~repro.core.index.TOLIndex`, the
general-graph :class:`~repro.core.index.ReachabilityIndex`, the immutable
:class:`~repro.core.frozen.FrozenTOLIndex` and the concurrent
:class:`~repro.service.server.ReachabilityService`.
:class:`ReachabilityQuerier` is the structural protocol they all conform
to, so serving code, benchmarks and tests can be written once against the
protocol and handed any facade (``tests/core/test_protocols.py`` drives
one random update/query trace through all four plus a BFS oracle).

The protocol is read-only by design: update methods differ legitimately
across facades (a frozen index has none; the service logs and applies
them in batches), but
queries, witness extraction, membership and size accounting are the
invariant surface.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Optional, Protocol, runtime_checkable

__all__ = ["ReachabilityQuerier"]

Vertex = Hashable


@runtime_checkable
class ReachabilityQuerier(Protocol):
    """Anything that can answer reachability queries over a vertex set.

    ``isinstance(obj, ReachabilityQuerier)`` checks method presence (the
    protocol is :func:`~typing.runtime_checkable`); the semantic contract
    below is enforced by the shared conformance suite:

    * :meth:`query` answers ``s -> t`` (every vertex reaches itself);
    * :meth:`query_many` answers a batch, in input order, equal to
      ``[query(s, t) for s, t in pairs]``;
    * :meth:`witness` returns a vertex on some ``s ⇝ t`` path (``s``,
      ``t`` included) when reachable, ``None`` otherwise;
    * ``v in querier`` reports whether ``v`` is indexed;
    * :attr:`num_vertices` counts indexed vertices;
    * :meth:`size` is the total label count ``|L|`` of the underlying
      index, and :meth:`size_bytes` its label payload in bytes
      (``size() * bytes-per-label``; see
      :meth:`repro.core.labeling.TOLLabeling.size_bytes` for the formula).

    Unknown query endpoints raise a :class:`KeyError` subclass
    (:class:`~repro.errors.UnknownVertexError` and friends).
    """

    def query(self, s: Vertex, t: Vertex) -> bool:
        """Return ``True`` iff ``s`` can reach ``t``."""
        ...

    def query_many(
        self, pairs: Iterable[tuple[Vertex, Vertex]]
    ) -> list[bool]:
        """Answer a batch of queries, in input order."""
        ...

    def witness(self, s: Vertex, t: Vertex) -> Optional[Vertex]:
        """Return one vertex on some ``s ⇝ t`` path, or ``None``."""
        ...

    def __contains__(self, v: Vertex) -> bool:
        """Return ``True`` iff *v* is indexed."""
        ...

    @property
    def num_vertices(self) -> int:
        """Number of indexed vertices."""
        ...

    def size(self) -> int:
        """Total label count ``|L|``."""
        ...

    def size_bytes(self) -> int:
        """Label payload bytes of the underlying index."""
        ...
