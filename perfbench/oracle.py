"""Reference answers computed without the code under test.

Every check here walks the :class:`SemanticNetwork` adjacency lists
directly (plain breadth-first search over named relations), so it
shares nothing with ``repro.core`` (marker tables, relation tables,
propagation backends) or the machine simulator whose outputs it
judges.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, FrozenSet, Iterable, Optional


def _reach(network, start: int, relation: str,
           within: Optional[AbstractSet[str]] = None) -> FrozenSet[int]:
    """Node ids reachable from ``start`` over ``relation`` links (start
    itself excluded), optionally inside the induced subgraph ``within``
    (a set of node names)."""
    rid = network.relations.get(relation)
    if rid is None:
        return frozenset()
    seen = {start}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for link in network.outgoing(node):
            if link.relation != rid or link.dest in seen:
                continue
            if within is not None and network.node(link.dest).name not in within:
                continue
            seen.add(link.dest)
            frontier.append(link.dest)
    seen.discard(start)
    return frozenset(seen)


def descendants(network, root: str,
                within: Optional[AbstractSet[str]] = None) -> FrozenSet[str]:
    """Names of every concept below ``root`` (root-to-leaf inheritance
    along ``inverse:is-a``), optionally inside a shard's name set."""
    ids = _reach(network, network.resolve(root), "inverse:is-a", within)
    return frozenset(network.node(i).name for i in ids)


def inherits(network, concept: str, prop: str) -> FrozenSet[str]:
    """The property node a concept inherits (``{p:prop}``) or nothing.

    Climbs ``is-a`` from the concept and looks for a ``has-property``
    link from the concept or any ancestor onto ``p:<prop>``.
    """
    cid = network.resolve(concept)
    target = f"p:{prop}"
    rid = network.relations.get("has-property")
    for node in (cid, *_reach(network, cid, "is-a")):
        for link in network.outgoing(node):
            if link.relation == rid and network.node(link.dest).name == target:
                return frozenset((target,))
    return frozenset()


def names(collected: Iterable) -> FrozenSet[str]:
    """Names out of a COLLECT-NODE result (``(id, name)`` pairs)."""
    return frozenset(name for _gid, name in collected)
