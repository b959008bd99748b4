"""The three knowledge-base tables of paper Fig. 4.

Each cluster stores its partition of the semantic network in:

* a **node table** — permanent properties (color, function) and the
  dynamic complex-marker registers (32-bit float value + 15-bit origin
  address) for each local node;
* a **marker status table** — one bit per (marker, node), packed into
  ``W = 32``-bit words so that *"when the table is updated, the status
  of markers from W nodes are processed simultaneously by each PE"*;
* a **relation table** — up to 16 outgoing relation slots per node,
  each holding (relation type, destination cluster, destination local
  id, 32-bit float weight).  Continuation slots installed by the
  fanout pre-processor are walked once, when the table is compiled.

The status and node tables are numpy-backed; the relation table holds
plain Python tuples, the form every propagation path reads.  Word- and
slot-level operation counts (the unit of MU work) are exposed for the
timing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..isa.instructions import NUM_COMPLEX_MARKERS, NUM_MARKERS, is_complex
from ..network.builder import CONT_RELATION
from ..network.graph import SemanticNetwork
from ..network.node import MAX_FANOUT
from ..network.partition import Partitioning

#: CPU word length in bits (TMS320C30 is a 32-bit machine).
WORD_BITS = 32

#: Machine node capacity: "32K semantic network nodes were selected as
#: a compromise between knowledge base size and machine cost".
MACHINE_NODE_CAPACITY = 32 * 1024

class TableError(ValueError):
    """Raised on capacity violations or bad table access."""


class MarkerStatusTable:
    """Bit-packed active/inactive state for all 128 markers.

    Rows are markers; each row has ``ceil(n / 32)`` status words.
    Word-level boolean operations are the primitive the MUs execute
    "for 32 nodes at a time".
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.num_words = max(1, -(-num_nodes // WORD_BITS))
        self._bits = np.zeros((NUM_MARKERS, self.num_words), dtype=np.uint32)
        # Mask clearing padding bits beyond num_nodes in the last word.
        self._tail_mask = np.uint32(0xFFFFFFFF)
        tail = num_nodes % WORD_BITS
        if tail:
            self._tail_mask = np.uint32((1 << tail) - 1)

    # -- single-bit operations --------------------------------------------
    def set(self, marker: int, local: int) -> bool:
        """Set marker bit; returns True if it was previously clear."""
        word, bit = divmod(local, WORD_BITS)
        mask = 1 << bit
        current = self._bits.item(marker, word)
        if current & mask:
            return False
        self._bits[marker, word] = current | mask
        return True

    def clear(self, marker: int, local: int) -> None:
        """Clear one marker bit at a local node."""
        word, bit = divmod(local, WORD_BITS)
        self._bits[marker, word] &= np.uint32(~np.uint32(1 << bit))

    def test(self, marker: int, local: int) -> bool:
        """Whether the marker bit is set at a local node."""
        word, bit = divmod(local, WORD_BITS)
        return bool(self._bits.item(marker, word) >> bit & 1)

    # -- row (whole-marker) operations ----------------------------------
    def row(self, marker: int) -> np.ndarray:
        """The raw status words of a marker (read-only view)."""
        view = self._bits[marker]
        view.flags.writeable = False
        return view

    def set_all(self, marker: int) -> None:
        """Set the marker at every node (word-wise)."""
        self._bits[marker, :] = np.uint32(0xFFFFFFFF)
        self._bits[marker, -1] = self._tail_mask

    def clear_all(self, marker: int) -> None:
        """Clear the marker at every node (word-wise)."""
        self._bits[marker, :] = 0

    def reset(self) -> None:
        """Clear every marker at every node (between serving queries)."""
        self._bits[:, :] = 0

    def and_rows(self, m1: int, m2: int, m3: int) -> int:
        """m3 := m1 & m2; returns words processed (timing unit)."""
        np.bitwise_and(self._bits[m1], self._bits[m2], out=self._bits[m3])
        return self.num_words

    def or_rows(self, m1: int, m2: int, m3: int) -> int:
        """m3 := m1 | m2; returns words processed."""
        np.bitwise_or(self._bits[m1], self._bits[m2], out=self._bits[m3])
        return self.num_words

    def not_row(self, m1: int, m2: int) -> int:
        """m2 := ~m1 (padding bits kept clear)."""
        np.bitwise_not(self._bits[m1], out=self._bits[m2])
        self._bits[m2, -1] &= self._tail_mask
        return self.num_words

    def copy_row(self, src: int, dst: int) -> int:
        """dst := src; returns words processed."""
        self._bits[dst, :] = self._bits[src, :]
        return self.num_words

    # -- queries -----------------------------------------------------------
    def count(self, marker: int) -> int:
        """Population count of a marker row."""
        return int(
            sum(bin(int(w)).count("1") for w in self._bits[marker])
        )

    def nodes_with(self, marker: int) -> List[int]:
        """Local ids of nodes where the marker is set, ascending."""
        out: List[int] = []
        row = self._bits[marker]
        for word_index in range(self.num_words):
            word = int(row[word_index])
            base = word_index * WORD_BITS
            while word:
                low = word & -word
                out.append(base + low.bit_length() - 1)
                word ^= low
        return out

    # -- bulk operations (vectorized propagation backend) ---------------
    def test_many(self, marker: int, locals_: np.ndarray) -> np.ndarray:
        """Bit test for an array of local ids; returns a bool array."""
        words = locals_ // WORD_BITS
        bits = locals_ % WORD_BITS
        return ((self._bits[marker][words] >> bits) & 1).astype(bool)

    def set_many(self, marker: int, locals_: np.ndarray) -> None:
        """Set the marker at every listed local id (duplicates fine)."""
        words = locals_ // WORD_BITS
        masks = (np.uint32(1) << (locals_ % WORD_BITS)).astype(np.uint32)
        np.bitwise_or.at(self._bits[marker], words, masks)

    def nodes_with_array(self, marker: int) -> np.ndarray:
        """Like :meth:`nodes_with`, as an ascending int64 array."""
        row = self._bits[marker].astype("<u4")
        flat = np.unpackbits(row.view(np.uint8), bitorder="little")
        return np.nonzero(flat[: self.num_nodes])[0].astype(np.int64)

    def nonzero_words(self, marker: int) -> int:
        """How many status words are nonzero (MU scan shortcut)."""
        return int(np.count_nonzero(self._bits[marker]))

    def any(self, marker: int) -> bool:
        """Whether the marker is set anywhere."""
        return bool(np.any(self._bits[marker]))

    def snapshot(self) -> np.ndarray:
        """Copy of the whole table (for equivalence testing)."""
        return self._bits.copy()

    def grow(self, count: int = 1) -> None:
        """Extend capacity for ``count`` more nodes (runtime CREATE)."""
        self.num_nodes += count
        new_words = max(1, -(-self.num_nodes // WORD_BITS))
        if new_words > self.num_words:
            pad = np.zeros((NUM_MARKERS, new_words - self.num_words),
                           dtype=np.uint32)
            self._bits = np.concatenate([self._bits, pad], axis=1)
            self.num_words = new_words
        tail = self.num_nodes % WORD_BITS
        self._tail_mask = (
            np.uint32((1 << tail) - 1) if tail else np.uint32(0xFFFFFFFF)
        )


class NodeTable:
    """Permanent node properties + complex-marker registers (Fig. 4)."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.color = np.zeros(num_nodes, dtype=np.uint8)
        self.function = np.zeros(num_nodes, dtype=np.uint8)
        #: 32-bit float value per (node, complex marker).
        self.value = np.zeros((num_nodes, NUM_COMPLEX_MARKERS), dtype=np.float32)
        #: 15-bit origin address (global node id) per (node, complex marker).
        self.origin = np.full((num_nodes, NUM_COMPLEX_MARKERS), -1, dtype=np.int32)

    def set_value(self, local: int, marker: int, value: float,
                  origin: int = -1) -> None:
        """Store a complex marker's value/origin (no-op for binary)."""
        if is_complex(marker):
            self.value[local, marker] = value
            self.origin[local, marker] = origin

    def get_value(self, local: int, marker: int) -> float:
        """Complex-marker value at a local node (0.0 for binary)."""
        if is_complex(marker):
            return float(self.value[local, marker])
        return 0.0

    def get_origin(self, local: int, marker: int) -> int:
        """Complex-marker origin at a local node (-1 for binary)."""
        if is_complex(marker):
            return int(self.origin[local, marker])
        return -1

    def clear_value(self, local: int, marker: int) -> None:
        """Reset a complex marker's value/origin at a node."""
        if is_complex(marker):
            self.value[local, marker] = 0.0
            self.origin[local, marker] = -1

    def reset_registers(self) -> None:
        """Reset every complex-marker value/origin register."""
        self.value[:, :] = 0.0
        self.origin[:, :] = -1

    def grow(self, count: int = 1) -> None:
        """Extend capacity for ``count`` more nodes (runtime CREATE)."""
        self.num_nodes += count
        self.color = np.concatenate(
            [self.color, np.zeros(count, dtype=np.uint8)]
        )
        self.function = np.concatenate(
            [self.function, np.zeros(count, dtype=np.uint8)]
        )
        self.value = np.concatenate(
            [self.value,
             np.zeros((count, NUM_COMPLEX_MARKERS), dtype=np.float32)]
        )
        self.origin = np.concatenate(
            [self.origin,
             np.full((count, NUM_COMPLEX_MARKERS), -1, dtype=np.int32)]
        )


class RelationEntry(NamedTuple):
    """One decoded relation-table slot (plain ints, float32 weight)."""

    relation: int
    dest_cluster: int
    dest_local: int
    dest_global: int
    weight: float


#: A cluster's compiled links: per local node, its logical links in scan
#: order (continuations walked, overflow appended) and the number of
#: relation slots an MU scans to read them.
CompiledLinks = Tuple[List[Tuple[RelationEntry, ...]], List[int]]


class RelationTable:
    """Fixed 16-slot outgoing-relation storage per node.

    Slots hold (relation type, destination cluster, destination local
    id, weight); weights are rounded to 32-bit floats on entry, as the
    hardware stores them.  The destination's global id is kept
    alongside for convenience (it is derivable from cluster+local via
    the partitioning, exactly as on the hardware).

    Runtime MARKER-CREATE bindings may exceed the 16 static slots; they
    spill into a dynamic overflow area (the hardware allocated result
    nodes from a reserved pool — see DESIGN.md).

    Every reader of links goes through :meth:`compiled`: the whole
    table's logical links, built once and kept until the next
    :meth:`add`, :meth:`remove` or :meth:`grow` (exactly the mutations
    that bump :attr:`MachineState.mutation_version`).
    """

    def __init__(self, num_nodes: int, cont_relation_id: Optional[int]) -> None:
        self.num_nodes = num_nodes
        self.cont_relation_id = cont_relation_id
        #: Static slots per node, as immutable tuples: an unchained
        #: node's compiled links are its slot tuple itself.
        self._slots: List[Tuple[RelationEntry, ...]] = [()] * num_nodes
        self._overflow: Dict[int, List[RelationEntry]] = {}
        #: Locals whose static slots hold a continuation link.
        self._chained: Set[int] = set()
        self._compiled: Optional[CompiledLinks] = None

    def grow(self, count: int = 1) -> None:
        """Extend capacity for ``count`` more nodes (runtime CREATE)."""
        self.num_nodes += count
        self._slots.extend([()] * count)
        self._compiled = None

    def add(self, local: int, entry: RelationEntry) -> None:
        """Install a link in the next free slot (or overflow)."""
        weight = float(np.float32(entry.weight))
        if weight != entry.weight:
            entry = entry._replace(weight=weight)
        slots = self._slots[local]
        if len(slots) >= MAX_FANOUT:
            self._overflow.setdefault(local, []).append(entry)
        else:
            self._slots[local] = slots + (entry,)
            if entry.relation == self.cont_relation_id:
                self._chained.add(local)
        self._compiled = None

    def remove(self, local: int, relation: int, dest_global: int) -> bool:
        """Remove the first matching slot; compact remaining slots."""
        overflow = self._overflow.get(local, [])
        for area in (self._slots[local], overflow):
            for i, entry in enumerate(area):
                if (
                    entry.relation == relation
                    and entry.dest_global == dest_global
                ):
                    if area is overflow:
                        del overflow[i]
                    else:
                        self._slots[local] = area[:i] + area[i + 1:]
                    self._compiled = None
                    return True
        return False

    def slots_used(self, local: int) -> int:
        """Relation slots occupied (static + overflow)."""
        return len(self._slots[local]) + len(self._overflow.get(local, ()))

    def entries(self, local: int) -> List[RelationEntry]:
        """Direct slots of one node (no continuation walking)."""
        return [*self._slots[local], *self._overflow.get(local, ())]

    def links_of(self, local: int) -> Tuple[List[RelationEntry], int]:
        """Logical links of a node, walking continuation chains locally.

        Returns (entries, slots_scanned); scanned slot count feeds the
        MU timing model.  Continuation subnodes always live on the same
        cluster as their parent, so the walk never leaves the table.
        This is the reference walk :meth:`compiled` caches.
        """
        entries: List[RelationEntry] = []
        scanned = 0
        current = local
        seen = set()
        while True:
            if current in seen:
                raise TableError(f"continuation cycle at local node {current}")
            seen.add(current)
            nxt = None
            for entry in self.entries(current):
                scanned += 1
                if (
                    self.cont_relation_id is not None
                    and entry.relation == self.cont_relation_id
                ):
                    nxt = entry.dest_local
                else:
                    entries.append(entry)
            if nxt is None:
                return entries, scanned
            current = nxt

    def compiled(self) -> CompiledLinks:
        """Per-node logical links and scan counts (see :data:`CompiledLinks`).

        A node with neither continuation nor overflow slots shares its
        slot tuple; only chained or spilled nodes get a walked copy.
        The returned lists are read-only, valid until the next mutation.
        """
        compiled = self._compiled
        if compiled is None:
            links: List[Tuple[RelationEntry, ...]] = []
            scanned: List[int] = []
            walk = self._chained.union(self._overflow)
            for local, slots in enumerate(self._slots):
                if local in walk:
                    walked, count = self.links_of(local)
                    links.append(tuple(walked))
                    scanned.append(count)
                else:
                    links.append(slots)
                    scanned.append(len(slots))
            compiled = self._compiled = (links, scanned)
        return compiled


@dataclass
class ClusterTables:
    """All three tables for one cluster, plus id mappings."""

    cluster_id: int
    node_table: NodeTable
    status: MarkerStatusTable
    relations: RelationTable
    #: local id -> global node id.
    to_global: List[int]
    #: global node id -> local id (only for nodes on this cluster).
    to_local: Dict[int, int]

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.node_table.num_nodes

    def is_local(self, global_id: int) -> bool:
        """Whether a global node id lives on this cluster."""
        return global_id in self.to_local

    def add_node(self, global_id: int, color: int, function: int = 0) -> int:
        """Install a new node at runtime; returns its local id."""
        local = self.num_nodes
        self.node_table.grow(1)
        self.status.grow(1)
        self.relations.grow(1)
        self.node_table.color[local] = color
        self.node_table.function[local] = function
        self.to_global.append(global_id)
        self.to_local[global_id] = local
        return local


def build_tables(
    network: SemanticNetwork,
    partitioning: Partitioning,
    capacity: int = MACHINE_NODE_CAPACITY,
) -> List[ClusterTables]:
    """Distribute a (physical) network into per-cluster tables.

    The network must already satisfy the 16-slot fanout limit (run
    :func:`repro.network.builder.preprocess_fanout` first); subnodes
    are re-homed to their parent's cluster so continuation chains stay
    cluster-local.
    """
    if network.num_nodes > capacity:
        raise TableError(
            f"network has {network.num_nodes} nodes; machine capacity is "
            f"{capacity}"
        )
    cont_id = network.relations.get(CONT_RELATION)

    # Re-home subnodes with their parents (continuation chains must be
    # cluster-local).
    cluster_of: List[int] = [
        partitioning.cluster_of(n.node_id) for n in network.nodes()
    ]
    for node in network.nodes():
        if node.parent_id is not None:
            cluster_of[node.node_id] = cluster_of[node.parent_id]

    members: List[List[int]] = [[] for _ in range(partitioning.num_clusters)]
    for nid, cluster in enumerate(cluster_of):
        members[cluster].append(nid)

    # Build per-cluster id maps.
    tables: List[ClusterTables] = []
    to_local_all: Dict[int, Tuple[int, int]] = {}
    for cid, nodes in enumerate(members):
        to_local = {gid: i for i, gid in enumerate(nodes)}
        for gid, lid in to_local.items():
            to_local_all[gid] = (cid, lid)
        tables.append(
            ClusterTables(
                cluster_id=cid,
                node_table=NodeTable(len(nodes)),
                status=MarkerStatusTable(len(nodes)),
                relations=RelationTable(len(nodes), cont_id),
                to_global=list(nodes),
                to_local=to_local,
            )
        )

    # Populate node properties.
    for node in network.nodes():
        cid, lid = to_local_all[node.node_id]
        tables[cid].node_table.color[lid] = node.color
        tables[cid].node_table.function[lid] = node.function

    # Populate relation slots.
    for link in network.links():
        src_c, src_l = to_local_all[link.source]
        dst_c, dst_l = to_local_all[link.dest]
        tables[src_c].relations.add(
            src_l,
            RelationEntry(link.relation, dst_c, dst_l, link.dest, link.weight),
        )
    return tables
