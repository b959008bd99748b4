"""The compiled link table is the only link view propagation reads.

``RelationTable.compiled()`` caches every node's logical links (the
continuation chain walked, overflow slots appended) until the table
next mutates.  These tests hold it to the reference walk
``links_of`` on random knowledge bases that exercise every shape the
cache must follow — fan-out past 16 (continuation chains), runtime
overflow past the static slots, link removal, and node growth — and
check after every mutation that both propagation backends, each
keeping its own cache across the mutations, still agree.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import FunctionalEngine, RelationEntry, RelationTable
from repro.isa import Create, Delete, assemble
from repro.network import MAX_FANOUT, SemanticNetwork

from .test_backend_equivalence import machine_bytes, record_facts

RELATIONS = ("r0", "r1", "r2")

#: Weights that are mostly *not* float32-representable, so every
#: weight check also checks the rounding.
WEIGHTS = st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, allow_subnormal=False
)

PROGRAM = assemble("""
SEARCH-NODE n0 m1 0.0
SEARCH-NODE n1 m1 0.5
PROPAGATE m1 m2 comb(r0,r1) add-weight
PROPAGATE m1 m3 spread(r2,r0) add-weight
SEARCH-RELATION r1 m4
COLLECT-MARKER m2
COLLECT-MARKER m3
COLLECT-NODE m4
COLLECT-RELATION m1 r0
""")


def float32(value):
    return float(np.float32(value))


@st.composite
def knowledge_bases(draw):
    """(nodes, hub fan-out, links, clusters, mutations)."""
    nodes = draw(st.integers(min_value=3, max_value=16))
    hub_fanout = draw(st.integers(min_value=MAX_FANOUT + 1, max_value=40))
    links = draw(st.lists(
        st.tuples(
            st.integers(0, nodes - 1), st.sampled_from(RELATIONS),
            st.integers(0, nodes - 1), WEIGHTS,
        ),
        max_size=30,
    ))
    clusters = draw(st.integers(min_value=1, max_value=4))
    # Indices past the initial nodes name nodes CREATE adds at runtime.
    create = st.tuples(
        st.just("create"), st.integers(0, nodes + 3),
        st.sampled_from(RELATIONS), st.integers(0, nodes + 3), WEIGHTS,
    )
    delete = st.tuples(st.just("delete"), st.integers(0, 10_000))
    mutations = draw(st.lists(st.one_of(create, delete), max_size=8))
    # The hub's 16 static slots are full (15 links + a continuation),
    # so this first write always spills into the overflow area.
    first = draw(st.tuples(
        st.just("create"), st.just(0), st.sampled_from(RELATIONS),
        st.integers(1, nodes - 1), WEIGHTS,
    ))
    return nodes, hub_fanout, links, clusters, [first] + mutations


def build_network(nodes, hub_fanout, links):
    net = SemanticNetwork()
    for i in range(nodes):
        net.add_node(f"n{i}")
    for j in range(hub_fanout):
        net.add_node(f"h{j}")
        net.add_link("n0", RELATIONS[j % 3], f"h{j}", 0.1 * j)
    for src, relation, dst, weight in links:
        net.add_link(f"n{src}", relation, f"n{dst}", weight)
    return net


def logical_links(links):
    """Expected logical links per source name, as a multiset."""
    expected = {}
    for src, relation, dst, weight in links:
        expected.setdefault(src, Counter())[
            (relation, dst, float32(weight))
        ] += 1
    return expected


def assert_compiled_matches_reference(state, model):
    seen = {}
    for tables in state.clusters:
        compiled, scanned = tables.relations.compiled()
        assert len(compiled) == len(scanned) == tables.num_nodes
        for lid in range(tables.num_nodes):
            reference, count = tables.relations.links_of(lid)
            assert list(compiled[lid]) == reference
            assert scanned[lid] == count
            node = state.network.node(tables.to_global[lid])
            if node.parent_id is None:
                seen[node.name] = Counter(
                    (
                        state.network.relations.name_of(link.relation),
                        state.network.node(link.dest_global).name,
                        link.weight,
                    )
                    for link in compiled[lid]
                )
    for name, expected in model.items():
        assert seen[name] == expected, name


@given(kb=knowledge_bases())
@settings(max_examples=40, deadline=None)
def test_compiled_links_follow_every_mutation(kb):
    nodes, hub_fanout, links, clusters, mutations = kb
    hub = [
        ("n0", RELATIONS[j % 3], f"h{j}", 0.1 * j) for j in range(hub_fanout)
    ]
    live = hub + [
        (f"n{s}", rel, f"n{d}", w) for s, rel, d, w in links
    ]
    engines = {
        backend: FunctionalEngine(
            build_network(nodes, hub_fanout, links), clusters,
            backend=backend,
        )
        for backend in ("python", "vectorized")
    }

    def name(index):
        return f"n{index}" if index < nodes else f"new{index}"

    for mutation in [None] + mutations:
        if mutation is None:
            pass  # check the freshly built tables first
        elif mutation[0] == "create":
            _, src, relation, dst, weight = mutation
            link = (name(src), relation, name(dst), weight)
            for engine in engines.values():
                before = engine.state.mutation_version
                engine.execute(Create(link[0], relation, weight, link[2]))
                assert engine.state.mutation_version > before
            live.append(link)
        else:
            link = live[mutation[1] % len(live)]
            made = {
                engine.execute(Delete(*link[:3])).work.links_made
                for engine in engines.values()
            }
            assert len(made) == 1
            # A link the fan-out pre-processor moved onto a continuation
            # subnode is not deleted through its parent (unchanged
            # behaviour), so the model drops only links that went.
            if made == {1}:
                live.remove(link)
        model = logical_links(live)
        for engine in engines.values():
            assert_compiled_matches_reference(engine.state, model)
            engine.state.reset_markers()
        python, vectorized = (
            engines[b].run(PROGRAM) for b in ("python", "vectorized")
        )
        assert record_facts(python) == record_facts(vectorized)
        assert machine_bytes(engines["python"]) == machine_bytes(
            engines["vectorized"]
        )


class TestCompiledView:
    def table(self):
        table = RelationTable(3, cont_relation_id=99)
        table.add(0, RelationEntry(1, 0, 1, 1, 0.1))
        table.add(0, RelationEntry(99, 0, 2, 2, 0.0))
        table.add(2, RelationEntry(2, 0, 0, 0, 1.0 / 3.0))
        return table

    def test_walks_continuations_once_per_mutation(self):
        table = self.table()
        links, scanned = table.compiled()
        assert [link.relation for link in links[0]] == [1, 2]
        assert scanned == [3, 0, 1]  # node 0 scans node 2's slot too
        assert table.compiled()[0] is links  # cached until a mutation
        table.add(1, RelationEntry(3, 0, 0, 0, 0.0))
        links, scanned = table.compiled()
        assert [link.relation for link in links[1]] == [3]
        assert scanned == [3, 1, 1]

    def test_weights_are_stored_as_float32(self):
        table = self.table()
        for _ in range(MAX_FANOUT):
            table.add(1, RelationEntry(4, 0, 0, 0, 0.1))
        assert table.slots_used(1) == MAX_FANOUT  # all static
        table.add(1, RelationEntry(5, 0, 0, 0, 0.1))  # overflow
        links, _ = table.compiled()
        assert {link.weight for link in links[1]} == {float32(0.1)}
        assert links[2][0].weight == float32(1.0 / 3.0)

    def test_remove_and_grow_invalidate(self):
        table = self.table()
        links, _ = table.compiled()
        assert table.remove(2, 2, 0)
        links, scanned = table.compiled()
        assert [link.relation for link in links[0]] == [1]
        assert scanned[0] == 2 and scanned[2] == 0
        table.grow(2)
        links, scanned = table.compiled()
        assert len(links) == len(scanned) == 5
        assert list(links[4]) == [] and scanned[4] == 0
