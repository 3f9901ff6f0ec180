"""The per-cone network walks: the order they visit a cone in, and the
work they do per cone.

Collapsing a signal creates its sources' BDD variables in the order the
cone's nodes are evaluated, and partition enumeration follows variable
order, so that order is part of the synthesis output.  It is the whole
network's topological order filtered to the cone, also when the nodes
dict is not in topological order; structural copies and cone slices
insert nodes in the same order.  Each walk costs one pass over the cone:
the network is sorted once per collapser (once for all of a don't-care
store's partitions) and once per pass, and a copy walks its cone once.
"""

from __future__ import annotations

import pytest

from repro.benchgen import industrial_analog, iscas_analog
from repro.engine.context import SynthesisContext, SynthesisOptions
from repro.engine.parallel import DecomposeParallelPass
from repro.engine.passes import LatchCleanupPass, copy_cone
from repro.network import ConeCollapser, Network, observability_dont_cares
from repro.reach.dontcare import DontCareManager
from repro.synth.conetask import extract_cone_slice


def unsorted_network() -> Network:
    """``A = q & a`` is listed before ``S = p | q``, ``p = ~a`` and
    ``q = ~b``, so ``topological_order()`` is ``[q, A, p, S]``: ``S``'s
    cone in network order is ``[q, p, S]``, while a walk of that cone
    alone would visit ``p`` first."""
    net = Network("unsorted")
    net.add_input("a")
    net.add_input("b")
    net.add_node("A", "and", ["q", "a"])
    net.add_node("S", "or", ["p", "q"])
    net.add_node("p", "not", ["a"])
    net.add_node("q", "not", ["b"])
    net.add_output("S")
    net.add_output("A")
    return net


class TestOrderContract:
    def test_collapse_creates_sources_in_network_order(self):
        collapser = ConeCollapser(unsorted_network())
        collapser.node_function("S")
        assert list(collapser.var_of) == ["b", "a"]

    def test_copy_and_slice_insert_in_network_order(self):
        net = unsorted_network()
        target = Network("copy")
        copy_cone(net, target, "S")
        assert list(target.nodes) == ["q", "p", "S"]
        assert list(extract_cone_slice(net, "S").nodes) == ["q", "p", "S"]

    def test_nodes_behind_a_cut_point_are_evaluated_in_order(self):
        # r sits behind the cut point c and is listed first, so network
        # order evaluates r (creating y) before w (creating z); a walk of
        # o's cone alone, or one stopping at c, would create z first.
        net = Network("cut")
        for name in "xyz":
            net.add_input(name)
        net.add_node("A", "and", ["r", "z"])
        net.add_node("o", "or", ["w", "c"])
        net.add_node("c", "and", ["x", "r"])
        net.add_node("w", "not", ["z"])
        net.add_node("r", "not", ["y"])
        net.add_output("o")
        net.add_output("A")
        odc, collapser = observability_dont_cares(net, "c")
        assert list(collapser.var_of) == ["c", "y", "z"]
        manager = collapser.manager
        # c is unobservable at o exactly when w = ~z is 1.
        assert odc == manager.negate(manager.var(collapser.var_of["z"]))

    def test_a_node_added_after_the_first_sort_is_found(self):
        net = unsorted_network()
        collapser = ConeCollapser(net)
        collapser.node_function("S")
        net.add_node("T", "xor", ["S", "A"])
        expected = collapser.manager.apply_xor(
            collapser.node_function("S"), collapser.node_function("A")
        )
        assert collapser.node_function("T") == expected


@pytest.fixture
def sorted_networks(monkeypatch):
    """The networks ``topological_order`` runs on, one entry per call."""
    calls: list[Network] = []
    original = Network.topological_order

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Network, "topological_order", counted)
    return calls


class TestWorkCounts:
    def test_collapsing_every_sink_sorts_the_network_once(
        self, sorted_networks
    ):
        net = iscas_analog("s5378")
        sinks = [s for s in net.combinational_sinks() if s in net.nodes]
        assert len(sinks) == 212
        collapser = ConeCollapser(net)
        for sink in sinks:
            collapser.node_function(sink)
        assert len(sorted_networks) == 1

    def test_copy_cone_walks_the_cone_once(self, monkeypatch):
        net = iscas_analog("s5378")
        walks = []
        original = Network.transitive_fanin

        def counted(self, signals):
            walks.append(self)
            return original(self, signals)

        monkeypatch.setattr(Network, "transitive_fanin", counted)
        sink = max(net.combinational_sinks(), key=lambda s: len(net.fanins(s)))
        target = Network("copy")
        copy_cone(net, target, sink)
        assert len(walks) == 1
        assert sink in target.nodes

    def test_parallel_pass_sorts_the_source_once(self, sorted_networks):
        context = SynthesisContext(
            iscas_analog("s344"), SynthesisOptions(parallel_workers=1)
        )
        LatchCleanupPass().run(context)
        del sorted_networks[:]
        DecomposeParallelPass().run(context)
        tasks = context.artifacts["parallel.tasks"]["total"]
        assert tasks > 1
        # Inline workers sort their own slices; the source is sorted once.
        assert sum(net is context.source for net in sorted_networks) == 1

    def test_dont_care_partitions_share_one_sort(self, sorted_networks):
        net = industrial_analog("seq5", 0.35)
        dc_manager = DontCareManager(net, max_partition_size=12)
        assert len(dc_manager.partitions) > 1
        dc_manager.compute_all()
        assert len(sorted_networks) == 1
