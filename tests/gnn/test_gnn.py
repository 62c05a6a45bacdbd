"""Unit tests for the graph neural-network substrate."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro import nn
from repro.gnn import GCN, GCNLayer, Graph, from_edges, from_networkx, two_layer_gcn
from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TestGraph:
    def test_from_edges_adjacency_symmetric(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_nodes == 4
        assert g.num_edges == 3
        np.testing.assert_allclose(g.adjacency, g.adjacency.T)

    def test_normalized_adjacency_rows(self):
        # a pair of connected nodes with self loops: A_hat should be [[.5, .5], [.5, .5]]
        g = from_edges(2, [(0, 1)])
        np.testing.assert_allclose(g.norm_adjacency, np.full((2, 2), 0.5))

    def test_isolated_node_handled(self):
        g = from_edges(3, [(0, 1)])
        assert np.isfinite(g.norm_adjacency).all()
        # the isolated node only sees itself
        assert g.norm_adjacency[2, 2] == pytest.approx(1.0)

    def test_propagate_averages_neighbours(self):
        g = from_edges(2, [(0, 1)])
        features = Tensor(np.array([[2.0], [4.0]]))
        out = g.propagate(features)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])

    def test_propagate_keeps_gradient(self):
        g = from_edges(2, [(0, 1)])
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        g.propagate(x).sum().backward()
        assert x.grad is not None

    def test_neighbors_and_degree(self):
        g = from_edges(4, [(0, 1), (0, 2)])
        assert set(g.neighbors(0)) == {1, 2}
        assert g.degree(0) == 2

    def test_networkx_roundtrip(self):
        nx_graph = nx.karate_club_graph()
        g = from_networkx(nx_graph)
        assert g.num_nodes == nx_graph.number_of_nodes()
        assert g.num_edges == nx_graph.number_of_edges()
        back = g.to_networkx()
        assert back.number_of_edges() == nx_graph.number_of_edges()

    def test_rejects_non_square_adjacency(self):
        with pytest.raises(ValueError):
            Graph(np.zeros((2, 3)))

    def test_repr(self):
        assert "num_nodes=3" in repr(from_edges(3, [(0, 1)]))


class TestGCNLayers:
    def test_layer_output_shape(self, rng):
        g = from_edges(5, [(0, 1), (1, 2), (3, 4)])
        layer = GCNLayer(8, 4, rng=rng)
        out = layer(g, Tensor(rng.standard_normal((5, 8))))
        assert out.shape == (5, 4)

    def test_two_layer_gcn_forward_backward(self, rng):
        g = from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        gcn = two_layer_gcn(4, 8, 3, rng=rng)
        logits = gcn(g, Tensor(rng.standard_normal((6, 4))))
        assert logits.shape == (6, 3)
        F.cross_entropy(logits, np.array([0, 1, 2, 0, 1, 2])).backward()
        assert all(p.grad is not None for p in gcn.parameters())

    def test_gcn_uses_graph_structure(self, rng):
        """Changing an edge changes the output (message passing is real)."""
        gcn = two_layer_gcn(4, 8, 2, rng=rng)
        x = Tensor(rng.standard_normal((4, 4)))
        g1 = from_edges(4, [(0, 1)])
        g2 = from_edges(4, [(0, 1), (2, 3)])
        out1 = gcn(g1, x).data
        out2 = gcn(g2, x).data
        assert not np.allclose(out1[2], out2[2])

    def test_gcn_trains_on_community_labels(self, rng):
        from repro.datasets import make_citation_graph

        data = make_citation_graph(num_nodes=60, num_classes=3, feature_dim=8,
                                   train_per_class=8, val_per_class=5, seed=0)
        gcn = two_layer_gcn(data.num_features, 8, data.num_classes, rng=rng)
        optim = nn.Adam(gcn.parameters(), lr=1e-2)
        features = Tensor(data.features)
        losses = []
        for _ in range(60):
            optim.zero_grad()
            logits = gcn(data.graph, features)
            loss = F.cross_entropy(logits[data.train_mask], data.labels[data.train_mask])
            loss.backward()
            optim.step()
            losses.append(loss.item())
        assert losses[-1] < 0.5 * losses[0]

    def test_dropout_in_gcn(self, rng):
        g = from_edges(4, [(0, 1), (2, 3)])
        gcn = GCN(4, [8], 2, dropout=0.5, rng=rng)
        gcn.eval()
        x = Tensor(rng.standard_normal((4, 4)))
        out1, out2 = gcn(g, x).data, gcn(g, x).data
        np.testing.assert_allclose(out1, out2)

    def test_layer_compatible_with_local_reparameterization(self, rng):
        """The GCN's linear map goes through F.linear, so the messenger can intercept it."""
        import repro.core as tyxe
        from repro.ppl import distributions as dist

        g = from_edges(4, [(0, 1), (2, 3)])
        layer = GCNLayer(3, 2, rng=rng)
        loc = layer.linear.weight.data.copy()
        scale = np.full_like(loc, 0.5)
        messenger = tyxe.poutine.LocalReparameterizationMessenger()
        x = Tensor(rng.standard_normal((4, 3)))
        with messenger:
            messenger.postprocess_message({
                "type": "sample", "name": "w", "value": layer.linear.weight,
                "is_observed": False,
                "fn": dist.Normal(Tensor(loc), Tensor(scale)).to_event(2),
            })
            out1 = layer(g, x).data
            out2 = layer(g, x).data
        assert not np.allclose(out1, out2)  # per-call output sampling is active


def test_experiments_import_leaves_networkx_unloaded():
    """Only ``to_networkx``/``from_networkx`` use networkx, so importing the
    experiment registry (which reaches ``repro.gnn``) must not load it."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                 if env.get("PYTHONPATH") else []))
    code = "import sys, repro.experiments; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
