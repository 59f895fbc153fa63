"""Tests for the ComplEx knowledge graph embeddings task."""

import numpy as np
import pytest

from repro.core.sampling.conformity import ConformityLevel
from repro.data.knowledge_graph import generate_knowledge_graph
from repro.ml.kge import ComplExModel, KGETask
from repro.ps.local import SingleNodePS
from repro.simulation.cluster import Cluster, ClusterConfig


@pytest.fixture(scope="module")
def graph():
    return generate_knowledge_graph(
        num_entities=120, num_relations=6, num_triples=900, seed=4
    )


@pytest.fixture
def task(graph):
    return KGETask(graph, dim=4, num_negatives=2)


class TestComplExModel:
    def setup_method(self):
        self.model = ComplExModel(dim=3)
        rng = np.random.default_rng(0)
        self.s = rng.normal(size=6).astype(np.float32)
        self.r = rng.normal(size=6).astype(np.float32)
        self.o = rng.normal(size=6).astype(np.float32)

    def test_score_matches_complex_arithmetic(self):
        s_c = self.model.to_complex(self.s)
        r_c = self.model.to_complex(self.r)
        o_c = self.model.to_complex(self.o)
        expected = float(np.real(np.sum(s_c * r_c * np.conj(o_c))))
        assert self.model.score(self.s, self.r, self.o) == pytest.approx(expected, rel=1e-5)

    def test_score_against_all_matches_pointwise(self):
        rng = np.random.default_rng(1)
        entities = rng.normal(size=(10, 6)).astype(np.float32)
        scores = self.model.score_against_all(self.s, self.r, entities)
        for i in range(10):
            assert scores[i] == pytest.approx(
                self.model.score(self.s, self.r, entities[i]), rel=1e-4
            )

    def test_score_all_subjects_matches_pointwise(self):
        rng = np.random.default_rng(2)
        entities = rng.normal(size=(10, 6)).astype(np.float32)
        scores = self.model.score_all_subjects(self.r, self.o, entities)
        for i in range(10):
            assert scores[i] == pytest.approx(
                self.model.score(entities[i], self.r, self.o), rel=1e-4
            )

    def test_gradients_match_numerical_gradients(self):
        """Analytical gradients of the score agree with finite differences."""
        dscore = 1.0
        grad_s, grad_r, grad_o = self.model.gradients(self.s, self.r, self.o, dscore)
        eps = 1e-3

        def numerical(vector, index, which):
            perturbed = {"s": self.s.copy(), "r": self.r.copy(), "o": self.o.copy()}
            perturbed[which][index] += eps
            plus = self.model.score(perturbed["s"], perturbed["r"], perturbed["o"])
            perturbed[which][index] -= 2 * eps
            minus = self.model.score(perturbed["s"], perturbed["r"], perturbed["o"])
            return (plus - minus) / (2 * eps)

        for index in range(6):
            assert grad_s[index] == pytest.approx(numerical(self.s, index, "s"), abs=1e-2)
            assert grad_r[index] == pytest.approx(numerical(self.r, index, "r"), abs=1e-2)
            assert grad_o[index] == pytest.approx(numerical(self.o, index, "o"), abs=1e-2)

    def test_gradients_scale_with_dscore(self):
        grad_1 = self.model.gradients(self.s, self.r, self.o, 1.0)
        grad_2 = self.model.gradients(self.s, self.r, self.o, 2.0)
        for a, b in zip(grad_1, grad_2):
            np.testing.assert_allclose(2 * a, b, rtol=1e-5)

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValueError):
            ComplExModel(0)


class TestKGETaskLayout:
    def test_key_space_covers_entities_and_relations(self, task, graph):
        assert task.num_keys() == graph.num_entities + graph.num_relations
        assert task.relation_key(0) == graph.num_entities

    def test_value_length_includes_adagrad_state(self, task):
        assert task.value_length() == 4 * task.dim

    def test_store_initialization(self, task):
        store = task.create_store(seed=0)
        weights = store.values[:, : 2 * task.dim]
        accumulators = store.values[:, 2 * task.dim:]
        assert np.abs(weights).max() > 0
        assert np.all(accumulators == 0)

    def test_access_counts_cover_all_keys(self, task, graph):
        counts = task.access_counts()
        assert len(counts) == task.num_keys()
        assert counts[: graph.num_entities].sum() == pytest.approx(
            2 * graph.num_train
        )
        assert counts[graph.num_entities:].sum() == pytest.approx(graph.num_train)

    def test_sampling_access_counts_are_uniform_over_entities(self, task, graph):
        counts = task.sampling_access_counts()
        entity_counts = counts[: graph.num_entities]
        assert np.allclose(entity_counts, entity_counts[0])
        assert counts[graph.num_entities:].sum() == 0

    def test_shards_partition_the_training_data(self, task, graph):
        shards = task.create_shards(num_nodes=3, workers_per_node=2, seed=0)
        all_indices = np.concatenate([w for node in shards for w in node])
        assert sorted(all_indices.tolist()) == list(range(graph.num_train))


class TestKGETraining:
    def _train(self, task, epochs=2, seed=0):
        cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=2))
        store = task.create_store(seed=seed)
        ps = SingleNodePS(store, cluster)
        task.register_sampling(ps)
        shards = task.create_shards(1, 2, seed=seed)
        rng = np.random.default_rng(seed)
        initial = task.evaluate(store)
        for _ in range(epochs):
            for worker_id, shard in enumerate(shards[0]):
                worker = cluster.worker(0, worker_id)
                for start in range(0, len(shard), 16):
                    task.process_chunk(ps, worker, shard[start: start + 16], rng)
        return initial, task.evaluate(store)

    def test_training_improves_filtered_mrr(self, graph):
        task = KGETask(graph, dim=4, num_negatives=2, learning_rate=0.2)
        initial, final = self._train(task, epochs=3)
        assert final["mrr_filtered"] > initial["mrr_filtered"]
        assert final["mrr_filtered"] > 2 * initial["mrr_filtered"]

    def test_requires_sampling_registration(self, task):
        cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=1))
        store = task.create_store()
        ps = SingleNodePS(store, cluster)
        with pytest.raises(RuntimeError):
            task.process_chunk(ps, cluster.worker(0, 0), np.array([0, 1]),
                               np.random.default_rng(0))

    def test_adagrad_accumulators_grow_during_training(self, graph):
        task = KGETask(graph, dim=4, num_negatives=2)
        cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=1))
        store = task.create_store()
        ps = SingleNodePS(store, cluster)
        task.register_sampling(ps)
        task.process_chunk(ps, cluster.worker(0, 0), np.arange(50), np.random.default_rng(0))
        accumulators = store.values[:, 2 * task.dim:]
        assert accumulators.max() > 0
        assert accumulators.min() >= 0

    def test_evaluation_metrics_well_formed(self, task):
        store = task.create_store()
        metrics = task.evaluate(store)
        assert 0.0 <= metrics["mrr_filtered"] <= 1.0
        assert 0.0 <= metrics["hits_at_10"] <= 1.0

    def test_filtered_rank_excludes_known_true_triples(self):
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        # Without filtering, target 4 ranks 5th; entities 0-2 are known true
        # and must be filtered out, leaving rank 2 (behind entity 3 only).
        rank = KGETask._filtered_rank(scores, target=4, known_true={0, 1, 2})
        assert rank == 2

    def test_filtered_rank_keeps_target_itself(self):
        scores = np.array([1.0, 2.0])
        assert KGETask._filtered_rank(scores, target=1, known_true={1}) == 1

    def test_negative_num_negatives_rejected_at_construction(self, graph):
        # Used to build and fail only mid-training, inside the sample stream.
        with pytest.raises(ValueError, match="num_negatives"):
            KGETask(graph, dim=4, num_negatives=-1)

    def test_sampling_level_is_passed_to_registration(self, graph, store):
        task = KGETask(graph, dim=4, sampling_level=ConformityLevel.NON_CONFORM)
        assert task.sampling_level is ConformityLevel.NON_CONFORM
