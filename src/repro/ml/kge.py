"""Knowledge graph embeddings with ComplEx (the paper's KGE task).

The task trains ComplEx embeddings with SGD + AdaGrad and negative sampling
(Section 5.1): for every positive subject–relation–object triple, the subject
and the object are each perturbed ``num_negatives`` times with entities drawn
uniformly at random, and the model is trained with a binary logistic loss on
positive vs. negative triples. Model quality is measured with filtered mean
reciprocal rank (MRR) over a held-out test split.

PS key layout
-------------
* entity ``e``  -> key ``e``            (``0 <= e < num_entities``)
* relation ``r`` -> key ``num_entities + r``

Each value is ``[re | im | acc_re | acc_im]``: the complex embedding followed
by its AdaGrad accumulator, so that the optimizer state is shared through the
PS exactly like the embeddings themselves.

The fused training step
-----------------------
``KGETask._train_triple`` is the task's hot loop, so it is one fused kernel
rather than calls of :class:`ComplExModel`. With ``k`` negatives per side it
stacks the pulled rows into one ``(3 + 2k, 4d)`` block: ``s, r, o``, then
the ``k`` subject and the ``k`` object negatives. Batch row 0 scores the
positive triple, rows ``1..k`` perturb the subject, rows ``k+1..2k`` the
object. One ``take`` with an index layout cached per ``(d, k)`` gathers the
operands of three full-width planes, each ``left1 * right1 + left2 * right2``
over ``(1 + 2k, 2d)``:

* subject gradient: ``[r_re|r_re] * O + [r_im|-r_im] * O_swap``
* relation gradient: ``[s_re|s_re] * O + [s_im|-s_im] * O_swap``
* object gradient: ``[r_re|r_re] * S + [-r_im|r_im] * S_swap``

Here ``S``/``O`` are the batch rows' ``[re | im]`` weights and ``_swap``
their ``[im | re]`` partners. The relation plane doubles as the score's
inner products: the score sums ``r * plane`` over each d-long half. All
three planes are scaled by ``dscore`` in one product, the block sums come
from one reduction, and AdaGrad runs once over all ``3 + 2k`` rows before
the step pushes ``deltas[:3]`` and ``deltas[3:]``. The PS calls are those
of the plain formulation, with the same keys.

The floats are bit-identical to ``ComplExModel.score``/``gradients`` plus
per-block sums (``tests/test_kge_step_kernel.py`` keeps that formulation as
its oracle). Every elementwise expression keeps its operand order up to
commutativity of a single ``+`` or ``*``, which IEEE-754 makes exact, and
``x - y`` becomes ``x + (-y)``, which IEEE-754 defines to give the same
result. The score reductions still run over contiguous d-long rows, so
NumPy's pairwise summation groups them alike. The block sums still add
rows in order: the positive row, then the perturbed-subject block, then the
perturbed-object block.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import UniformDistribution
from repro.data.knowledge_graph import KnowledgeGraph
from repro.ml.negative_sampling import NegativeSampleStream
from repro.ml.optimizer import AdaGrad
from repro.ml.task import TrainingTask, sequential_process_round
from repro.ps.base import ParameterServer
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import WorkerContext


class ComplExModel:
    """Scores and gradients of the ComplEx model (Trouillon et al.).

    All functions operate on *weight* vectors of length ``2 * dim`` laid out
    as ``[re | im]``.
    """

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)

    # ----------------------------------------------------------------- helpers
    def split(self, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split ``[re | im]`` weights into their real and imaginary parts."""
        return weights[..., : self.dim], weights[..., self.dim: 2 * self.dim]

    def to_complex(self, weights: np.ndarray) -> np.ndarray:
        real, imag = self.split(weights)
        return real + 1j * imag

    # ------------------------------------------------------------------ scoring
    def score(self, subject_w: np.ndarray, relation_w: np.ndarray,
              object_w: np.ndarray) -> np.ndarray:
        """ComplEx score Re(<s, r, conj(o)>); broadcasts over leading axes."""
        s_re, s_im = self.split(subject_w)
        r_re, r_im = self.split(relation_w)
        o_re, o_im = self.split(object_w)
        return (
            (r_re * (s_re * o_re + s_im * o_im)).sum(axis=-1)
            + (r_im * (s_re * o_im - s_im * o_re)).sum(axis=-1)
        )

    def score_against_all(self, subject_w: np.ndarray, relation_w: np.ndarray,
                          all_entity_w: np.ndarray,
                          conj_entities: np.ndarray | None = None) -> np.ndarray:
        """Scores of (s, r, e) for every entity e (vectorized, for ranking).

        ``conj_entities`` optionally passes ``conj(to_complex(all_entity_w))``
        precomputed, so rankings over many queries against the same entity
        matrix do not convert it once per query.
        """
        s_c = self.to_complex(subject_w)
        r_c = self.to_complex(relation_w)
        if conj_entities is None:
            conj_entities = np.conj(self.to_complex(all_entity_w))
        return np.real((s_c * r_c) @ conj_entities.T)

    def score_all_subjects(self, relation_w: np.ndarray, object_w: np.ndarray,
                           all_entity_w: np.ndarray,
                           entities_c: np.ndarray | None = None) -> np.ndarray:
        """Scores of (e, r, o) for every entity e (vectorized, for ranking)."""
        r_c = self.to_complex(relation_w)
        o_c = self.to_complex(object_w)
        if entities_c is None:
            entities_c = self.to_complex(all_entity_w)
        return np.real(entities_c @ (r_c * np.conj(o_c)).T).ravel()

    # ---------------------------------------------------------------- gradients
    def gradients(self, subject_w: np.ndarray, relation_w: np.ndarray,
                  object_w: np.ndarray, dscore: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradients of ``dscore * score`` w.r.t. subject, relation and object.

        Inputs broadcast over a leading batch axis; ``dscore`` has shape
        ``()`` or ``(batch,)``. Returns weight-shaped gradients.
        """
        s_re, s_im = self.split(subject_w)
        r_re, r_im = self.split(relation_w)
        o_re, o_im = self.split(object_w)
        dscore = np.asarray(dscore, dtype=np.float32)[..., None]

        def assemble(real_part: np.ndarray, imag_part: np.ndarray) -> np.ndarray:
            grad = np.empty(real_part.shape[:-1] + (2 * self.dim,),
                            dtype=np.float32)
            grad[..., : self.dim] = real_part
            grad[..., self.dim:] = imag_part
            return grad

        grad_s = assemble(dscore * (r_re * o_re + r_im * o_im),
                          dscore * (r_re * o_im - r_im * o_re))
        grad_r = assemble(dscore * (s_re * o_re + s_im * o_im),
                          dscore * (s_re * o_im - s_im * o_re))
        grad_o = assemble(dscore * (r_re * s_re - r_im * s_im),
                          dscore * (r_re * s_im + r_im * s_re))
        return grad_s, grad_r, grad_o


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x.clip(-30.0, 30.0)))


class _StepLayout(NamedTuple):
    index: np.ndarray  # (2, 2, 3, B, 2d) flat cell indices into the block
    sign: np.ndarray   # (3, 1, 2d) signs of the left second-term operands


@lru_cache(maxsize=None)
def _step_layout(dim: int, num_negatives: int) -> _StepLayout:
    """Gather layout of the fused training step (see the module docstring)."""
    k = num_negatives
    batch = np.arange(1 + 2 * k)
    # Block rows: s, r, o, then negative j at row 3 + j; batch row b >= 1
    # holds negative b - 1, perturbing the subject for b <= k.
    subj = np.where((batch >= 1) & (batch <= k), batch + 2, 0)
    obj = np.where(batch > k, batch + 2, 2)
    rel = np.ones_like(batch)
    re = np.arange(dim)
    im = re + dim
    plain, swap = np.concatenate([re, im]), np.concatenate([im, re])
    re2, im2 = np.concatenate([re, re]), np.concatenate([im, im])

    def cells(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return rows[:, None] * (4 * dim) + cols

    left = [[cells(rel, re2), cells(subj, re2), cells(rel, re2)],
            [cells(rel, im2), cells(subj, im2), cells(rel, im2)]]
    right = [[cells(obj, plain), cells(obj, plain), cells(subj, plain)],
             [cells(obj, swap), cells(obj, swap), cells(subj, swap)]]
    plus, minus = np.ones(dim, np.float32), -np.ones(dim, np.float32)
    sign = np.array([np.concatenate([plus, minus]),
                     np.concatenate([plus, minus]),
                     np.concatenate([minus, plus])])[:, None, :]
    index = np.array([left, right])
    index.flags.writeable = False
    sign.flags.writeable = False
    return _StepLayout(index, sign)


# Which block sum starts each direct gradient: the subject sums the
# perturbed-object rows, relation and object the perturbed-subject rows.
_PLANES = np.arange(3)
_FIRST_SUM = np.array([1, 0, 0])


class KGETask(TrainingTask):
    """The knowledge graph embeddings workload (ComplEx + negative sampling)."""

    name = "kge"
    quality_metric = "mrr_filtered"
    higher_is_better = True

    def __init__(
        self,
        graph: KnowledgeGraph,
        dim: int = 8,
        num_negatives: int = 4,
        learning_rate: float = 0.1,
        init_scale: float = 0.1,
        sampling_level: ConformityLevel = ConformityLevel.BOUNDED,
        regularization: float = 0.0,
    ) -> None:
        if num_negatives < 0:
            raise ValueError("num_negatives must be non-negative")
        self.graph = graph
        self.model = ComplExModel(dim)
        self.dim = int(dim)
        self.num_negatives = int(num_negatives)
        self.optimizer = AdaGrad(learning_rate)
        self.init_scale = float(init_scale)
        self.sampling_level = sampling_level
        self.regularization = float(regularization)
        self._distribution_id: Optional[int] = None
        self._test_filters = self._build_filter_index()

    # -------------------------------------------------------------- model layout
    def num_keys(self) -> int:
        return self.graph.num_entities + self.graph.num_relations

    def value_length(self) -> int:
        # [re | im | acc_re | acc_im]
        return 4 * self.dim

    def create_store(self, seed: int = 0) -> ParameterStore:
        store = ParameterStore(self.num_keys(), self.value_length())
        rng = np.random.default_rng(seed)
        weights = rng.normal(
            0.0, self.init_scale, size=(self.num_keys(), 2 * self.dim)
        ).astype(np.float32)
        values = np.concatenate(
            [weights, np.zeros_like(weights)], axis=1
        )
        store.set(np.arange(self.num_keys()), values)
        return store

    def access_counts(self) -> np.ndarray:
        counts = np.zeros(self.num_keys(), dtype=np.float64)
        counts[: self.graph.num_entities] = self.graph.entity_frequencies
        counts[self.graph.num_entities:] = self.graph.relation_frequencies
        return counts

    def sampling_access_counts(self) -> np.ndarray:
        """Uniform negative sampling: every entity is equally likely."""
        counts = np.zeros(self.num_keys(), dtype=np.float64)
        total_samples = self.graph.num_train * 2 * self.num_negatives
        counts[: self.graph.num_entities] = total_samples / self.graph.num_entities
        return counts

    def relation_key(self, relation: int) -> int:
        return self.graph.num_entities + int(relation)

    def key_groups(self) -> List[tuple]:
        """Entities and relations drift independently (see the base class)."""
        return [
            (0, self.graph.num_entities),
            (self.graph.num_entities, self.num_keys()),
        ]

    # ------------------------------------------------------------------ training
    def num_data_points(self) -> int:
        return self.graph.num_train

    def create_shards(self, num_nodes: int, workers_per_node: int,
                      seed: int = 0) -> List[List[np.ndarray]]:
        rng = np.random.default_rng(seed)
        indices = np.arange(self.graph.num_train)
        node_parts = self.partition_round_robin(indices, num_nodes, rng)
        return [
            self.partition_round_robin(part, workers_per_node, rng)
            for part in node_parts
        ]

    def register_sampling(self, ps: ParameterServer) -> None:
        distribution = UniformDistribution(0, self.graph.num_entities)
        self._distribution_id = ps.register_distribution(distribution, self.sampling_level)

    def prefetch(self, ps: ParameterServer, worker: WorkerContext,
                 data_indices: np.ndarray) -> None:
        triples = self.graph.train_triples[np.asarray(data_indices, dtype=np.int64)]
        if len(triples) == 0:
            return
        direct_keys = np.unique(np.concatenate([
            triples[:, 0],
            triples[:, 2],
            self.graph.num_entities + triples[:, 1],
        ]))
        ps.localize(worker, direct_keys)

    def process_round(self, ps: ParameterServer, items) -> None:
        """Round execution for KGE: sequential by design.

        Every training step draws negatives through the PS sampling API, and
        sampling state — pool cursors, RNG streams, repurposing buffers — is
        shared and strictly order-dependent: which keys the next step
        receives depends on every sample drawn before it, across workers.
        Reordering or batching across workers would therefore change the
        drawn negatives, not just the bookkeeping, so the round engine keeps
        the sequential per-worker order here (direct-access traffic still
        benefits from the PS-level batch fast paths within each step).
        """
        sequential_process_round(self, ps, items)

    def process_chunk(self, ps: ParameterServer, worker: WorkerContext,
                      data_indices: np.ndarray, rng: np.random.Generator) -> int:
        if self._distribution_id is None:
            raise RuntimeError("register_sampling must be called before training")
        triples = self.graph.train_triples[np.asarray(data_indices, dtype=np.int64)]
        if len(triples) == 0:
            return 0

        negatives_per_triple = 2 * self.num_negatives
        stream = NegativeSampleStream(
            ps, worker, self._distribution_id, len(triples) * negatives_per_triple
        )

        compute_cost = self.network_compute_cost(ps)  # constant per chunk
        for subject, relation, obj in triples.tolist():
            self._train_triple(ps, worker, subject, relation, obj, stream)
            worker.charge_compute(compute_cost)
        return len(triples)

    def network_compute_cost(self, ps: ParameterServer) -> float:
        """Computation cost of one SGD step (scaled by the negative count)."""
        return ps.network.compute_per_step * (1 + 2 * self.num_negatives / 10.0)

    def _train_triple(self, ps: ParameterServer, worker: WorkerContext,
                      subject: int, relation: int, obj: int,
                      stream: NegativeSampleStream) -> None:
        """One SGD step on one triple: the fused kernel of the module docstring."""
        dim = self.dim
        k = self.num_negatives
        direct_keys = np.array(
            [subject, self.graph.num_entities + relation, obj], dtype=np.int64
        )
        direct_values = ps.pull(worker, direct_keys)
        negatives = stream.next(2 * k)
        block = np.concatenate((direct_values, negatives.values))
        layout = _step_layout(dim, k)

        operands = block.take(layout.index)
        operands[0, 1] *= layout.sign
        products = operands[0] * operands[1]
        # Planes: subject gradient, relation gradient (= the score's inner
        # products), object gradient; all before scaling by dscore.
        inner = products[0] + products[1]
        halves = (inner[1] * block[1, : 2 * dim]).reshape(-1, 2, dim).sum(axis=-1)
        dscores = _sigmoid(halves[:, 0] + halves[:, 1])
        dscores[0] = dscores[0] - 1.0  # positive triple: label 1
        grads = dscores[:, None] * inner

        if k:
            # Per plane, the sums over the perturbed-subject block and the
            # perturbed-object block (rows 1..k and k+1..2k).
            sums = grads[:, 1:].reshape(3, 2, k, 2 * dim).sum(axis=2)
            direct = grads[:, 0] + sums[_PLANES, _FIRST_SUM]
            direct[1] += sums[1, 1]  # the relation sums both blocks
            # Negatives: subject gradients of the subject negatives, then
            # object gradients of the object negatives.
            grads = np.concatenate((direct, grads[0, 1:1 + k], grads[2, 1 + k:]))
        else:
            grads = grads[:, 0]
        if self.regularization:
            grads[:3] += self.regularization * block[:3, : 2 * dim]

        deltas = self.optimizer.compute_update(block, grads)
        ps.push(worker, direct_keys, deltas[:3])
        stream.push_updates(negatives.keys, deltas[3:])

    # ---------------------------------------------------------------- evaluation
    def evaluate(self, store: ParameterStore) -> Dict[str, float]:
        """Filtered MRR and Hits@10 over the test split (both directions)."""
        if self.graph.num_test == 0:
            return {"mrr_filtered": 0.0, "hits_at_10": 0.0}
        dim2 = 2 * self.dim
        entity_w = store.values[: self.graph.num_entities, :dim2]
        # The entity matrix is shared by every ranking query of this
        # evaluation round: convert it to complex form once, not per triple.
        entities_c = self.model.to_complex(entity_w)
        conj_entities = np.conj(entities_c)
        reciprocal_ranks: List[float] = []
        hits = 0
        queries = zip(self.graph.test_triples.tolist(), self._test_filters)
        for (subject, relation, obj), (true_objects, true_subjects) in queries:
            relation_w = store.values[self.relation_key(relation), :dim2]
            # Object ranking (s, r, ?), then subject ranking (?, r, o).
            object_scores = self.model.score_against_all(
                entity_w[subject], relation_w, entity_w,
                conj_entities=conj_entities,
            )
            subject_scores = self.model.score_all_subjects(
                relation_w, entity_w[obj], entity_w, entities_c=entities_c
            )
            for rank in (self._filtered_rank(object_scores, obj, true_objects),
                         self._filtered_rank(subject_scores, subject, true_subjects)):
                reciprocal_ranks.append(1.0 / rank)
                hits += int(rank <= 10)

        return {
            "mrr_filtered": float(np.mean(reciprocal_ranks)),
            "hits_at_10": hits / len(reciprocal_ranks),
        }

    @staticmethod
    def _filtered_rank(scores: np.ndarray, target: int, known_true) -> int:
        """Rank of ``target`` among the entities not known to be true.

        ``known_true`` (an index array or a set) holds the entities of known
        true triples; it may include ``target``, which never scores above
        itself. The rank is one plus the number of entities scoring above
        ``target`` minus the known-true ones among them.
        """
        if not isinstance(known_true, np.ndarray):
            known_true = np.fromiter(known_true, dtype=np.int64,
                                     count=len(known_true))
        target_score = scores[target]
        better = (np.count_nonzero(scores > target_score)
                  - np.count_nonzero(scores[known_true] > target_score))
        return int(better) + 1

    def _build_filter_index(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per test triple, the true objects of (s, r) and subjects of (r, o)."""
        true_objects: Dict[Tuple[int, int], set] = {}
        true_subjects: Dict[Tuple[int, int], set] = {}
        for split in (self.graph.train_triples, self.graph.test_triples):
            for subject, relation, obj in split.tolist():
                true_objects.setdefault((subject, relation), set()).add(obj)
                true_subjects.setdefault((relation, obj), set()).add(subject)

        def indices(entities: set) -> np.ndarray:
            return np.array(sorted(entities), dtype=np.int64)

        return [
            (indices(true_objects[(subject, relation)]),
             indices(true_subjects[(relation, obj)]))
            for subject, relation, obj in self.graph.test_triples.tolist()
        ]
