"""Word vectors with skip-gram Word2Vec and negative sampling (the WV task).

The task trains skip-gram word vectors with SGD and negative sampling
(Section 5.1). A data point is one token (center-word position): the model is
updated for every (center, context) pair inside the window, and
``num_negatives`` negative context words per pair are drawn from the unigram
distribution raised to 0.75. Model quality is measured with a
similarity-probe accuracy — the fraction of (anchor, same-topic, other-topic)
probes for which the anchor's vector is closer to the same-topic word — which
stands in for the analogical-reasoning accuracy the paper reports on
natural-language data (see README.md, "Benchmarks").

PS key layout
-------------
* input (center) vector of word ``w``  -> key ``w``
* output (context) vector of word ``w`` -> key ``vocab_size + w``

Negative sampling only ever touches output-layer keys, which is why the
paper's Figure 3b shows the two layers as visually distinct populations.

Each token's direct keys are stored once, in one read-only flat array:
``[center, vocab_size + context...]`` per token, located by int64 start
offsets. The step pulls and pushes a view of that array.

Fused training step
-------------------
With ``c`` the center row, ``C`` the ``n`` context rows and ``N`` the ``m``
negative rows, :meth:`WordVectorsTask._train_token` computes every float of
the plain skip-gram step (a sigmoid per score block, separate gradient
arrays, two clipping passes) with the same IEEE operations on the same
operands, so the pushed deltas are bit-identical:

* ``g = sigmoid([C.c ; N.c]) - labels`` lives in one ``(n+m,)`` buffer. The
  scores come from two gemv calls, one per block: a single gemv over the
  stacked block may round differently. The sigmoid runs in place as
  clip, negate, exp, add 1, divide 1 by it, which are the elementwise
  operations of ``1 / (1 + exp(-clip(x)))``. Only the context scores
  subtract their label 1; ``x - 0`` would be ``x`` anyway.
* One ``(1+n+m, d)`` block holds all updates: row 0 is ``g[:n].C`` plus
  ``g[n:].N`` (the same two gemvs and the same addition order), the other
  rows are the outer product ``g c``. Scaling the block by ``-lr`` in place
  is the same float32 multiply as scaling each gradient array.
* One :meth:`~repro.ml.optimizer.UpdateNormClipper.clip_rows` call clips
  the block. Its rows come in the order of the former two calls, and the
  pre-clip norms do not depend on the clipper state, so the running mean
  ends the same.
* ``push`` gets rows ``[:n+1]`` and ``push_sample`` rows ``[n+1:]``, with
  the same keys in the same order as before, so the PS sees the same calls.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import UnigramDistribution
from repro.data.corpus import Corpus
from repro.ml.negative_sampling import NegativeSampleStream
from repro.ml.optimizer import UpdateNormClipper
from repro.ml.task import TrainingTask, sequential_process_round
from repro.ps.base import ParameterServer
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import WorkerContext


class WordVectorsTask(TrainingTask):
    """The word vectors workload (skip-gram with negative sampling)."""

    name = "word_vectors"
    quality_metric = "similarity_accuracy"
    higher_is_better = True

    def __init__(
        self,
        corpus: Corpus,
        dim: int = 8,
        window: int = 2,
        num_negatives: int = 3,
        learning_rate: float = 0.1,
        init_scale: float = 0.1,
        unigram_power: float = 0.75,
        clip_factor: float = 2.0,
        sampling_level: ConformityLevel = ConformityLevel.BOUNDED,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be positive")
        if window < 1:
            raise ValueError("window must be positive")
        if num_negatives < 0:
            raise ValueError("num_negatives must be non-negative")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.corpus = corpus
        self.dim = int(dim)
        self.window = int(window)
        self.num_negatives = int(num_negatives)
        self.learning_rate = float(learning_rate)
        self.init_scale = float(init_scale)
        self.unigram_power = float(unigram_power)
        self.sampling_level = sampling_level
        self._clipper = UpdateNormClipper(clip_factor) if clip_factor > 0 else None
        self._distribution_id: Optional[int] = None
        self._keys, self._starts = self._build_positions(corpus, self.window)

    @staticmethod
    def _build_positions(corpus: Corpus, window: int
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """One data point per token with context: its direct keys, flattened.

        Token ``i`` owns ``keys[starts[i]:starts[i + 1]]``, which is
        ``[center, vocab_size + context...]``; ``starts`` has one more entry
        than there are data points.
        """
        vocab_size = corpus.vocab_size
        keys: List[int] = []
        starts = [0]
        for sentence in corpus.sentences:
            words = sentence.tolist()
            if len(words) < 2:
                continue
            outputs = [vocab_size + word for word in words]
            for i, word in enumerate(words):
                keys.append(word)
                keys += outputs[max(0, i - window):i]
                keys += outputs[i + 1:i + window + 1]
                starts.append(len(keys))
        flat = np.asarray(keys, dtype=np.int64)
        flat.flags.writeable = False
        return flat, np.asarray(starts, dtype=np.int64)

    @property
    def _contexts(self) -> List[np.ndarray]:
        """The context word ids of every data point (read-only views)."""
        contexts = self._keys - self.corpus.vocab_size
        contexts.flags.writeable = False
        starts = self._starts.tolist()
        return [contexts[lo + 1:hi] for lo, hi in zip(starts[:-1], starts[1:])]

    # -------------------------------------------------------------- model layout
    def num_keys(self) -> int:
        return 2 * self.corpus.vocab_size

    def value_length(self) -> int:
        return self.dim

    def create_store(self, seed: int = 0) -> ParameterStore:
        store = ParameterStore(self.num_keys(), self.value_length())
        rng = np.random.default_rng(seed)
        # Word2Vec convention: input vectors random, output vectors zero.
        input_vectors = rng.uniform(
            -self.init_scale, self.init_scale,
            size=(self.corpus.vocab_size, self.dim),
        ).astype(np.float32)
        store.set(np.arange(self.corpus.vocab_size), input_vectors)
        return store

    def access_counts(self) -> np.ndarray:
        counts = np.zeros(self.num_keys(), dtype=np.float64)
        # Input keys: accessed once per occurrence as a center word; output
        # keys: accessed roughly (2 * window) times per occurrence as context.
        counts[: self.corpus.vocab_size] = self.corpus.word_frequencies
        counts[self.corpus.vocab_size:] = self.corpus.word_frequencies * 2 * self.window
        return counts

    def sampling_access_counts(self) -> np.ndarray:
        """Negatives are drawn from the unigram^0.75 distribution (output layer)."""
        counts = np.zeros(self.num_keys(), dtype=np.float64)
        weights = np.power(self.corpus.word_frequencies + 1e-12, self.unigram_power)
        probabilities = weights / weights.sum()
        total_pairs = len(self._keys) - self.num_data_points()
        total_samples = total_pairs * self.num_negatives
        counts[self.corpus.vocab_size:] = total_samples * probabilities
        return counts

    def output_key(self, word: int) -> int:
        return self.corpus.vocab_size + int(word)

    def key_groups(self) -> List[tuple]:
        """Input and output layers drift independently (see the base class)."""
        return [
            (0, self.corpus.vocab_size),
            (self.corpus.vocab_size, self.num_keys()),
        ]

    # ------------------------------------------------------------------ training
    def num_data_points(self) -> int:
        return len(self._starts) - 1

    def create_shards(self, num_nodes: int, workers_per_node: int,
                      seed: int = 0) -> List[List[np.ndarray]]:
        rng = np.random.default_rng(seed)
        indices = np.arange(self.num_data_points())
        node_parts = self.partition_round_robin(indices, num_nodes, rng)
        return [
            self.partition_round_robin(part, workers_per_node, rng)
            for part in node_parts
        ]

    def register_sampling(self, ps: ParameterServer) -> None:
        distribution = UnigramDistribution(
            self.corpus.word_frequencies + 1e-12,
            power=self.unigram_power,
            key_offset=self.corpus.vocab_size,
        )
        self._distribution_id = ps.register_distribution(distribution, self.sampling_level)

    def prefetch(self, ps: ParameterServer, worker: WorkerContext,
                 data_indices: np.ndarray) -> None:
        data_indices = np.asarray(data_indices, dtype=np.int64)
        if len(data_indices) == 0:
            return
        keys = self._keys
        direct_keys = np.unique(np.concatenate([
            keys[lo:hi] for lo, hi in zip(self._starts[data_indices].tolist(),
                                          self._starts[data_indices + 1].tolist())
        ]))
        ps.localize(worker, direct_keys)

    def process_round(self, ps: ParameterServer, items) -> None:
        """Round execution for word vectors: sequential by design.

        Like KGE, every center word draws negative context words through the
        PS sampling API, whose shared pool/RNG state is strictly
        order-dependent across workers; batching across the round would
        change which negatives are drawn. The round engine therefore keeps
        the sequential per-worker order here.
        """
        sequential_process_round(self, ps, items)

    def process_chunk(self, ps: ParameterServer, worker: WorkerContext,
                      data_indices: np.ndarray, rng: np.random.Generator) -> int:
        if self._distribution_id is None:
            raise RuntimeError("register_sampling must be called before training")
        data_indices = np.asarray(data_indices, dtype=np.int64)
        if len(data_indices) == 0:
            return 0

        los = self._starts[data_indices]
        his = self._starts[data_indices + 1]
        total_pairs = int((his - los).sum()) - len(data_indices)
        stream = NegativeSampleStream(
            ps, worker, self._distribution_id, total_pairs * self.num_negatives
        )
        keys = self._keys
        for lo, hi in zip(los.tolist(), his.tolist()):
            self._train_token(ps, worker, keys[lo:hi], stream)
        return len(data_indices)

    def _train_token(self, ps: ParameterServer, worker: WorkerContext,
                     direct_keys: np.ndarray, stream: NegativeSampleStream) -> None:
        """One SGD step on one token (the fused kernel, see the module doc)."""
        num_pairs = len(direct_keys) - 1
        direct_values = ps.pull(worker, direct_keys)
        center_vec = direct_values[0]
        context_vecs = direct_values[1:]

        negatives = stream.next(num_pairs * self.num_negatives)
        neg_keys = negatives.keys
        num_negs = len(neg_keys)

        # Scores, then g = sigmoid(score) - label in place: label 1 for the
        # context pairs, 0 for the negative pairs.
        g = np.empty(num_pairs + num_negs, dtype=np.float32)
        pos_g = g[:num_pairs]
        neg_g = g[num_pairs:]
        np.dot(context_vecs, center_vec, out=pos_g)
        if num_negs:
            np.dot(negatives.values, center_vec, out=neg_g)
        g.clip(-30.0, 30.0, out=g)
        np.negative(g, out=g)
        np.exp(g, out=g)
        g += 1.0
        np.divide(1.0, g, out=g)
        pos_g -= 1.0

        # Row 0 updates the center, then one row per context and negative.
        deltas = np.empty((1 + num_pairs + num_negs, self.dim), dtype=np.float32)
        np.dot(pos_g, context_vecs, out=deltas[0])
        if num_negs:
            deltas[0] += neg_g.dot(negatives.values)
        np.multiply(g[:, None], center_vec, out=deltas[1:])
        deltas *= -self.learning_rate
        if self._clipper is not None:
            self._clipper.clip_rows(deltas)
        ps.push(worker, direct_keys, deltas[:num_pairs + 1])
        stream.push_updates(neg_keys, deltas[num_pairs + 1:])

        # One skip-gram pair is roughly one SGD step's worth of computation.
        worker.charge_compute(
            ps.network.compute_per_step * num_pairs * (1 + self.num_negatives) / 4.0
        )

    # ---------------------------------------------------------------- evaluation
    def evaluate(self, store: ParameterStore) -> Dict[str, float]:
        """Similarity-probe accuracy from the input vectors (percent)."""
        probes = self.corpus.similarity_probes
        if len(probes) == 0:
            return {"similarity_accuracy": 0.0}
        vectors = store.values[: self.corpus.vocab_size]
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        normalized = vectors / np.maximum(norms, 1e-12)
        anchor = normalized[probes[:, 0]]
        same = normalized[probes[:, 1]]
        different = normalized[probes[:, 2]]
        same_similarity = np.einsum("ij,ij->i", anchor, same)
        different_similarity = np.einsum("ij,ij->i", anchor, different)
        accuracy = float(np.mean(same_similarity > different_similarity)) * 100.0
        return {"similarity_accuracy": accuracy}
