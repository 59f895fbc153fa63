"""The fused word-vector training step against the plain skip-gram step.

``WordVectorsTask._train_token`` computes the positive and negative scores
into one buffer, writes all update rows into one stacked block and clips the
block with one vectorised ``UpdateNormClipper.clip_rows`` call.
:func:`reference_train_token` below is the straightforward formulation: a
sigmoid per score block, separate gradient arrays and two per-row clipping
passes (:func:`reference_clip_rows`). Both are driven through the same
recording PS, and every pushed key and delta, every compute charge and the
final clipper state must be bit-identical (equal bytes, so a flipped sign of
zero fails too).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro.data.corpus import generate_corpus
from repro.ml.negative_sampling import NegativeSampleStream
from repro.ml.optimizer import UpdateNormClipper
from repro.ml.word2vec import WordVectorsTask
from repro.ps.base import PullResult


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x.clip(-30.0, 30.0)))


def reference_clip_rows(clipper, updates: np.ndarray) -> np.ndarray:
    """Row-wise clipping with one BLAS dot per row."""
    n = len(updates)
    if n == 0:
        return updates
    dots = np.empty(n, dtype=np.float32)
    for i, row in enumerate(updates):
        dots[i] = row.dot(row)
    norms = np.sqrt(dots).tolist()
    count = clipper._count
    mean = clipper._mean_norm
    factor = clipper.factor
    warmup = clipper.warmup
    for i, norm in enumerate(norms):
        if count >= warmup and mean > 0 and norm > factor * mean:
            updates[i] = updates[i] * (factor * mean / max(norm, 1e-12))
            norm = factor * mean
        if norm > 0:
            count += 1
            mean += (norm - mean) / count
    clipper._count = count
    clipper._mean_norm = mean
    return updates


def reference_build_positions(corpus, window: int
                              ) -> Tuple[np.ndarray, List[np.ndarray]]:
    """One data point per token: its word id and the context word ids."""
    centers: List[int] = []
    contexts: List[np.ndarray] = []
    for sentence in corpus.sentences:
        length = len(sentence)
        for i in range(length):
            lo = max(0, i - window)
            hi = min(length, i + window + 1)
            context = np.concatenate([sentence[lo:i], sentence[i + 1: hi]])
            if len(context) == 0:
                continue
            centers.append(int(sentence[i]))
            contexts.append(context.astype(np.int64))
    return np.asarray(centers, dtype=np.int64), contexts


class ReferenceStep:
    """The unfused step, with its own clipper so both sides start equal."""

    def __init__(self, task, clipper):
        self.task = task
        self.clipper = clipper
        self.clipped_rows = 0

    def clip_rows(self, updates):
        if self.clipper is None:
            return updates
        before = updates.copy()
        updates = reference_clip_rows(self.clipper, updates)
        self.clipped_rows += int(np.any(updates != before, axis=1).sum())
        return updates

    def train_token(self, ps, worker, center, contexts, stream):
        task = self.task
        num_pairs = len(contexts)

        direct_keys = np.empty(num_pairs + 1, dtype=np.int64)
        direct_keys[0] = center
        direct_keys[1:] = task.corpus.vocab_size + contexts
        direct_values = ps.pull(worker, direct_keys)
        center_vec = direct_values[0]
        context_vecs = direct_values[1:]

        negatives = stream.next(num_pairs * task.num_negatives)
        neg_vecs = negatives.values

        # Positive pairs: label 1.
        pos_g = reference_sigmoid(context_vecs.dot(center_vec)) - 1.0
        grad_center = pos_g.dot(context_vecs)
        grad_contexts = pos_g[:, None] * center_vec[None, :]

        # Negative pairs: label 0 (each negative is paired with the center).
        if len(neg_vecs):
            neg_g = reference_sigmoid(neg_vecs.dot(center_vec))
            grad_center = grad_center + neg_g.dot(neg_vecs)
            grad_negs = neg_g[:, None] * center_vec[None, :]
        else:
            grad_negs = np.empty((0, task.dim), dtype=np.float32)

        deltas = np.empty((len(grad_contexts) + 1, task.dim), dtype=np.float32)
        deltas[0] = -task.learning_rate * grad_center
        deltas[1:] = -task.learning_rate * grad_contexts
        deltas = self.clip_rows(deltas)
        ps.push(worker, direct_keys, deltas)

        if len(negatives.keys):
            neg_deltas = self.clip_rows(-task.learning_rate * grad_negs)
            stream.push_updates(negatives.keys, neg_deltas)

        worker.charge_compute(
            ps.network.compute_per_step * num_pairs * (1 + task.num_negatives) / 4.0
        )


class _Store:
    def __init__(self, value_length):
        self.value_length = value_length


class _Network:
    compute_per_step = 3.7e-6


class RecordingWorker:
    def __init__(self):
        self.charges = []

    def charge_compute(self, seconds):
        self.charges.append(seconds)


class RecordingPS:
    """Serves values of varied scale and records every call the step makes."""

    def __init__(self, num_keys, value_length, seed):
        self.store = _Store(value_length)
        self.network = _Network()
        self.num_keys = num_keys
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def _values(self, count):
        dim = self.store.value_length
        # Row scales from 1e-3 to 30 (so the sigmoid clip at +-30 fires),
        # and about one row in six all zero, like untrained output vectors.
        scales = 10.0 ** self.rng.uniform(-3.0, 1.5, size=(count, 1))
        scales[self.rng.random(count) < 1 / 6] = 0.0
        return (self.rng.normal(size=(count, dim)) * scales).astype(np.float32)

    def pull(self, worker, keys):
        self.calls.append(("pull", np.array(keys)))
        return self._values(len(keys))

    def prepare_sample(self, worker, distribution_id, count):
        self.calls.append(("prepare_sample", count))
        return distribution_id

    def pull_sample(self, worker, handle, count):
        keys = self.rng.integers(0, self.num_keys, size=count)
        self.calls.append(("pull_sample", keys.copy()))
        return PullResult(keys=keys, values=self._values(count))

    def push(self, worker, keys, deltas):
        self.calls.append(("push", np.array(keys), np.array(deltas)))

    def push_sample(self, worker, keys, deltas):
        self.calls.append(("push_sample", np.array(keys), np.array(deltas)))


def _assert_same_calls(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got[0] == want[0]
        for got_part, want_part in zip(got[1:], want[1:]):
            if isinstance(want_part, np.ndarray):
                assert got_part.dtype == want_part.dtype
                assert got_part.shape == want_part.shape
                assert np.array_equal(got_part, want_part), got[0]
                assert got_part.tobytes() == want_part.tobytes(), got[0]
            else:
                assert got_part == want_part


@pytest.fixture(scope="module")
def corpus():
    # A one-word sentence has no context and yields no data point; a
    # two-word one gives both tokens a single context word.
    corpus = generate_corpus(vocab_size=80, num_sentences=60, sentence_length=5,
                             num_topics=4, seed=5)
    corpus.sentences[3] = corpus.sentences[3][:1]
    corpus.sentences[7] = corpus.sentences[7][:2]
    return corpus


CLIPPING = {"off": None, "factor2": (2.0, 100), "factor1.05": (1.05, 5)}


def _clipper(setting):
    return None if setting is None else UpdateNormClipper(*setting)


@pytest.mark.parametrize("clipping", sorted(CLIPPING))
@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("num_negatives", [0, 1, 3])
@pytest.mark.parametrize("dim", [1, 3, 8])
def test_fused_step_is_bit_identical_to_reference(corpus, dim, num_negatives,
                                                  window, clipping):
    task = WordVectorsTask(corpus, dim=dim, window=window,
                           num_negatives=num_negatives, learning_rate=0.7)
    task._clipper = _clipper(CLIPPING[clipping])
    reference = ReferenceStep(task, _clipper(CLIPPING[clipping]))
    centers, contexts = reference_build_positions(corpus, window)
    rng = np.random.default_rng(dim * 100 + num_negatives * 10 + window)
    tokens = rng.integers(0, task.num_data_points(), size=60).tolist()
    total_pairs = sum(len(contexts[i]) for i in tokens)
    seed = 7 + dim + num_negatives + window

    def drive(step):
        ps = RecordingPS(task.num_keys(), task.value_length(), seed)
        worker = RecordingWorker()
        stream = NegativeSampleStream(ps, worker, 0,
                                      total_pairs * task.num_negatives)
        for index in tokens:
            step(ps, worker, index, stream)
        return ps.calls, worker.charges

    expected_calls, expected_charges = drive(
        lambda ps, worker, index, stream: reference.train_token(
            ps, worker, int(centers[index]), contexts[index], stream))
    starts = task._starts
    actual_calls, actual_charges = drive(
        lambda ps, worker, index, stream: task._train_token(
            ps, worker, task._keys[starts[index]:starts[index + 1]], stream))

    _assert_same_calls(actual_calls, expected_calls)
    assert actual_charges == expected_charges
    if task._clipper is not None:
        assert task._clipper._count == reference.clipper._count
        assert task._clipper._mean_norm == reference.clipper._mean_norm
    if clipping == "factor1.05":
        assert reference.clipped_rows > 0


@pytest.mark.parametrize("window", [1, 2, 3])
def test_flat_positions_match_per_token_contexts(corpus, window):
    task = WordVectorsTask(corpus, dim=2, window=window)
    centers, contexts = reference_build_positions(corpus, window)
    vocab = corpus.vocab_size
    assert task.num_data_points() == len(centers)
    assert not task._keys.flags.writeable
    for index in range(len(centers)):
        keys = task._keys[task._starts[index]:task._starts[index + 1]]
        assert keys[0] == centers[index]
        assert np.array_equal(keys[1:], vocab + contexts[index])
        assert np.array_equal(task._contexts[index], contexts[index])


@pytest.mark.parametrize("dim", [1, 3, 4, 8, 16])
def test_clip_rows_matches_per_row_clip(dim):
    rng = np.random.default_rng(dim)
    rows = (rng.normal(size=(400, dim))
            * 10.0 ** rng.uniform(-3.0, 2.0, size=(400, 1))).astype(np.float32)
    rows[rng.random(400) < 0.2] = 0.0
    batched = UpdateNormClipper(1.05, warmup=5)
    single = UpdateNormClipper(1.05, warmup=5)
    clipped = 0
    for start in range(0, 400, 7):
        block = rows[start:start + 7].copy()
        expected = np.stack([single.clip(row) for row in block])
        actual = batched.clip_rows(block)
        assert actual.tobytes() == expected.tobytes()
        clipped += int(np.any(expected != rows[start:start + 7], axis=1).sum())
    assert (batched._count, batched._mean_norm) == (single._count, single._mean_norm)
    assert clipped > 0
    # An all-zero block neither clips nor moves the running mean.
    zeros = np.zeros((3, dim), dtype=np.float32)
    assert batched.clip_rows(zeros).tobytes() == bytes(3 * dim * 4)
    assert (batched._count, batched._mean_norm) == (single._count, single._mean_norm)
