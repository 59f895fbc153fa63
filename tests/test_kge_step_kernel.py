"""The fused KGE training step against the plain ComplEx + AdaGrad step.

``KGETask._train_triple`` gathers the positive triple and all negatives into
one stacked block and differentiates it with a handful of full-width NumPy
expressions. :func:`reference_train_triple` below is the straightforward
formulation: batched ``ComplExModel.score``/``gradients`` calls, per-block
gradient sums and two AdaGrad calls. Both are driven through the same
recording PS, and every pushed key and delta must be bit-identical (equal
bytes, so a flipped sign of zero fails too).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.knowledge_graph import generate_knowledge_graph
from repro.ml.kge import KGETask, _sigmoid
from repro.ml.negative_sampling import NegativeSampleStream
from repro.ps.base import PullResult


def reference_train_triple(task, ps, worker, subject, relation, obj, stream):
    """One SGD step on one triple, written with the model's public API."""
    model = task.model
    dim2 = 2 * task.dim
    direct_keys = np.asarray(
        [subject, task.relation_key(relation), obj], dtype=np.int64
    )
    direct_values = ps.pull(worker, direct_keys)
    s_w = direct_values[0, :dim2]
    r_w = direct_values[1, :dim2]
    o_w = direct_values[2, :dim2]

    negatives = stream.next(2 * task.num_negatives)
    neg_keys = negatives.keys
    neg_w = negatives.values[:, :dim2]
    half = len(neg_keys) // 2
    rest = len(neg_keys) - half

    # Row 0 is (s, r, o), rows 1..half perturb the subject, the remaining
    # rows perturb the object.
    batch = 1 + len(neg_keys)
    subjects = np.empty((batch, dim2), dtype=np.float32)
    objects = np.empty((batch, dim2), dtype=np.float32)
    subjects[0] = s_w
    objects[0] = o_w
    subjects[1:1 + half] = neg_w[:half]
    objects[1:1 + half] = o_w
    subjects[1 + half:] = s_w
    objects[1 + half:] = neg_w[half:]

    scores = model.score(subjects, r_w, objects)
    dscores = _sigmoid(scores)
    dscores[0] = dscores[0] - 1.0  # positive triple: label 1
    g_subj, g_rel, g_obj = model.gradients(subjects, r_w, objects, dscores)

    # Positive gradient, then the perturbed-subject block, then the
    # perturbed-object block.
    grad_s = g_subj[0]
    grad_r = g_rel[0]
    grad_o = g_obj[0]
    if half:
        grad_r = grad_r + g_rel[1:1 + half].sum(axis=0)
        grad_o = grad_o + g_obj[1:1 + half].sum(axis=0)
    if rest:
        grad_s = grad_s + g_subj[1 + half:].sum(axis=0)
        grad_r = grad_r + g_rel[1 + half:].sum(axis=0)

    if task.regularization:
        grad_s = grad_s + task.regularization * s_w
        grad_r = grad_r + task.regularization * r_w
        grad_o = grad_o + task.regularization * o_w

    direct_grads = np.empty((3, dim2), dtype=np.float32)
    direct_grads[0] = grad_s
    direct_grads[1] = grad_r
    direct_grads[2] = grad_o
    direct_deltas = task.optimizer.compute_update(direct_values, direct_grads)
    ps.push(worker, direct_keys, direct_deltas)

    if len(neg_keys):
        neg_grads = np.empty((len(neg_keys), dim2), dtype=np.float32)
        neg_grads[:half] = g_subj[1:1 + half]
        neg_grads[half:] = g_obj[1 + half:]
        neg_deltas = task.optimizer.compute_update(negatives.values, neg_grads)
        stream.push_updates(neg_keys, neg_deltas)


class _Store:
    def __init__(self, value_length):
        self.value_length = value_length


class RecordingPS:
    """Serves random values and records every call the step makes."""

    def __init__(self, num_keys, value_length, seed):
        self.store = _Store(value_length)
        self.num_keys = num_keys
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def _values(self, count):
        dim2 = self.store.value_length // 2
        weights = self.rng.normal(0.0, 0.5, size=(count, dim2))
        # Nonzero AdaGrad accumulators of varied magnitude.
        accumulators = self.rng.uniform(1e-4, 2.0, size=(count, dim2))
        return np.concatenate([weights, accumulators], axis=1).astype(np.float32)

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


def _drive(step, task, seed, triples):
    ps = RecordingPS(task.num_keys(), task.value_length(), seed)
    worker = object()
    stream = NegativeSampleStream(ps, worker, 0,
                                  len(triples) * 2 * task.num_negatives)
    for subject, relation, obj in triples:
        step(task, ps, worker, subject, relation, obj, stream)
    return ps.calls


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
def graph():
    return generate_knowledge_graph(
        num_entities=60, num_relations=5, num_triples=300, seed=11
    )


@pytest.mark.parametrize("regularization", [0.0, 0.01])
@pytest.mark.parametrize("num_negatives", [0, 1, 4])
@pytest.mark.parametrize("dim", [1, 3, 8])
def test_fused_step_is_bit_identical_to_reference(graph, dim, num_negatives,
                                                  regularization):
    task = KGETask(graph, dim=dim, num_negatives=num_negatives,
                   regularization=regularization)
    rng = np.random.default_rng(dim * 100 + num_negatives)
    triples = [
        (int(rng.integers(graph.num_entities)),
         int(rng.integers(graph.num_relations)),
         int(rng.integers(graph.num_entities)))
        for _ in range(40)
    ]
    seed = 7 + dim + num_negatives
    expected = _drive(reference_train_triple, task, seed, triples)
    actual = _drive(KGETask._train_triple, task, seed, triples)
    _assert_same_calls(actual, expected)

