"""Representation-quality toolkit for the shared embedding space.

Angular distance, the soft nearest neighbor measure (SNNM) of class
entanglement with a temperature sweep, per-content average context
embeddings, the context/content angular-similarity matrix, and a plain
CSV embedding export for external visualization tools.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .features import ViewingEvent, canonical_key, vectorize_context
from .model import Catalog, TwoTowerModel, embed_context
from .nn_core import ShapeError


class DegenerateMeasure(ValueError):
    """Raised when a measure is undefined on the given sample."""


def angular_distance(x: np.ndarray, y: np.ndarray) -> float:
    """(1/pi) * arccos(cosine(x, y)); a proper metric on directions.

    The cosine is clamped to [-1, 1] before arccos to absorb rounding.
    Zero-norm inputs are a domain error here (unlike serving relevance).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError("inputs must be 1-D vectors of equal length")
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx < 1e-12 or ny < 1e-12:
        raise ValueError("angular distance is undefined for zero-norm vectors")
    c = np.clip(np.dot(x, y) / (nx * ny), -1.0, 1.0)
    return float(np.arccos(c) / np.pi)


@dataclass
class LabeledEmbeddings:
    """Embeddings with their content labels; zero-norm rows are rejected."""

    embeddings: np.ndarray  # (n, E)
    labels: list

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] != len(self.labels):
            raise ShapeError("embeddings must be (n, E) with one label per row")
        if np.any(np.linalg.norm(self.embeddings, axis=1) < 1e-12):
            raise ValueError("zero-norm embedding rows are not allowed")

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]

    def take(self, indices: np.ndarray) -> "LabeledEmbeddings":
        return LabeledEmbeddings(
            self.embeddings[indices], [self.labels[i] for i in indices]
        )


def _angular(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angular distance between every row of a and every row of b.

    Same measure as angular_distance, as one normalized product; passing
    the same array twice keeps numpy's symmetric a @ a.T kernel.
    """
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = na if b is a else np.linalg.norm(b, axis=1, keepdims=True)
    if np.any(na < 1e-12) or np.any(nb < 1e-12):
        raise ValueError("angular distance is undefined for zero-norm vectors")
    normed_a = a / na
    normed_b = normed_a if b is a else b / nb
    return np.arccos(np.clip(normed_a @ normed_b.T, -1.0, 1.0)) / np.pi


def snnm(sample: LabeledEmbeddings, temperature: float) -> tuple[float, int]:
    """Soft nearest neighbor entanglement of the labeled sample.

    Lower is better (classes less entangled). Rows without a same-label
    neighbor are skipped and counted; returns (value, skipped_count).
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    n = sample.size
    if n < 2:
        raise ValueError("need at least two embeddings")
    theta = _angular(sample.embeddings, sample.embeddings)
    # map labels (possibly unhashable-unfriendly tuples) to class codes
    codes_map: dict = {}
    codes = np.array([codes_map.setdefault(l, len(codes_map)) for l in sample.labels])
    off = ~np.eye(n, dtype=bool)
    same = (codes[:, None] == codes[None, :]) & off
    kept = same.any(axis=1)
    if not kept.any():
        raise DegenerateMeasure("every row lacked a same-label neighbor")

    logw = np.where(off, -theta / temperature, -np.inf)
    w = np.exp(logw - logw.max(axis=1, keepdims=True))  # 0 on the diagonal
    num = np.where(same, w, 0.0).sum(axis=1)
    terms = -np.log(num[kept] / w.sum(axis=1)[kept])
    return float(np.mean(terms)), int(n - kept.sum())


@dataclass
class SnnmCurve:
    temperatures: np.ndarray
    means: np.ndarray
    ci95: np.ndarray
    repetitions: int
    sample_size: int
    skipped_term_counts: np.ndarray  # total skipped rows per temperature


def snnm_sweep(
    all_embeddings: LabeledEmbeddings,
    temperatures: np.ndarray | None = None,
    repetitions: int = 20,
    n: int = 512,
    rng: np.random.Generator | None = None,
) -> SnnmCurve:
    """Mean SNNM and 95% CI per temperature over repeated random samples.

    Samples are drawn without replacement when n <= available, else with
    replacement. CIs use the normal approximation over repetition means.
    """
    if temperatures is None:
        temperatures = np.logspace(-2, 2, 20)
    if rng is None:
        rng = np.random.default_rng(0)
    temperatures = np.asarray(temperatures, dtype=np.float64)
    if np.any(np.diff(temperatures) <= 0):
        raise ValueError("temperature grid must be strictly increasing")

    avail = all_embeddings.size
    samples = []
    for _ in range(repetitions):
        if n <= avail:
            idx = rng.choice(avail, size=n, replace=False)
        else:
            idx = rng.choice(avail, size=n, replace=True)
        samples.append(all_embeddings.take(idx))

    means = np.empty(len(temperatures))
    ci95 = np.empty(len(temperatures))
    skipped_totals = np.zeros(len(temperatures), dtype=int)
    for ti, t in enumerate(temperatures):
        vals = []
        for s in samples:
            v, sk = snnm(s, t)
            vals.append(v)
            skipped_totals[ti] += sk
        vals = np.asarray(vals)
        means[ti] = vals.mean()
        if repetitions > 1:
            ci95[ti] = 1.96 * vals.std(ddof=1) / np.sqrt(repetitions)
        else:
            ci95[ti] = 0.0
    return SnnmCurve(
        temperatures=temperatures,
        means=means,
        ci95=ci95,
        repetitions=repetitions,
        sample_size=n,
        skipped_term_counts=skipped_totals,
    )


def context_embeddings_by_content(
    test_log: list[ViewingEvent], model: TwoTowerModel
) -> tuple[np.ndarray, list]:
    """Context embeddings of every test event with its content label."""
    vecs = np.stack([vectorize_context(e, model.schema) for e in test_log])
    return embed_context(model, vecs), [e.item_key() for e in test_log]


def average_context_embedding(
    test_log: list[ViewingEvent], model: TwoTowerModel, content_key
) -> np.ndarray:
    """Arithmetic mean of context embeddings over events with that content."""
    selected = [e for e in test_log if e.item_key() == content_key]
    if not selected:
        raise ValueError(f"no test events with content {content_key!r}")
    vecs = np.stack([vectorize_context(e, model.schema) for e in selected])
    return embed_context(model, vecs).mean(axis=0)


@dataclass
class SimilarityMatrix:
    content_keys: list  # row/column identities, catalog order
    values: np.ndarray  # (M, M) angular similarities; NaN rows are flagged empty
    dispersion: np.ndarray  # per-row mean angular similarity to the centroid
    empty_rows: np.ndarray  # bool mask of contents absent from the test log


def similarity_matrix(
    test_log: list[ViewingEvent], model: TwoTowerModel, catalog: Catalog
) -> SimilarityMatrix:
    """Angular similarity of per-content average context embeddings to all
    content embeddings, plus a per-row dispersion column.

    Entry (i, j) = 1 - theta(mean context embedding of content i, content
    embedding j). Dispersion row i is the mean of 1 - theta(mean, each
    context embedding of content i). Contents without test events yield a
    NaN row flagged in empty_rows.
    """
    keys = [canonical_key(it) for it in catalog.items]
    m = catalog.size
    ctx_emb, labels = context_embeddings_by_content(test_log, model)
    by_content: dict = {}
    for row, label in zip(ctx_emb, labels):
        by_content.setdefault(label, []).append(row)

    values = np.full((m, m), np.nan)
    dispersion = np.full(m, np.nan)
    empty = np.array([key not in by_content for key in keys], dtype=bool)
    present = np.flatnonzero(~empty)
    if present.size:
        groups = [np.stack(by_content[keys[i]]) for i in present]
        means = np.stack([g.mean(axis=0) for g in groups])
        values[present] = 1.0 - _angular(means, catalog.embeddings)
        dispersion[present] = [
            np.mean(1.0 - _angular(mean[None, :], g)) for mean, g in zip(means, groups)
        ]
    return SimilarityMatrix(
        content_keys=keys, values=values, dispersion=dispersion, empty_rows=empty
    )


def export_embeddings(embeddings: np.ndarray, labels: list, path) -> None:
    """CSV dump: one row per embedding with its label, 17 significant digits."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if len(labels) != embeddings.shape[0]:
        raise ShapeError("one label per embedding row required")
    dim = embeddings.shape[1] if embeddings.ndim == 2 else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"e{j}" for j in range(dim)])
        for label, row in zip(labels, embeddings):
            writer.writerow([label] + [format(v, ".17g") for v in row])


def import_embeddings(path) -> tuple[np.ndarray, list]:
    """Inverse of export_embeddings."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 1
        labels, rows = [], []
        for rec in reader:
            labels.append(rec[0])
            rows.append([float(v) for v in rec[1:]])
    emb = np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, dim))
    return emb, labels
