"""Representation-quality toolkit for the shared embedding space.

Angular distance, the soft nearest neighbor measure (SNNM) of class
entanglement with a temperature sweep, the angular-similarity matrix of
per-content average context embeddings to content embeddings, and a plain
CSV embedding export for external visualization tools.

An SNNM sweep works sample by sample: one `snnm` call builds a sample's
(n, n) angular matrix and label masks once, then derives every temperature
of the grid from them. A sweep therefore costs `repetitions` angular
matrices plus `repetitions x temperatures` masked exponentials of an
(n, n) array, and holds one sample's matrices at a time (a few float64
(n, n) arrays, about 2 MB each at the CLI's n = 512).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .features import ViewingEvent, canonical_key, item_ids, universe_indices, vectorize_context
from .model import Catalog, TwoTowerModel, embed_context
from .nn_core import ShapeError, check_range
from .serialization import atomic_write


class DegenerateMeasure(ValueError):
    """Raised when a measure is undefined on the given sample."""


def angular_distance(x: np.ndarray, y: np.ndarray) -> float:
    """(1/pi) * arccos(cosine(x, y)) of 1-D vectors: `_angular` on one row each."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError("inputs must be 1-D vectors of equal length")
    return float(_angular(x[None], y[None])[0, 0])


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
            raise DegenerateMeasure("zero-norm embedding rows are not allowed")

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]

    def take(self, indices: np.ndarray) -> "LabeledEmbeddings":
        return LabeledEmbeddings(
            self.embeddings[indices], [self.labels[i] for i in indices]
        )


def _angular(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1/pi) * arccos(cosine) between every row of a and every row of b, as
    one normalized product, clamped to [-1, 1] to absorb rounding; passing the
    same array twice keeps numpy's symmetric a @ a.T kernel. Zero-norm rows are
    a DegenerateMeasure; serving scores them 0."""
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = na if b is a else np.linalg.norm(b, axis=1, keepdims=True)
    if np.any(na < 1e-12) or np.any(nb < 1e-12):
        raise DegenerateMeasure("angular distance is undefined for zero-norm vectors")
    normed_a = a / na
    normed_b = normed_a if b is a else b / nb
    return np.arccos(np.clip(normed_a @ normed_b.T, -1.0, 1.0)) / np.pi


def snnm(sample: LabeledEmbeddings, temperatures) -> tuple[np.ndarray, int]:
    """Soft nearest neighbor entanglement of the labeled sample at each
    temperature; values[i] belongs to temperatures[i].

    Lower is better (classes less entangled). The angular matrix and the
    label masks are built once per call; each temperature then pays only
    for its shifted exponentials and two masked row sums. Rows without a
    same-label neighbor are skipped at every temperature alike; returns
    (values, skipped_count).
    """
    temperatures = np.asarray(temperatures, dtype=np.float64)
    if temperatures.ndim != 1:
        raise ValueError("temperatures must be a 1-D sequence")
    if not np.all(temperatures > 0):
        raise ValueError("temperatures must be positive")
    n = sample.size
    if n < 2:
        raise DegenerateMeasure("need at least two embeddings")
    # map labels (possibly unhashable-unfriendly tuples) to class codes
    codes_map: dict = {}
    codes = np.array([codes_map.setdefault(l, len(codes_map)) for l in sample.labels])
    off = ~np.eye(n, dtype=bool)
    same = (codes[:, None] == codes[None, :]) & off
    kept = same.any(axis=1)
    if not kept.any():
        raise DegenerateMeasure("every row lacked a same-label neighbor")
    neg = np.where(off, -_angular(sample.embeddings, sample.embeddings), -np.inf)
    top = neg.max(axis=1, keepdims=True)

    values = np.empty(len(temperatures))
    for i, t in enumerate(temperatures):
        # -theta / t with -inf on the diagonal, shifted by its row max; a
        # positive divisor keeps the -inf and the argmax, so these are the
        # bits of dividing first and taking the max after
        w = neg / t
        w -= top / t
        np.exp(w, out=w)  # 0 on the diagonal
        num = np.where(same, w, 0.0).sum(axis=1)
        values[i] = np.mean(-np.log(num[kept] / w.sum(axis=1)[kept]))
    return values, int(n - kept.sum())


@dataclass
class SnnmCurve:
    temperatures: np.ndarray
    means: np.ndarray
    ci95: np.ndarray
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
    replacement; all draws come first, so the RNG stream does not depend
    on the grid. Then each sample gets one snnm call over the whole grid,
    so only one sample's (n, n) matrices are alive at a time. CIs use the
    normal approximation over repetition means.
    """
    if temperatures is None:
        temperatures = np.logspace(-2, 2, 20)
    if rng is None:
        rng = np.random.default_rng(0)
    temperatures = np.asarray(temperatures, dtype=np.float64)
    if np.any(np.diff(temperatures) <= 0):
        raise ValueError("temperature grid must be strictly increasing")
    check_range("repetitions", repetitions, 1, integer=True)

    avail = all_embeddings.size
    draws = [rng.choice(avail, size=n, replace=n > avail) for _ in range(repetitions)]
    table = np.empty((repetitions, len(temperatures)))
    skipped = 0
    for r, idx in enumerate(draws):
        table[r], sk = snnm(all_embeddings.take(idx), temperatures)
        skipped += sk

    # column by column: a 1-D mean sums in another order than an axis-0 one
    means = np.array([col.mean() for col in table.T])
    if repetitions > 1:
        ci95 = np.array([1.96 * col.std(ddof=1) / np.sqrt(repetitions) for col in table.T])
    else:
        ci95 = np.zeros(len(temperatures))
    return SnnmCurve(
        temperatures=temperatures,
        means=means,
        ci95=ci95,
        skipped_term_counts=np.full(len(temperatures), skipped),
    )


def context_embeddings_by_content(
    test_log: list[ViewingEvent], model: TwoTowerModel
) -> tuple[np.ndarray, list]:
    """Context embeddings of every test event with its content label."""
    vecs = vectorize_context(test_log, model.schema)
    codes, keys = item_ids(test_log)
    return embed_context(model, vecs), [keys[c] for c in codes.tolist()]


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
    ctx_emb = embed_context(model, vectorize_context(test_log, model.schema))
    where = universe_indices(test_log, catalog.items)

    values = np.full((m, m), np.nan)
    dispersion = np.full(m, np.nan)
    empty = np.bincount(where[where >= 0], minlength=m) == 0
    present = np.flatnonzero(~empty)
    if present.size:
        groups = [ctx_emb[where == i] for i in present]  # rows in log order
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
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"e{j}" for j in range(dim)])
        if dim == 0:
            writer.writerows([label] for label in labels)
            return
        # csv quotes each label cell, written as "<cell>,\r\n" into a scratch
        # buffer; the floats never need quoting, so a row's values are one
        # %-format, with the digits of format(v, ".17g")
        buf = io.StringIO()
        cell = csv.writer(buf)
        values = ",".join(["%.17g"] * dim) + "\r\n"
        for label, row in zip(labels, embeddings):
            buf.seek(0)
            buf.truncate()
            cell.writerow([label, ""])
            fh.write(buf.getvalue()[:-2] + values % tuple(row.tolist()))


def import_embeddings(path) -> tuple[np.ndarray, list]:
    """Inverse of export_embeddings."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 1
        labels, rows = [], []
        for rec in reader:
            labels.append(rec[0])
            rows.append([float(v) for v in rec[1:]])
    emb = np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, dim))
    return emb, labels
