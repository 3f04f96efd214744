"""Representation-quality toolkit for the shared embedding space.

Angular distance, the soft nearest neighbor measure (SNNM) of class
entanglement with a temperature sweep, the angular-similarity matrix of
per-content average context embeddings to content embeddings, and a plain
CSV embedding export for external visualization tools. Context
embeddings come from one vectorize and one forward call over the whole
test log, through the sparse first layer when the context is wide.

An SNNM sweep works sample by sample: one `snnm` call builds a sample's
(n, n) angular matrix once, then scores the rows that have a same-label
neighbor over the whole temperature grid, one block of rows at a time. A
sweep therefore costs `repetitions` angular matrices plus `repetitions x
temperatures` masked exponentials of the kept rows. It holds one angular
matrix at a time (2 MB at the CLI's n = 512) and three SNNM_BLOCK-element
buffers (256 KB each), besides the transient arrays of building that
matrix.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .features import ViewingEvent, canonical_key, item_ids, universe_indices, vectorize_context
from .model import Catalog, TwoTowerModel, embed_context
from .nn_core import (DegenerateMeasure, ShapeError, check_finite, check_nonzero_norms,
                      check_range, finite_row_norms)
from .serialization import atomic_write


def angular_distance(x: np.ndarray, y: np.ndarray) -> float:
    """(1/pi) * arccos(cosine(x, y)) of 1-D vectors: `_angular` on one row each."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError("inputs must be 1-D vectors of equal length")
    return float(_angular(x[None], y[None])[0, 0])


@dataclass
class LabeledEmbeddings:
    """Embeddings with their content labels; a row whose norm is not finite
    is a FloatingPointError, and a zero-norm row a DegenerateMeasure."""

    embeddings: np.ndarray  # (n, E)
    labels: list

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] != len(self.labels):
            raise ShapeError("embeddings must be (n, E) with one label per row")
        check_nonzero_norms(finite_row_norms("embedding norms", self.embeddings))

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]

    def take(self, indices: np.ndarray) -> "LabeledEmbeddings":
        return LabeledEmbeddings(self.embeddings[indices], [self.labels[i] for i in indices])


def _angular(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1/pi) * arccos(cosine) between every row of a and every row of b, as
    one normalized product, clamped to [-1, 1] to absorb rounding; passing the
    same array twice keeps numpy's symmetric a @ a.T kernel. A zero-norm row is
    a DegenerateMeasure, a non-finite norm FloatingPointError."""
    na = finite_row_norms("embedding norms", a)[:, None]
    nb = na if b is a else finite_row_norms("embedding norms", b)[:, None]
    check_nonzero_norms(na)
    check_nonzero_norms(nb)
    normed_a = a / na
    normed_b = normed_a if b is a else b / nb
    return np.arccos(np.clip(normed_a @ normed_b.T, -1.0, 1.0)) / np.pi


# Elements in one row block of the SNNM temperature loop: 64 rows at the
# CLI's n = 512. README "SNNM over row blocks" has the measured table.
SNNM_BLOCK = 32768


def snnm(sample: LabeledEmbeddings, temperatures) -> tuple[np.ndarray, int]:
    """Soft nearest neighbor entanglement of the labeled sample at each
    temperature; values[i] belongs to temperatures[i].

    Lower is better (classes less entangled). The angular matrix is built
    once per call. Rows without a same-label neighbor are skipped at every
    temperature alike; the others go through the whole grid in blocks of
    about SNNM_BLOCK elements, so a block stays in cache while each
    temperature pays for its shifted exponentials and two masked row sums.
    Every step is elementwise or a per-row reduction, so the values are
    those of whole (n, n) arrays. Returns (values, skipped_count).
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
    kept = np.flatnonzero(np.bincount(codes)[codes] > 1)
    if not kept.size:
        raise DegenerateMeasure("every row lacked a same-label neighbor")
    theta = _angular(sample.embeddings, sample.embeddings)

    rows = max(1, min(kept.size, SNNM_BLOCK // n))
    neg_buf, w_buf, same_buf = (np.empty((rows, n)) for _ in range(3))
    num, den = np.empty((2, len(temperatures), kept.size))
    for s in range(0, kept.size, rows):
        block = kept[s:s + rows]
        r = block.size
        neg, w, same = neg_buf[:r], w_buf[:r], same_buf[:r]
        # -theta with -inf on the diagonal, and 1.0 where the labels match
        # (on the diagonal too, where the weight is 0)
        np.take(theta, block, axis=0, out=neg)
        np.negative(neg, out=neg)
        neg[np.arange(r), block] = -np.inf
        top = neg.max(axis=1, keepdims=True)
        np.equal(codes[block, None], codes, out=same)
        for i, t in enumerate(temperatures):
            # -theta / t shifted by its row max; a positive divisor keeps the
            # -inf and the argmax, so these are the bits of dividing first
            # and taking the max after
            np.divide(neg, t, out=w)
            np.subtract(w, top / t, out=w)
            np.exp(w, out=w)  # in [0, 1], 0 on the diagonal
            np.sum(w, axis=1, out=den[i, s:s + r])
            np.multiply(w, same, out=w)
            np.sum(w, axis=1, out=num[i, s:s + r])
    return (-np.log(num / den)).mean(axis=1), int(n - kept.size)


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


def _context_embeddings(test_log: list[ViewingEvent], model: TwoTowerModel) -> np.ndarray:
    """One vectorize and one forward call; finite weights can still overflow
    to inf or nan, which is a FloatingPointError instead of a warning."""
    vecs = vectorize_context(test_log, model.schema)
    with np.errstate(all="ignore"):
        emb = embed_context(model, vecs)
    check_finite("context embeddings", emb)
    return emb


def context_embeddings_by_content(
    test_log: list[ViewingEvent], model: TwoTowerModel
) -> tuple[np.ndarray, list]:
    """Context embeddings of every test event with its content label."""
    emb = _context_embeddings(test_log, model)
    codes, keys = item_ids(test_log)
    return emb, [keys[c] for c in codes.tolist()]


@dataclass
class SimilarityMatrix:
    content_keys: list  # row/column identities, catalog order
    values: np.ndarray  # (M, M) angular similarities; NaN rows are flagged empty
    dispersion: np.ndarray  # per-row mean angular similarity to the centroid
    empty_rows: np.ndarray  # bool mask of contents absent from the test log


@np.errstate(all="ignore")  # a mean that overflows fails _angular's norm check
def similarity_matrix(
    test_log: list[ViewingEvent], model: TwoTowerModel, catalog: Catalog
) -> SimilarityMatrix:
    """Angular similarity of per-content average context embeddings to all
    content embeddings, plus a per-row dispersion column.

    Entry (i, j) = 1 - theta(mean context embedding of content i, content
    embedding j). Dispersion row i is the mean of 1 - theta(mean, each
    context embedding of content i). Contents without test events yield a
    NaN row flagged in empty_rows. Non-finite context embeddings or norms
    are a FloatingPointError.
    """
    keys = [canonical_key(it) for it in catalog.items]
    m = catalog.size
    ctx_emb = _context_embeddings(test_log, model)
    where = universe_indices(test_log, catalog.items)

    values = np.full((m, m), np.nan)
    dispersion = np.full(m, np.nan)
    counts = np.bincount(where[where >= 0], minlength=m)
    empty = counts == 0
    present = np.flatnonzero(~empty)
    if present.size:
        # one stable sort groups the rows by content, each group in log order
        order = np.argsort(where, kind="stable")[np.count_nonzero(where < 0):]
        groups = np.split(ctx_emb[order], np.cumsum(counts[present])[:-1])
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
