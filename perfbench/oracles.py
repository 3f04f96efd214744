"""Reference computations that share no code with the program under test.

The benchmark checks the program's outputs against these. They use only
NumPy, the checkpoint's weight arrays and the schema's vocabularies and
ranges, so a defect in the program's vectorizer, encoder forward pass,
scoring or ranking shows up as a mismatch instead of being reproduced.
"""

from __future__ import annotations

import math

import numpy as np

NUMERIC = "numeric"
MULTI = "categorical_multi"

# Scores from two different float evaluation orders agree to about 1e-15;
# items whose reference scores lie closer than this may swap places.
SCORE_TOL = 1e-9


def canonical(attrs: dict) -> tuple:
    """Order-free identity of an attribute dict."""
    return tuple(
        (name, tuple(sorted(v)) if isinstance(v, (list, tuple, set, frozenset)) else v)
        for name, v in sorted(attrs.items())
    )


def vectorize(attrs: dict, specs) -> np.ndarray:
    """One-hot / L1 multi-hot / clamped min-max blocks, in schema order."""
    parts = []
    for spec in specs:
        raw = attrs.get(spec.name)
        if spec.kind == NUMERIC:
            x = 0.0 if raw is None else (float(raw) - spec.min) / (spec.max - spec.min)
            parts.append([min(max(x, 0.0), 1.0)])
            continue
        block = [0.0] * len(spec.vocabulary)
        if raw is not None:
            wanted = {str(v) for v in raw} if spec.kind == MULTI else {str(raw)}
            hits = [i for i, c in enumerate(spec.vocabulary) if c in wanted]
            for i in hits:
                block[i] = 1.0 / len(hits)
        parts.append(block)
    return np.array([x for part in parts for x in part], dtype=np.float64)


def forward(layers, x: np.ndarray) -> np.ndarray:
    """Serving-mode encoder pass: affine layers, ReLU where configured."""
    h = np.asarray(x, dtype=np.float64)
    for layer in layers:
        h = h @ layer.weights.T + layer.biases
        if layer.activation == "relu":
            h = np.maximum(h, 0.0)
    return h


def cosine_scores(context_emb: np.ndarray, item_embs: np.ndarray) -> np.ndarray:
    """Cosine per item; zero when either side has (near-)zero norm."""
    nc = math.sqrt(float(context_emb @ context_emb))
    nv = np.sqrt(np.einsum("ij,ij->i", item_embs, item_embs))
    out = np.zeros(item_embs.shape[0])
    if nc < 1e-12:
        return out
    ok = nv >= 1e-12
    out[ok] = np.einsum("ij,j->i", item_embs[ok], context_emb) / (nv[ok] * nc)
    return out


def ranking(scores: np.ndarray) -> list[int]:
    """Best first; equal scores in ascending item index."""
    return sorted(range(len(scores)), key=lambda j: (-scores[j], j))


def ranking_mismatch(order, scores, ref_scores) -> str | None:
    """Why the program's ranking disagrees with the reference, or None.

    `order` and `scores` are the program's ranking and its aligned scores.
    Items may swap only where their reference scores differ by less than
    SCORE_TOL; exact program ties must be in ascending item index.
    """
    order = np.asarray(order)
    scores = np.asarray(scores)
    m = len(ref_scores)
    if order.shape != (m,) or not np.array_equal(np.sort(order), np.arange(m)):
        return "ranking is not a permutation of the catalog"
    if np.max(np.abs(scores - ref_scores[order])) > SCORE_TOL:
        return "scores differ from the reference cosine"
    ref = ref_scores[order]
    bad = np.flatnonzero(ref[:-1] < ref[1:] - SCORE_TOL)
    if len(bad):
        return f"items {order[bad[0]]} and {order[bad[0] + 1]} out of order at rank {bad[0] + 1}"
    tie = np.flatnonzero((scores[:-1] == scores[1:]) & (order[:-1] > order[1:]))
    if len(tie):
        return f"tie at rank {tie[0] + 1} not broken by item index"
    return None


def angular_similarity(x: np.ndarray, y: np.ndarray) -> float:
    c = float(x @ y) / (math.sqrt(float(x @ x)) * math.sqrt(float(y @ y)))
    return 1.0 - math.acos(min(1.0, max(-1.0, c))) / math.pi
