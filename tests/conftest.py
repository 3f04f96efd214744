import numpy as np
import pytest

from contextrec.features import SPARSE_WIDTH, ViewingEvent
from contextrec.nn_core import Cells


def finite_difference(f, arrays, h=1e-5):
    """Central finite-difference gradient of scalar f w.r.t. each array.

    f takes the list of arrays and returns a scalar. Independent oracle
    for all analytic-gradient checks.
    """
    grads = [np.zeros_like(a) for a in arrays]
    for a, g in zip(arrays, grads):
        flat_a = a.ravel()
        flat_g = g.ravel()
        for i in range(flat_a.size):
            orig = flat_a[i]
            flat_a[i] = orig + h
            up = f(arrays)
            flat_a[i] = orig - h
            down = f(arrays)
            flat_a[i] = orig
            flat_g[i] = (up - down) / (2.0 * h)
    return grads


def relative_error(analytic, numeric):
    """Max elementwise relative error with an absolute floor."""
    analytic = np.concatenate([np.ravel(a) for a in analytic])
    numeric = np.concatenate([np.ravel(a) for a in numeric])
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def cells_of(x):
    """The nonzero cells of a dense (N, width) matrix, row by row."""
    rows, cols = np.nonzero(x)
    return Cells(x.shape, rows, cols, x[rows, cols])


def sparse_rows(rng, n, width, max_cells=3):
    """(n, width) matrix whose rows hold 1 to max_cells nonzero cells: either
    an L1 multi-hot block (equal weights summing to 1) or numeric values."""
    x = np.zeros((n, width))
    for r in range(n):
        k = int(rng.integers(1, max_cells + 1))
        cols = rng.choice(width, size=k, replace=False)
        x[r, cols] = 1.0 / k if rng.random() < 0.5 else rng.uniform(0.05, 1.0, size=k)
    return x


def wide_log(extra=20, co_viewers=False):
    """One event per user and genre, each SPARSE_WIDTH + extra of them, so
    both towers take cells with one cell per row; co_viewers adds a
    multi-valued viewer_ids block of 1 to 3 users per row."""
    n = SPARSE_WIDTH + extra
    events = []
    for j in range(n):
        context = {"user": f"u{(7 * j) % n:05d}"}
        if co_viewers:
            members = {(j * k) % n for k in (1, 3, 5)[: j % 3 + 1]}
            context["viewer_ids"] = tuple(sorted(f"u{u:05d}" for u in members))
        events.append(ViewingEvent(
            item_attributes={"genre": f"g{j:05d}"},
            context_attributes=context,
            timestamp=float(j),
            duration_min=10.0,
        ))
    return events


def one_hot(value, spec):
    """Dense one-hot vector of a single-valued attribute, by vocabulary search."""
    v = np.zeros(len(spec.vocabulary))
    if value in spec.vocabulary:
        v[spec.vocabulary.index(value)] = 1.0
    return v


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
