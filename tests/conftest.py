import ctypes
import json
from pathlib import Path

import numpy as np
import pytest

from contextrec.features import SPARSE_WIDTH, ViewingEvent
from contextrec.nn_core import Cells, one_blas_thread


@pytest.fixture(scope="session", autouse=True)
def blas_on_one_thread():
    """The tests run as every CLI command does: on one BLAS thread."""
    one_blas_thread()


def openblas_threads():
    """The live thread count of NumPy's bundled OpenBLAS, from its own
    getter; None where NumPy bundles none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(dll, name):
                getter = getattr(dll, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


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


def encode_dataset(records, version=2) -> str:
    """Dataset format 2 text of records, each a dict of "context" and "item"
    attribute objects, "timestamp" and "duration_min", by this file's own
    rules: a header line of format_version and, per part, each attribute
    name in sorted order with the JSON texts of its distinct values in
    first-seen order; then per record one line [timestamp, duration_min,
    cell...], a cell per context name then per item name, each the index of
    the record's value in that name's list or -1 where the record lacks it.
    Non-finite numbers are written as the literals NaN and Infinity."""
    dumps = json.JSONEncoder(separators=(",", ":")).encode
    parts = {}
    for part in ("context", "item"):
        names = sorted({name for r in records for name in r[part]})
        texts = {name: [] for name in names}
        for r in records:
            for name, value in r[part].items():
                text = dumps(value)
                if text not in texts[name]:
                    texts[name].append(text)
        parts[part] = names, texts
    header = ",".join(
        f'"{part}":{{' + ",".join(f"{dumps(n)}:[{','.join(texts[n])}]" for n in names) + "}"
        for part, (names, texts) in parts.items()
    )
    lines = [f'{{"format_version":{version},{header}}}']
    for r in records:
        cells = [texts[n].index(dumps(r[part][n])) if n in r[part] else -1
                 for part, (names, texts) in parts.items() for n in names]
        lines.append(dumps([r["timestamp"], r["duration_min"], *cells]))
    return "".join(line + "\n" for line in lines)


def decode_dataset(text) -> list[dict]:
    """The records of a dataset format 2 text, as encode_dataset takes them."""
    header, *lines = text.splitlines()
    doc = json.loads(header)
    parts = [(part, list(doc[part].items())) for part in ("context", "item")]
    records = []
    for line in lines:
        row = json.loads(line)
        cells = iter(row[2:])
        record = {"timestamp": row[0], "duration_min": row[1]}
        for part, tables in parts:
            record[part] = {name: values[c] for (name, values), c in zip(tables, cells) if c != -1}
        records.append(record)
    return records


def one_hot(value, spec):
    """Dense one-hot vector of a single-valued attribute, by vocabulary search."""
    v = np.zeros(len(spec.vocabulary))
    if value in spec.vocabulary:
        v[spec.vocabulary.index(value)] = 1.0
    return v


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
