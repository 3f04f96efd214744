import csv
import io

import numpy as np
import pytest

from contextrec import analysis
from contextrec.analysis import (
    SNNM_BLOCK,
    DegenerateMeasure,
    LabeledEmbeddings,
    angular_distance,
    export_embeddings,
    import_embeddings,
    similarity_matrix,
    snnm,
    snnm_sweep,
)
from contextrec.features import ViewingEvent, build_schema, vectorize_context
from contextrec.model import (
    Catalog,
    EncoderConfig,
    TwoTowerModel,
    catalog_from_log,
    embed_context,
    precompute_catalog,
)
from contextrec.nn_core import LayerParams, ShapeError, make_rng


def angular_reference(x, y):
    """(1/pi) * arccos(cosine(x, y)), the cosine clamped to [-1, 1] to absorb
    rounding: the scalar formula, the independent reference for the
    normalized-product kernel behind angular_distance and the matrices."""
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx < 1e-12 or ny < 1e-12:
        raise ValueError("angular distance is undefined for zero-norm vectors")
    c = np.clip(np.dot(x, y) / (nx * ny), -1.0, 1.0)
    return float(np.arccos(c) / np.pi)


class TestAngularDistance:
    def test_identical(self, rng):
        x = rng.normal(size=5)
        assert angular_reference(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_antipodal(self, rng):
        x = rng.normal(size=5)
        assert angular_reference(x, -x) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert angular_reference(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(0.5)

    def test_symmetry_exact(self, rng):
        for _ in range(20):
            x, y = rng.normal(size=4), rng.normal(size=4)
            assert angular_reference(x, y) == angular_reference(y, x)

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            x, y, z = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
            assert angular_reference(x, z) <= (
                angular_reference(x, y) + angular_reference(y, z) + 1e-9
            )

    def test_matches_scalar_reference(self, rng):
        for _ in range(200):
            x = rng.normal(size=5) * 10.0 ** rng.uniform(-3, 3)
            y = rng.normal(size=5) * 10.0 ** rng.uniform(-3, 3)
            assert angular_distance(x, y) == pytest.approx(angular_reference(x, y), abs=1e-12)
            # arccos is steep at +-1, so (anti)parallel pairs agree less closely
            for twin in (x, 3.0 * x, -x):
                assert angular_distance(x, twin) == pytest.approx(
                    angular_reference(x, twin), abs=1e-7
                )

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateMeasure, match="zero-norm"):
            angular_distance(np.zeros(3), np.ones(3))

    def test_non_vector_rejected(self):
        with pytest.raises(ShapeError):
            angular_distance(np.ones((1, 3)), np.ones((1, 3)))


def two_clusters(n_per=16, spread=0.01, rng=None):
    """Two tight clusters around orthogonal directions."""
    rng = rng or make_rng(0)
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    rows, labels = [], []
    for center, label in ((a, "A"), (b, "B")):
        for _ in range(n_per):
            rows.append(center + spread * rng.normal(size=3))
            labels.append(label)
    return LabeledEmbeddings(np.array(rows), labels)


def per_row_snnm(emb, labels, t):
    """The per-row loop the masked row sums replaced: (value, skipped)."""
    n = len(labels)
    theta = np.array([[angular_reference(x, y) for y in emb] for x in emb])
    terms = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        same = [j for j in others if labels[j] == labels[i]]
        if not same:
            continue
        shift = max(-theta[i, j] / t for j in others)
        num = sum(np.exp(-theta[i, j] / t - shift) for j in same)
        den = sum(np.exp(-theta[i, j] / t - shift) for j in others)
        terms.append(-np.log(num / den))
    return np.mean(terms), n - len(terms)


def snnm_oracle(emb, labels, temperatures):
    """The whole-matrix SNNM that the row blocks replaced, as (values,
    skipped): the (n, n) angular matrix of one normalized product, and at
    each temperature the shifted exponentials and masked row sums of all n
    rows, averaged over the rows with a same-label neighbor."""
    emb = np.asarray(emb, dtype=np.float64)
    normed = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    theta = np.arccos(np.clip(normed @ normed.T, -1.0, 1.0)) / np.pi
    n = len(labels)
    codes = np.unique(np.asarray(labels), return_inverse=True)[1].reshape(-1)
    off = ~np.eye(n, dtype=bool)
    same = (codes[:, None] == codes[None, :]) & off
    kept = same.any(axis=1)
    neg = np.where(off, -theta, -np.inf)
    top = neg.max(axis=1, keepdims=True)
    values = np.empty(len(temperatures))
    for i, t in enumerate(temperatures):
        w = neg / t
        w -= top / t
        np.exp(w, out=w)
        num = np.where(same, w, 0.0).sum(axis=1)
        values[i] = np.mean(-np.log(num[kept] / w.sum(axis=1)[kept]))
    return values, int(n - kept.sum())


def grouped_labels(sizes, rng):
    """Shuffled labels: one class per entry of sizes, of that many rows, so
    each row has size - 1 same-label neighbors."""
    labels = [f"c{k}" for k, size in enumerate(sizes) for _ in range(size)]
    return list(rng.permutation(labels))


class TestSnnmBlocksExact:
    """snnm's row blocks give the bits of the whole-matrix oracle."""

    GRID = np.logspace(-2, 2, 20)

    def assert_exact(self, emb, labels, temperatures=GRID):
        values, skipped = snnm(LabeledEmbeddings(emb, labels), temperatures)
        want, want_skipped = snnm_oracle(emb, labels, temperatures)
        assert values.tobytes() == want.tobytes()
        assert skipped == want_skipped

    @pytest.mark.parametrize("n", [2, 3, 37])
    def test_small_samples(self, rng, n):
        labels = ["a", "a"] + list(rng.choice(["a", "b", "c"], size=n - 2))
        self.assert_exact(rng.normal(size=(n, 6)), labels)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_kept_rows_around_one_block(self, rng, extra):
        n = 512
        rows = SNNM_BLOCK // n
        kept = rows + extra
        # kept rows in pairs (and one triple when odd), the rest singletons
        sizes = [2] * (kept // 2 - kept % 2) + [3] * (kept % 2) + [1] * (n - kept)
        labels = grouped_labels(sizes, rng)
        emb = rng.normal(size=(n, 8))
        self.assert_exact(emb, labels)
        assert snnm(LabeledEmbeddings(emb, labels), [1.0])[1] == n - kept

    def test_more_than_two_blocks(self, rng):
        labels = grouped_labels([1] * 9 + [2] * 40 + [3] * 30 + [5] * 50, rng)
        n, kept = len(labels), len(labels) - 9
        rows = SNNM_BLOCK // n
        assert kept > 2 * rows and kept % rows  # a part block last
        self.assert_exact(rng.normal(size=(n, 8)), labels)

    def test_zero_to_many_same_label_neighbors(self, rng):
        labels = grouped_labels([1] * 11 + [2] * 13 + [3] * 9 + [4] * 7 + [9] * 3, rng)
        self.assert_exact(rng.normal(size=(len(labels), 5)), labels)

    def test_each_temperature_alone(self, rng):
        emb = rng.normal(size=(70, 4))
        labels = grouped_labels([1] * 6 + [2] * 12 + [4] * 10, rng)
        for t in self.GRID:
            self.assert_exact(emb, labels, [t])

    def test_sweep_at_the_cli_sample_size(self, rng, monkeypatch):
        # 300 classes of skewed size over 2,000 rows, as in the analyze
        # benchmark: a sample of 512 leaves rows without a neighbor
        emb = rng.normal(size=(2000, 8))
        labels = [f"c{k}" for k in rng.zipf(1.3, size=2000) % 300]
        pool = LabeledEmbeddings(emb, labels)
        got = snnm_sweep(pool, repetitions=20, n=512, rng=make_rng(11))
        monkeypatch.setattr(
            analysis, "snnm", lambda s, ts: snnm_oracle(s.embeddings, s.labels, ts)
        )
        want = snnm_sweep(pool, repetitions=20, n=512, rng=make_rng(11))
        assert got.skipped_term_counts[0] > 0
        for field in ("temperatures", "means", "ci95", "skipped_term_counts"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


class TestSnnm:
    def test_single_class_exactly_zero(self, rng):
        emb = rng.normal(size=(10, 4))
        sample = LabeledEmbeddings(emb, ["same"] * 10)
        values, skipped = snnm(sample, [0.5])
        value = values[0]
        assert value == 0.0
        assert skipped == 0

    def test_separated_clusters_near_zero(self):
        # within-cluster theta ~ 0.01, between ~ 0.5, T = 0.02
        sample = two_clusters()
        values, skipped = snnm(sample, [0.02])
        value = values[0]
        assert skipped == 0
        assert value < 0.01

    def test_random_labels_log2_at_high_temperature(self):
        # at T -> inf all weights equal; with two equal halves the
        # same-label mass ratio -> (n/2 - 1) / (n - 1) ~ 1/2
        rng = make_rng(1)
        n = 64
        rows = np.concatenate(
            [
                np.array([1.0, 0.0]) + 0.01 * rng.normal(size=(n // 2, 2)),
                np.array([-1.0, 0.0]) + 0.01 * rng.normal(size=(n // 2, 2)),
            ]
        )
        labels = list(rng.permutation(["A", "B"] * (n // 2)))
        value = snnm(LabeledEmbeddings(rows, labels), [1e3])[0][0]
        # brute-force limit: -log((n/2-1)/(n-1))
        assert value == pytest.approx(-np.log((n / 2 - 1) / (n - 1)), abs=0.1)
        assert value == pytest.approx(np.log(2), abs=0.12)

    def test_matches_brute_force_formula(self, rng):
        emb = rng.normal(size=(8, 3))
        labels = ["a", "b", "a", "b", "a", "b", "a", "b"]
        sample = LabeledEmbeddings(emb, labels)
        t = 0.3
        values, skipped = snnm(sample, [t])
        value = values[0]
        # direct evaluation of the defining formula
        terms = []
        for i in range(8):
            num = sum(
                np.exp(-angular_reference(emb[i], emb[j]) / t)
                for j in range(8)
                if j != i and labels[j] == labels[i]
            )
            den = sum(
                np.exp(-angular_reference(emb[i], emb[k]) / t) for k in range(8) if k != i
            )
            terms.append(-np.log(num / den))
        assert value == pytest.approx(np.mean(terms), rel=1e-9)
        assert skipped == 0

    @pytest.mark.parametrize("t", [0.01, 0.3, 50.0])
    def test_matches_per_row_loop_with_skipped_rows(self, rng, t):
        emb = rng.normal(size=(60, 5))
        labels = [f"c{i % 7}" for i in range(54)] + [f"solo{i}" for i in range(6)]
        values, skipped = snnm(LabeledEmbeddings(emb, labels), [t])
        value = values[0]
        want, want_skipped = per_row_snnm(emb, labels, t)
        assert skipped == want_skipped == 6
        assert value == pytest.approx(want, rel=1e-12)

    def test_temperature_vector_matches_per_row_loop(self, rng):
        emb = rng.normal(size=(60, 5))
        labels = [f"c{i % 7}" for i in range(54)] + [f"solo{i}" for i in range(6)]
        temperatures = [0.01, 0.3, 50.0]
        values, skipped = snnm(LabeledEmbeddings(emb, labels), temperatures)
        assert values.shape == (3,)
        assert skipped == 6
        for value, t in zip(values, temperatures):
            want, want_skipped = per_row_snnm(emb, labels, t)
            assert want_skipped == skipped
            assert value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("temperatures", [[0.5, 0.0, 2.0], [-1.0], [np.nan]])
    def test_non_positive_temperature_rejected(self, rng, temperatures):
        sample = LabeledEmbeddings(rng.normal(size=(6, 3)), ["a", "b"] * 3)
        with pytest.raises(ValueError, match="positive"):
            snnm(sample, temperatures)

    def test_rows_without_same_label_neighbor_skipped(self, rng):
        emb = rng.normal(size=(4, 3))
        sample = LabeledEmbeddings(emb, ["a", "a", "b", "c"])
        _, skipped = snnm(sample, [0.5])
        assert skipped == 2

    def test_degenerate_samples_raise(self, rng):
        with pytest.raises(DegenerateMeasure, match="^zero-norm embedding rows"):
            LabeledEmbeddings(np.array([[1.0, 0.0], [0.0, 0.0]]), ["a", "a"])
        with pytest.raises(DegenerateMeasure, match="^need at least two embeddings"):
            snnm(LabeledEmbeddings(rng.normal(size=(1, 3)), ["a"]), [0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        emb = np.ones((3, 2))
        emb[1, 0] = bad
        with pytest.raises(DegenerateMeasure, match="^non-finite embedding rows"):
            LabeledEmbeddings(emb, ["a", "a", "b"])

    def test_all_skipped_raises(self, rng):
        emb = rng.normal(size=(3, 3))
        with pytest.raises(DegenerateMeasure):
            snnm(LabeledEmbeddings(emb, ["a", "b", "c"]), [0.5])

    def test_scale_invariance(self, rng):
        emb = rng.normal(size=(10, 4))
        labels = ["a", "b"] * 5
        v1 = snnm(LabeledEmbeddings(emb, labels), [0.4])[0][0]
        scaled = emb.copy()
        scaled[3] *= 25.0
        v2 = snnm(LabeledEmbeddings(scaled, labels), [0.4])[0][0]
        assert v1 == pytest.approx(v2, rel=1e-12)


class TestSnnmSweep:
    def test_single_repetition_zero_ci(self):
        sample = two_clusters(n_per=20)
        curve = snnm_sweep(sample, repetitions=1, n=16, rng=make_rng(2))
        assert np.all(curve.ci95 == 0.0)

    def test_curve_finite_everywhere(self):
        sample = two_clusters(n_per=20)
        curve = snnm_sweep(sample, repetitions=5, n=16, rng=make_rng(3))
        assert np.all(np.isfinite(curve.means))
        assert np.all(np.isfinite(curve.ci95))

    def test_grid_must_increase(self):
        sample = two_clusters()
        with pytest.raises(ValueError):
            snnm_sweep(sample, temperatures=np.array([1.0, 0.5]), rng=make_rng(4))

    @pytest.mark.parametrize("repetitions", [0, -2, True, 2.5])
    def test_repetitions_below_one_rejected(self, repetitions):
        with pytest.raises(ValueError, match="repetitions must be an integer >= 1"):
            snnm_sweep(two_clusters(), repetitions=repetitions, n=8, rng=make_rng(4))

    def test_matches_per_row_reference_sweep(self, rng):
        emb = rng.normal(size=(40, 4))
        labels = [f"c{i % 5}" for i in range(36)] + [f"solo{i}" for i in range(4)]
        temperatures = np.array([0.02, 0.2, 2.0, 20.0])
        curve = snnm_sweep(
            LabeledEmbeddings(emb, labels), temperatures, repetitions=3, n=24, rng=make_rng(8)
        )
        # the same draws, each sample scored temperature by temperature
        draws = make_rng(8)
        samples = [draws.choice(40, size=24, replace=False) for _ in range(3)]
        results = [
            [per_row_snnm(emb[idx], [labels[i] for i in idx], t) for idx in samples]
            for t in temperatures
        ]
        for ti, per_sample in enumerate(results):
            vals = np.array([v for v, _ in per_sample])
            assert curve.means[ti] == pytest.approx(vals.mean(), rel=1e-12)
            assert curve.ci95[ti] == pytest.approx(1.96 * vals.std(ddof=1) / np.sqrt(3), rel=1e-12)
            assert curve.skipped_term_counts[ti] == sum(sk for _, sk in per_sample)


def ctx_event(user, genre, t=0.0):
    return ViewingEvent(
        item_attributes={"genre": genre},
        context_attributes={"user": user},
        timestamp=t,
        duration_min=10.0,
    )


def aligned_model(schema):
    """Linear model whose context embedding equals the user one-hot block
    mapped onto genre directions."""
    e = schema.item_width
    w_ctx = np.zeros((e, schema.context_width))
    # user uX maps exactly to genre gX's one-hot direction
    for k in range(min(e, schema.context_width)):
        w_ctx[k, k] = 1.0
    w_item = np.eye(e, schema.item_width)
    return TwoTowerModel(
        schema=schema,
        context_encoder=[LayerParams(w_ctx, np.zeros(e), "identity")],
        item_encoder=[LayerParams(w_item, np.zeros(e), "identity")],
        config=EncoderConfig(hidden_widths=(), embedding_dim=e),
    )


def average_context_embedding(test_log, model, content_key):
    """Mean context embedding over the events of one content, each embedded
    on its own: the reference for similarity_matrix's per-content means."""
    rows = [
        embed_context(model, vectorize_context([e], model.schema)[0])
        for e in test_log
        if e.item_key() == content_key
    ]
    if not rows:
        raise ValueError(f"no test events with content {content_key!r}")
    return np.mean(rows, axis=0)


def assert_matrix_row_is_mean(test_log, model, items, content_key):
    """similarity_matrix's row of the content is 1 - theta(reference mean,
    each content embedding)."""
    catalog = precompute_catalog(model, items)
    sim = similarity_matrix(test_log, model, catalog)
    mean = average_context_embedding(test_log, model, content_key)
    expected = [1.0 - angular_reference(mean, c) for c in catalog.embeddings]
    row = sim.values[sim.content_keys.index(content_key)]
    assert np.allclose(row, expected, rtol=0.0, atol=1e-12)


class TestAverageContextEmbedding:
    def setup_method(self):
        self.log = [ctx_event(f"u{j}", f"g{j}", t=j) for j in range(3)]
        self.schema = build_schema(self.log)
        self.model = aligned_model(self.schema)

    def test_single_event_mean(self):
        key = self.log[0].item_key()
        mean = average_context_embedding(self.log, self.model, key)
        direct = embed_context(self.model, vectorize_context([self.log[0]], self.schema)[0])
        assert np.allclose(mean, direct)
        for e in self.log:
            assert_matrix_row_is_mean(self.log, self.model, catalog_from_log(self.log), e.item_key())

    def test_midpoint(self):
        log = [ctx_event("u0", "g0", 0), ctx_event("u1", "g0", 1), ctx_event("u2", "g1", 2)]
        schema = build_schema(log)
        model = aligned_model(schema)
        mean = average_context_embedding(log, model, log[0].item_key())
        assert np.allclose(mean, [0.5, 0.5])
        # u2's context embeds to zero, so the matrix is taken over g0's events
        assert_matrix_row_is_mean(log[:2], model, catalog_from_log(log), log[0].item_key())

    def test_idempotent_on_copies(self):
        log = [ctx_event("u1", "g0", t) for t in range(4)] + [ctx_event("u2", "g1", 9)]
        schema = build_schema(log)
        model = aligned_model(schema)
        mean = average_context_embedding(log, model, log[0].item_key())
        single = average_context_embedding(log[:1], model, log[0].item_key())
        assert np.allclose(mean, single)
        items = catalog_from_log(log)
        assert_matrix_row_is_mean(log, model, items, log[0].item_key())
        assert_matrix_row_is_mean(log[:1] + log[4:], model, items, log[0].item_key())

    def test_missing_content_rejected(self):
        with pytest.raises(ValueError):
            average_context_embedding(self.log, self.model, (("genre", "nope"),))


class TestSimilarityMatrix:
    def test_perfect_alignment_diagonal(self):
        log = [ctx_event(f"u{j}", f"g{j}", t=j) for j in range(3)]
        schema = build_schema(log)
        model = aligned_model(schema)
        items = [{"genre": f"g{j}"} for j in range(3)]
        catalog = precompute_catalog(model, items)
        sim = similarity_matrix(log, model, catalog)
        assert np.allclose(np.diag(sim.values), 1.0)
        assert np.all((sim.values >= 0.0) & (sim.values <= 1.0))

    def test_dispersion_one_when_parallel(self):
        log = [ctx_event("u0", "g0", t) for t in range(3)] + [ctx_event("u1", "g1", 9)]
        schema = build_schema(log)
        model = aligned_model(schema)
        catalog = precompute_catalog(model, [{"genre": "g0"}, {"genre": "g1"}])
        sim = similarity_matrix(log, model, catalog)
        assert sim.dispersion[0] == pytest.approx(1.0)

    def test_absent_content_flagged(self):
        log = [ctx_event("u0", "g0", 0), ctx_event("u1", "g1", 1)]
        schema = build_schema(log)
        model = aligned_model(schema)
        catalog = precompute_catalog(model, [{"genre": "g0"}, {"genre": "g1"}])
        sim = similarity_matrix(log[:1], model, catalog)
        assert sim.empty_rows[1]
        assert np.isnan(sim.values[1]).all()

    def test_matches_per_pair_brute_force(self):
        rng = make_rng(21)
        log = [ctx_event(f"u{rng.integers(6)}", f"g{rng.integers(5)}", t) for t in range(60)]
        schema = build_schema(log)
        config = EncoderConfig(hidden_widths=(16,), embedding_dim=4)
        model = TwoTowerModel.initialize(schema, config, make_rng(5))
        catalog = precompute_catalog(model, catalog_from_log(log))
        test_log = [e for e in log if e.item_attributes["genre"] != "g2"]
        sim = similarity_matrix(test_log, model, catalog)

        # the per-pair scalar-formula loop the matrix form replaced
        assert sim.empty_rows.tolist() == [k == (("genre", "g2"),) for k in sim.content_keys]
        for i, key in enumerate(sim.content_keys):
            rows = [
                embed_context(model, vectorize_context([e], schema)[0])
                for e in test_log
                if e.item_key() == key
            ]
            if not rows:
                assert np.isnan(sim.values[i]).all() and np.isnan(sim.dispersion[i])
                continue
            mean = np.mean(rows, axis=0)
            expected = [1.0 - angular_reference(mean, c) for c in catalog.embeddings]
            assert np.allclose(sim.values[i], expected, rtol=0.0, atol=1e-12)
            spread = np.mean([1.0 - angular_reference(mean, r) for r in rows])
            assert sim.dispersion[i] == pytest.approx(spread, rel=0.0, abs=1e-12)

    def test_zero_norm_rejected(self):
        log = [ctx_event("u0", "g0", 0), ctx_event("u1", "g1", 1)]
        schema = build_schema(log)
        model = aligned_model(schema)
        catalog = Catalog(items=[{"genre": "g0"}, {"genre": "g1"}], embeddings=np.zeros((2, 2)))
        with pytest.raises(DegenerateMeasure, match="zero-norm"):
            similarity_matrix(log, model, catalog)


    def test_non_finite_content_embeddings_rejected(self):
        log = [ctx_event("u0", "g0", 0), ctx_event("u1", "g1", 1)]
        model = aligned_model(build_schema(log))
        embeddings = np.array([[1.0, 0.0], [np.inf, 1.0]])
        catalog = Catalog(items=[{"genre": "g0"}, {"genre": "g1"}], embeddings=embeddings)
        with pytest.raises(FloatingPointError, match="^non-finite content embeddings"):
            similarity_matrix(log, model, catalog)


class TestExportEmbeddings:
    def test_empty_set_header_only(self, tmp_path):
        path = tmp_path / "emb.csv"
        export_embeddings(np.zeros((0, 3)), [], path)
        assert path.read_text().strip() == "label,e0,e1,e2"

    def test_row_count(self, tmp_path, rng):
        path = tmp_path / "emb.csv"
        export_embeddings(rng.normal(size=(7, 2)), [f"l{i}" for i in range(7)], path)
        assert len(path.read_text().strip().splitlines()) == 8

    def test_bytes_match_csv_writer_reference(self, tmp_path):
        emb = np.array(
            [[-0.0, np.nan], [np.inf, -np.inf], [5e-324, 1e308], [0.1, -2.5], [1.0, 3e-7], [-1e-300, 7.0]]
        )
        labels = ["a,b", 'say "hi"', "line\nbreak", "crlf\r\nbreak", "", "café ünï"]
        path = tmp_path / "emb.csv"
        export_embeddings(emb, labels, path)
        # the per-value format() rows through csv.writer that the export replaced
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["label", "e0", "e1"])
        for label, row in zip(labels, emb):
            writer.writerow([label] + [format(v, ".17g") for v in row])
        assert path.read_bytes() == buf.getvalue().encode("utf-8")

    def test_round_trip_lossless(self, tmp_path, rng):
        path = tmp_path / "emb.csv"
        emb = rng.normal(size=(5, 4))
        labels = [f"l{i}" for i in range(5)]
        export_embeddings(emb, labels, path)
        back, back_labels = import_embeddings(path)
        assert np.array_equal(back, emb)
        assert back_labels == labels
