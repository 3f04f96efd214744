import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextrec.features import (
    SchemaError,
    ViewingEvent,
    build_schema,
    vectorize_context,
    vectorize_item,
)
from contextrec.model import (
    Catalog,
    EncoderConfig,
    TwoTowerModel,
    catalog_from_log,
    embed_context,
    embed_item,
    precompute_catalog,
    rank_scores,
    recommend,
)
from contextrec.nn_core import Cells, DegenerateMeasure, LayerParams, make_rng

from conftest import one_hot, wide_log


def event(user, genre, t=0.0):
    return ViewingEvent(
        item_attributes={"genre": genre},
        context_attributes={"user": user},
        timestamp=t,
        duration_min=10.0,
    )


@pytest.fixture
def schema():
    log = [event(f"u{i}", f"g{j}") for i in range(3) for j in range(4)]
    return build_schema(log)


def linear_model(schema, w_ctx=None, b_ctx=None, w_item=None, b_item=None, e=2):
    cw = schema.context_width
    iw = schema.item_width
    return TwoTowerModel(
        schema=schema,
        context_encoder=[
            LayerParams(
                w_ctx if w_ctx is not None else np.zeros((e, cw)),
                b_ctx if b_ctx is not None else np.zeros(e),
                "identity",
            )
        ],
        item_encoder=[
            LayerParams(
                w_item if w_item is not None else np.zeros((e, iw)),
                b_item if b_item is not None else np.zeros(e),
                "identity",
            )
        ],
        config=EncoderConfig(hidden_widths=(), embedding_dim=e),
    )


@pytest.fixture(scope="module")
def wide():
    """A model whose towers both take cells, and its catalog's items."""
    log = wide_log()
    schema = build_schema(log)
    model = TwoTowerModel.initialize(
        schema, EncoderConfig(embedding_dim=6, hidden_widths=(16,)), make_rng(21)
    )
    return model, catalog_from_log(log)


def brute_force_ranking(ctx, rows):
    """Cosine per row in plain Python, stable by -score."""
    nc = np.linalg.norm(ctx)
    scores = [float(np.dot(ctx, v) / (nc * np.linalg.norm(v))) for v in rows]
    return sorted(range(len(scores)), key=lambda j: (-scores[j], j))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"embedding_dim": 2.5}, "embedding_dim must be an integer >= 1, got 2.5"),
        ({"embedding_dim": True}, "embedding_dim must be an integer >= 1, got True"),
        ({"embedding_dim": 0}, "embedding_dim must be an integer >= 1, got 0"),
        ({"hidden_widths": (3.5,)}, "hidden_widths[0] must be an integer >= 1, got 3.5"),
        ({"hidden_widths": (8, 0)}, "hidden_widths[1] must be an integer >= 1, got 0"),
        ({"hidden_widths": (True,)}, "hidden_widths[0] must be an integer >= 1, got True"),
    ],
    ids=["dim_fraction", "dim_bool", "dim_zero", "width_fraction", "width_zero", "width_bool"],
)
def test_encoder_config_widths_rejected(kwargs, message):
    with pytest.raises(ValueError) as exc:
        EncoderConfig(**kwargs)
    assert str(exc.value) == message


class TestEmbedding:
    def test_constant_context_map(self, schema):
        model = linear_model(schema, b_ctx=np.array([3.0, -1.0]))
        for user in ("u0", "u1", "unseen"):
            v = vectorize_context([event(user, "g0")], schema)[0]
            assert np.allclose(embed_context(model, v), [3.0, -1.0])

    def test_mlp_hand_composition(self, schema):
        # identity-ish two-layer net: relu(W1 x) then W2
        cw = schema.context_width
        w1 = np.zeros((3, cw))
        w1[0, 0] = 1.0
        w1[1, 1] = -1.0
        w1[2, 2] = 2.0
        w2 = np.array([[1.0, 1.0, 0.5]])
        model = TwoTowerModel(
            schema=schema,
            context_encoder=[
                LayerParams(w1, np.zeros(3), "relu"),
                LayerParams(w2, np.array([0.25]), "identity"),
            ],
            item_encoder=[LayerParams(np.zeros((1, schema.item_width)), np.zeros(1), "identity")],
            config=EncoderConfig(hidden_widths=(3,), embedding_dim=1),
        )
        x = np.zeros(cw)
        x[0], x[1], x[2] = 2.0, 3.0, 1.0
        h = np.maximum(w1 @ x, 0.0)
        expected = w2 @ h + 0.25
        assert np.allclose(embed_context(model, x), expected)

    def test_output_length(self, schema):
        rng = make_rng(0)
        model = TwoTowerModel.initialize(schema, EncoderConfig(embedding_dim=7, hidden_widths=(16,)), rng)
        v = vectorize_context([event("u0", "g0")], schema)[0]
        assert embed_context(model, v).shape == (7,)
        iv = vectorize_item([{"genre": "g1"}], schema)[0]
        assert embed_item(model, iv).shape == (7,)


class TestCatalog:
    def test_shape_and_rows(self, schema, rng):
        model = TwoTowerModel.initialize(schema, EncoderConfig(embedding_dim=4, hidden_widths=(8,)), make_rng(1))
        items = [{"genre": f"g{j}"} for j in range(4)]
        catalog = precompute_catalog(model, items)
        assert catalog.embeddings.shape == (4, 4)
        for j, it in enumerate(items):
            fresh = embed_item(model, vectorize_item([it], schema)[0])
            assert np.array_equal(catalog.embeddings[j], fresh)

    def test_deterministic(self, schema):
        model = TwoTowerModel.initialize(schema, EncoderConfig(embedding_dim=3, hidden_widths=(8,)), make_rng(2))
        items = [{"genre": f"g{j}"} for j in range(4)]
        a = precompute_catalog(model, items)
        b = precompute_catalog(model, items)
        assert np.array_equal(a.embeddings, b.embeddings)

    def test_duplicates_rejected(self, schema):
        model = linear_model(schema)
        with pytest.raises(ValueError):
            precompute_catalog(model, [{"genre": "g0"}, {"genre": "g0"}])

    def test_all_alike_refused(self, schema):
        # a zero item weight matrix embeds every item as the bias
        model = linear_model(schema, b_item=np.array([1.0, 0.5]))
        items = [{"genre": f"g{j}"} for j in range(4)]
        with pytest.raises(SchemaError, match="^all 4 catalog items have the same embedding, "
                                              "so every score ties$"):
            precompute_catalog(model, items)

    @pytest.mark.parametrize("alike", [False, True])
    def test_overflowing_item_tower_refused(self, schema, alike):
        # finite rows whose norms overflow; when they are also all alike the
        # norm check, which runs first, is the one that refuses them
        w = np.full((2, schema.item_width), 1e200)
        if not alike:
            w[1] = np.linspace(1e200, 1e201, schema.item_width)
        model = linear_model(schema, w_item=w)
        items = [{"genre": f"g{j}"} for j in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="^non-finite content embedding norms$"):
                precompute_catalog(model, items)

    def test_norms_checked_when_built(self, schema):
        # the norms are worked out and cached with the catalog, not at a request
        model = TwoTowerModel.initialize(schema, EncoderConfig(embedding_dim=3, hidden_widths=(8,)), make_rng(2))
        catalog = precompute_catalog(model, [{"genre": f"g{j}"} for j in range(4)])
        assert np.array_equal(catalog.__dict__["norms"], np.linalg.norm(catalog.embeddings, axis=1))

    @pytest.mark.parametrize("row, error, message", [
        ([0.0, 0.0, 0.0], DegenerateMeasure, "^zero-norm embedding rows are not allowed$"),
        ([np.nan, 0.0, 1.0], FloatingPointError, "^non-finite content embedding norms$"),
        ([1e200, 1e200, 0.0], FloatingPointError, "^non-finite content embedding norms$"),
    ], ids=["zero_norm", "nan", "overflow"])
    def test_built_directly_is_judged(self, row, error, message):
        # a catalog not built by precompute_catalog is refused when built, with
        # no RuntimeWarning first, and never reaches recommend's divide
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                Catalog(items=[{"genre": "g0"}, {"genre": "g1"}], embeddings=[[1.0, 0.0, 0.0], row])

    def test_wide_rows_match_dense_one_hot(self, wide):
        # each catalog row is bit for bit the embedding of its dense vector
        model, items = wide
        (spec,) = model.schema.item_specs
        assert isinstance(vectorize_item(items[:1], model.schema), Cells)
        catalog = precompute_catalog(model, items)
        for j, it in enumerate(items):
            dense = one_hot(it["genre"], spec)
            assert np.array_equal(catalog.embeddings[j], embed_item(model, dense))

    def test_catalog_from_log_distinct_sorted(self):
        log = [event("u", "g2"), event("u", "g1"), event("u", "g2")]
        assert catalog_from_log(log) == [{"genre": "g1"}, {"genre": "g2"}]


class TestRecommend:
    def hand_catalog(self, schema, model, embeddings):
        items = [{"genre": f"g{j}"} for j in range(len(embeddings))]
        return Catalog(items=items, embeddings=np.asarray(embeddings, dtype=float))

    def test_hand_ranking(self, schema):
        # context embedding (1, 0.1) vs e1=(1,0), e2=(0,1), e3=(-1,0)
        w = np.zeros((2, schema.context_width))
        w[0, schema.context_width - 3] = 1.0  # u0 one-hot position in user block
        model = linear_model(schema, w_ctx=w, b_ctx=np.array([0.0, 0.0]))
        # force the embedding directly via bias instead for clarity
        model = linear_model(schema, b_ctx=np.array([1.0, 0.1]))
        catalog = self.hand_catalog(schema, model, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        result = recommend(model, event("u0", "g0"), catalog)
        assert list(result.ranked_item_indices) == [0, 1, 2]

    def test_tie_break_by_index(self, schema):
        model = linear_model(schema, b_ctx=np.array([1.0, 0.0]))
        catalog = self.hand_catalog(schema, model, [[2.0, 0.0]] * 5)
        result = recommend(model, event("u0", "g0"), catalog)
        assert list(result.ranked_item_indices) == [0, 1, 2, 3, 4]

    def test_matches_brute_force_oracle(self, schema):
        model = TwoTowerModel.initialize(schema, EncoderConfig(embedding_dim=5, hidden_widths=(12,)), make_rng(3))
        items = [{"genre": f"g{j}"} for j in range(4)]
        catalog = precompute_catalog(model, items)
        rng = make_rng(4)
        for _ in range(50):
            ev = event(f"u{rng.integers(3)}", "g0", float(rng.integers(100)))
            got = recommend(model, ev, catalog).ranked_item_indices
            # oracle: fresh embedding per item, stable sort by -cosine
            ctx = embed_context(model, vectorize_context([ev], schema)[0])
            rows = [embed_item(model, vectorize_item([it], schema)[0]) for it in items]
            assert list(got) == brute_force_ranking(ctx, rows)

    def test_wide_matches_brute_force_oracle(self, wide):
        # criterion 08 on cells: the ranking equals one from dense vectors
        model, items = wide
        (ctx_spec,), (item_spec,) = model.schema.context_specs, model.schema.item_specs
        catalog = precompute_catalog(model, items)
        rows = [embed_item(model, one_hot(it["genre"], item_spec)) for it in items]
        rng = make_rng(22)
        for user in [f"u{i:05d}" for i in rng.choice(len(items), size=20)]:
            ev = event(user, "g00000")
            got = recommend(model, ev, catalog).ranked_item_indices
            ctx = embed_context(model, one_hot(user, ctx_spec))
            assert list(got) == brute_force_ranking(ctx, rows)
        # an unseen user is an empty context row, which this untrained,
        # bias-free tower embeds to zero: no cosine, so no ranking
        assert not np.any(embed_context(model, one_hot("unseen", ctx_spec)))
        with pytest.raises(DegenerateMeasure, match="^zero-norm embedding rows are not allowed$"):
            recommend(model, event("unseen", "g00000"), catalog)

    def test_mixed_catalog_with_zero_row_refused(self, schema):
        # later biases 0 and g1's first-layer column -1e3: g1 embeds to zero
        # through dead ReLUs while the other items keep a direction
        model = TwoTowerModel.initialize(schema, EncoderConfig(embedding_dim=5, hidden_widths=(12, 12)), make_rng(7))
        for layer in model.item_encoder[1:]:
            layer.biases[:] = 0.0
        model.item_encoder[0].weights[:, 1] = -1e3
        items = [{"genre": f"g{j}"} for j in range(4)]
        rows = np.stack([embed_item(model, vectorize_item([it], schema)[0]) for it in items])
        assert not rows[1].any() and np.all(np.linalg.norm(np.delete(rows, 1, 0), axis=1) > 0)
        with pytest.raises(DegenerateMeasure, match="^zero-norm embedding rows are not allowed$"):
            precompute_catalog(model, items)

    def test_aligned_item_scores_one(self, schema, rng):
        x = rng.normal(size=5)
        model = linear_model(schema, b_ctx=x, e=5)
        catalog = self.hand_catalog(schema, model, [-x, 3.0 * x])
        result = recommend(model, event("u0", "g0"), catalog)
        assert list(result.ranked_item_indices) == [1, 0]
        assert result.scores[0] == pytest.approx(1.0)

    def test_orthogonal_item_scores_zero(self, schema):
        model = linear_model(schema, b_ctx=np.array([1.0, 0.0]))
        catalog = self.hand_catalog(schema, model, [[0.0, 2.0], [-1.0, 0.0], [1.0, 1.0]])
        result = recommend(model, event("u0", "g0"), catalog)
        assert list(result.ranked_item_indices) == [2, 0, 1]
        assert result.scores[1] == 0.0

    def test_opposite_item_scores_minus_one_ranks_last(self, schema, rng):
        x = rng.normal(size=4)
        model = linear_model(schema, b_ctx=x, e=4)
        emb = rng.normal(size=(6, 4))
        emb[2] = -0.5 * x
        catalog = self.hand_catalog(schema, model, emb)
        result = recommend(model, event("u0", "g0"), catalog)
        assert result.ranked_item_indices[-1] == 2
        assert result.scores[-1] == pytest.approx(-1.0)

    def test_zero_norm_row_refused(self, schema):
        # items g0 and g3 embed to zero: the catalog has no score for them
        w = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0]])
        model = linear_model(schema, w_item=w)
        items = [{"genre": f"g{j}"} for j in range(4)]
        with pytest.raises(DegenerateMeasure, match="^zero-norm embedding rows are not allowed$"):
            precompute_catalog(model, items)
        # every row zero is every row alike, which is judged first
        with pytest.raises(SchemaError, match="^all 4 catalog items have the same embedding"):
            precompute_catalog(linear_model(schema), items)

    def test_zero_norm_context_refused(self, schema):
        model = linear_model(schema)  # every context embeds to the zero vector
        catalog = self.hand_catalog(schema, model, make_rng(9).normal(size=(7, 2)))
        with pytest.raises(DegenerateMeasure, match="^zero-norm embedding rows are not allowed$"):
            recommend(model, event("u0", "g0"), catalog)

    def test_scale_invariance(self, schema):
        model = linear_model(schema, b_ctx=np.array([0.3, 0.7]))
        emb = make_rng(5).normal(size=(6, 2))
        c1 = self.hand_catalog(schema, model, emb)
        scaled = emb.copy()
        scaled[2] *= 17.0
        c2 = self.hand_catalog(schema, model, scaled)
        r1 = recommend(model, event("u0", "g0"), c1)
        r2 = recommend(model, event("u0", "g0"), c2)
        assert np.array_equal(r1.ranked_item_indices, r2.ranked_item_indices)

    def test_permutation_output(self, schema):
        model = linear_model(schema, b_ctx=np.array([1.0, -0.5]))
        catalog = self.hand_catalog(schema, model, make_rng(6).normal(size=(8, 2)))
        result = recommend(model, event("u1", "g1"), catalog)
        assert sorted(result.ranked_item_indices) == list(range(8))
        assert np.all(np.diff(result.scores) <= 0.0)


def sorted_ranking(scores):
    """Descending score, NaN last, ties (0.0 with -0.0 too) by index; no NumPy sort."""
    return sorted(
        range(len(scores)),
        key=lambda j: (math.isnan(scores[j]), 0.0 if math.isnan(scores[j]) else -scores[j], j),
    )


TIE_POOL = [0.0, -0.0, math.nan, 1.0, -1.0, 0.5, 2.5, -3.0, 1e-300, math.inf, -math.inf]


class TestRankScores:
    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(
            st.lists(st.sampled_from(TIE_POOL), max_size=300),
            st.lists(st.floats(allow_nan=False), max_size=300, unique=True),
        )
    )
    def test_matches_sorted_oracle(self, values):
        order = rank_scores(np.array(values, dtype=np.float64))
        assert list(order) == sorted_ranking(values)

    def test_distinct_scores(self):
        # no ties: the default sort's order is the only one
        scores = np.array([0.5, -1.0, 2.0, 0.25, -0.75, 1.5])
        assert list(rank_scores(scores)) == [2, 5, 0, 3, 4, 1]

    def test_tied_scores(self):
        # ties, -0.0 against 0.0 and NaN take the stable fallback
        scores = np.array([1.0, 0.0, np.nan, 1.0, -0.0, 2.0, 0.0, np.nan, 1.0] * 3)
        expected = sorted_ranking(list(scores))
        assert list(rank_scores(scores)) == expected
        assert expected[:4] == [5, 14, 23, 0]
