"""Diagnostics tests: Alg.-1 oracle equivalence, FID forms, IS bounds, baseline."""

import numpy as np
import pytest

from genrobust import diagnostics
from genrobust import models as mdl
from genrobust.attacks import PerturbationSet
from genrobust.data import LabeledDataset, derive_rng
from genrobust.diagnostics import (
    DiagnosticsReport,
    complementarity_coverage,
    embed,
    fid,
    fit_feature_embedder,
    is_score,
    loss_landscape,
    uniform_unique_nn_baseline,
    unique_nn_coverage,
)
from genrobust.models import ModelConfig

from test_attacks import linear_model


# ---------------------------------------------------------------------------
# brute-force oracle for the nearest-neighbor attribution


def alg1_oracle(train_f, test_f, gen_f):
    n = len(gen_f)
    counts = [0, 0, 0]
    v_train, v_test = set(), set()
    for i in range(n):
        g = gen_f[i]

        def dists(refs, skip=None):
            out = []
            for j in range(len(refs)):
                if j == skip:
                    out.append(np.inf)
                else:
                    out.append(((refs[j] - g) ** 2).sum())
            return out

        d_tr = dists(train_f)
        d_te = dists(test_f)
        d_se = dists(gen_f, skip=i)
        m_tr, m_te, m_se = min(d_tr), min(d_te), min(d_se)
        if m_tr <= m_te and m_tr <= m_se:
            counts[0] += 1
        elif m_te <= m_se:
            counts[1] += 1
        else:
            counts[2] += 1
        v_train.add(int(np.argmin(d_tr)))
        v_test.add(int(np.argmin(d_te)))
    return (
        counts[0] / n,
        counts[1] / n,
        counts[2] / n,
        len(v_train) / n,
        len(v_test) / n,
    )


def test_exact_duplicates_attribute_to_train():
    rng = np.random.default_rng(0)
    train = rng.uniform(size=(10, 4))
    gen = train.copy()
    test = train + 100.0
    rep = complementarity_coverage(train, test, gen)
    assert rep.c_train == 1.0
    assert rep.v_train == 1.0  # each duplicate matches its own unique row


def test_far_cluster_attributes_to_self():
    rng = np.random.default_rng(1)
    train = rng.uniform(size=(8, 3))
    test = rng.uniform(size=(8, 3)) + 50.0
    gen = rng.uniform(size=(8, 3)) + 200.0
    rep = complementarity_coverage(train, test, gen)
    assert rep.c_self == 1.0
    assert 0.0 < rep.v_train <= 1.0 and 0.0 < rep.v_test <= 1.0


def test_tie_priority_train_then_test_then_self():
    # all three sets contain the query point itself: exact zero distances
    base = np.array([[0.5, 0.5], [0.25, 0.75]])
    rep = complementarity_coverage(base, base.copy(), base.copy())
    assert rep.c_train == 1.0 and rep.c_test == 0.0 and rep.c_self == 0.0


def test_oracle_equivalence_random_and_quantized():
    rng = np.random.default_rng(2)
    for trial in range(60):
        n = int(rng.integers(2, 33))
        k = int(rng.integers(1, 9))
        if trial % 2 == 0:
            mk = lambda: rng.integers(0, 8, size=(n, k)) / 8.0  # exact ties likely
        else:
            mk = lambda: rng.normal(size=(n, k))
        train, test, gen = mk(), mk(), mk()
        rep = complementarity_coverage(train, test, gen)
        want = alg1_oracle(train, test, gen)
        got = (rep.c_train, rep.c_test, rep.c_self, rep.v_train, rep.v_test)
        assert got == want, f"trial {trial}: {got} != {want}"


def test_counters_are_multiples_of_inverse_n():
    rng = np.random.default_rng(3)
    n = 16
    rep = complementarity_coverage(
        rng.uniform(size=(n, 3)), rng.uniform(size=(n, 3)), rng.uniform(size=(n, 3))
    )
    for v in (rep.c_train, rep.c_test, rep.c_self, rep.v_train, rep.v_test):
        assert abs(v * n - round(v * n)) < 1e-12
    assert abs(rep.c_train + rep.c_test + rep.c_self - 1.0) < 1e-9


def test_size_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        complementarity_coverage(
            rng.uniform(size=(4, 2)), rng.uniform(size=(5, 2)), rng.uniform(size=(4, 2))
        )
    with pytest.raises(ValueError):
        complementarity_coverage(
            rng.uniform(size=(1, 2)), rng.uniform(size=(1, 2)), rng.uniform(size=(1, 2))
        )


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        DiagnosticsReport(c_train=0.5, c_test=0.5, c_self=0.5, v_train=0.1, v_test=0.1)


def test_unique_nn_coverage_identical_halves():
    rng = np.random.default_rng(31)
    a = rng.uniform(size=(12, 3))
    assert unique_nn_coverage(a, a.copy()) == 1.0
    single = unique_nn_coverage(a, a[:1])
    assert single == pytest.approx(1 / 12)


@pytest.mark.parametrize(
    "shapes, message",
    [
        (((6,), (6, 2), (6, 2)), "train features must be"),
        (((6, 2), (6, 2, 1), (6, 2)), "test features must be"),
        (((6, 2), (6, 2), (6, 3)), "equal widths"),
    ],
)
def test_feature_shapes_validated(shapes, message):
    train, test, gen = (np.zeros(s) for s in shapes)
    with pytest.raises(ValueError, match=message):
        complementarity_coverage(train, test, gen)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["train", "test", "generated"])
def test_non_finite_features_rejected(bad, which):
    rng = np.random.default_rng(33)
    sets = {name: rng.uniform(size=(8, 3)) for name in ("train", "test", "generated")}
    sets[which][5, 1] = bad
    with pytest.raises(ValueError, match=which):
        complementarity_coverage(sets["train"], sets["test"], sets["generated"])


def test_unique_nn_coverage_validates_features():
    rng = np.random.default_rng(34)
    a, b = rng.uniform(size=(6, 3)), rng.uniform(size=(6, 3))
    with pytest.raises(ValueError, match="widths"):
        unique_nn_coverage(a, b[:, :2])
    with pytest.raises(ValueError, match="query"):
        unique_nn_coverage(a[:, 0], b)
    b[2, 2] = np.nan
    with pytest.raises(ValueError, match="reference"):
        unique_nn_coverage(a, b)


# ---------------------------------------------------------------------------
# blocked nearest-neighbour search against the naive per-row search


def naive_min_against(queries, refs, skip_diag):
    mins = np.empty(len(queries))
    args = np.empty(len(queries), dtype=np.int64)
    for i in range(len(queries)):
        d = ((refs - queries[i]) ** 2).sum(axis=1)
        if skip_diag:
            d[i] = np.inf
        args[i] = np.argmin(d)
        mins[i] = d[args[i]]
    return mins, args


def assert_matches_naive(queries, refs, skip_diag):
    got_d, got_a = diagnostics._min_against(queries, refs, skip_diag)
    want_d, want_a = naive_min_against(queries, refs, skip_diag)
    assert np.array_equal(got_a, want_a)
    assert np.array_equal(got_d, want_d)


@pytest.fixture
def small_blocks(monkeypatch):
    # 150 queries in blocks of 16: nine full blocks and a ragged tail of 6
    monkeypatch.setattr(diagnostics, "_BLOCK_ROWS", 16)


def _near_ties(rng, n, k):
    """Four references per query along one direction, the nearest last:
    two rounding margins farther, half a margin farther, and a millionth of
    a margin farther (below the Gram product's own rounding)."""
    queries = rng.normal(size=(n, k))
    u = rng.normal(size=(n, k))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    base = 0.25
    rr_max = ((np.linalg.norm(queries, axis=1) + 1.0) ** 2).max()
    for _ in range(2):  # settle the margin on the references' own norms
        margin = 1e-9 * ((queries**2).sum(axis=1) + rr_max) + 1e-12
        extras = (2.0, 0.5, 1e-6, 0.0)
        refs = np.empty((len(extras) * n, k))
        for slot, extra in enumerate(extras):
            refs[slot :: len(extras)] = queries + np.sqrt(base + extra * margin)[:, None] * u
        rr_max = (refs**2).sum(axis=1).max()
    return queries, refs


def _cases(rng, n, k):
    grid = lambda m: rng.integers(0, 8, size=(m, k)) / 8.0
    pool = rng.normal(size=(n // 3, k))
    # exact ties, and gaps far below the Gram product's cancellation error
    offset = lambda m: 1e4 + 1e-3 * grid(m)
    return {
        "grid-ties": (grid(n), grid(n + 7)),
        "duplicates": (pool[rng.integers(0, len(pool), n)], pool[rng.integers(0, len(pool), n)]),
        "near-ties": _near_ties(rng, n, k),
        "offset-1e4": (offset(n), offset(n)),
    }


@pytest.mark.parametrize("case", ["grid-ties", "duplicates", "near-ties", "offset-1e4"])
def test_min_against_matches_naive_across_blocks(small_blocks, case):
    rng = np.random.default_rng(35)
    for k in (1, 2, 5, 8, 13, 100):
        queries, refs = _cases(rng, 150, k)[case]
        assert_matches_naive(queries, refs, skip_diag=False)
        assert_matches_naive(queries, queries, skip_diag=True)


def test_min_against_matches_naive_every_width(small_blocks):
    rng = np.random.default_rng(36)
    for k in range(1, 101):
        queries = rng.integers(0, 8, size=(150, k)) / 8.0
        refs = np.concatenate([rng.normal(size=(60, k)), queries[:40]])
        assert_matches_naive(queries, refs, skip_diag=False)
        assert_matches_naive(queries, queries, skip_diag=True)


def test_min_against_matches_naive_at_default_block_size():
    rng = np.random.default_rng(37)
    queries = rng.normal(size=(2000, 100))
    queries[1500:] = queries[rng.integers(0, 1500, 500)]  # duplicates
    assert_matches_naive(queries, queries, skip_diag=True)


def test_unique_nn_coverage_oracle_equivalence():
    rng = np.random.default_rng(32)
    for trial in range(40):
        nq, nr = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        k = int(rng.integers(1, 9))
        if trial % 2 == 0:
            mk = lambda m: rng.integers(0, 8, size=(m, k)) / 8.0  # exact ties likely
        else:
            mk = lambda m: rng.normal(size=(m, k))
        queries, refs = mk(nq), mk(nr)
        _, args = naive_min_against(queries, refs, skip_diag=False)
        assert unique_nn_coverage(queries, refs) == len(set(args.tolist())) / nq, f"trial {trial}"


# ---------------------------------------------------------------------------
# FID


def test_fid_identical_sets_zero():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(200, 6))
    assert fid(a, a.copy()) < 1e-8


def test_fid_one_dimensional_closed_form():
    rng = np.random.default_rng(6)
    n = 100_000
    m, s = 0.7, 1.4
    a = rng.normal(size=(n, 1))
    b = m + s * rng.normal(size=(n, 1))
    got = fid(a, b)
    expected = m**2 + (1.0 - s) ** 2
    assert abs(got - expected) < 0.05


def test_fid_symmetric():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(300, 5))
    b = 0.3 + 1.2 * rng.normal(size=(300, 5))
    assert abs(fid(a, b) - fid(b, a)) < 1e-8


def test_fid_permutation_invariant():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(120, 4))
    b = rng.normal(size=(120, 4)) + 0.5
    perm = rng.permutation(120)
    assert abs(fid(a, b) - fid(a[perm], b[perm])) < 1e-10


def test_fid_needs_enough_samples():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        fid(rng.normal(size=(4, 6)), rng.normal(size=(100, 6)))


def test_fid_nonnegative_random():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = rng.normal(size=(60, 3)) * rng.uniform(0.5, 2.0)
        b = rng.normal(size=(60, 3)) + rng.uniform(-1, 1)
        assert fid(a, b) >= -1e-10


# ---------------------------------------------------------------------------
# inception-style score


def test_is_uniform_classifier_scores_one():
    from genrobust.autodiff import Tensor

    cfg = ModelConfig(kind="mlp", input_shape=(1, 2, 2), num_classes=4, hidden=(4,), seed=0)
    m = mdl.init(cfg)
    for name in m.params.names():
        m.params.assign(name, Tensor(np.zeros(m.params[name].shape)))
    images = np.random.default_rng(11).uniform(size=(40, 1, 2, 2))
    mean, std = is_score(m, images, splits=4)
    assert abs(mean - 1.0) < 1e-9
    assert std < 1e-9


def test_is_one_hot_classifier_scores_num_classes():
    c = 4
    m = linear_model(2000.0 * np.eye(c), np.zeros(c))
    eye = np.eye(c).reshape(c, 1, 1, c)
    images = np.concatenate([eye] * 10)  # balanced classes
    mean, std = is_score(m, images, splits=2)
    assert abs(mean - c) < 1e-6


def test_is_bounds():
    cfg = ModelConfig(kind="mlp", input_shape=(1, 2, 2), num_classes=5, hidden=(8,), seed=1)
    m = mdl.init(cfg)
    images = np.random.default_rng(12).uniform(size=(60, 1, 2, 2))
    mean, _ = is_score(m, images, splits=3)
    assert 1.0 - 1e-9 <= mean <= 5.0 + 1e-9


def test_is_split_validation():
    cfg = ModelConfig(kind="mlp", input_shape=(1, 2, 2), num_classes=3, hidden=(4,), seed=2)
    m = mdl.init(cfg)
    images = np.random.default_rng(13).uniform(size=(10, 1, 2, 2))
    with pytest.raises(ValueError):
        is_score(m, images, splits=6)


# ---------------------------------------------------------------------------
# uniform baseline


def test_uniform_baseline_reference_value():
    vals = [uniform_unique_nn_baseline(10_000, derive_rng("baseline", t)) for t in range(10)]
    assert abs(float(np.mean(vals)) - 0.556) < 0.010


def test_uniform_baseline_n2_enumeration():
    seen = set()
    for t in range(40):
        seen.add(uniform_unique_nn_baseline(2, derive_rng("n2", t)))
    assert seen <= {0.5, 1.0}
    assert len(seen) == 2


def test_uniform_baseline_deterministic():
    a = uniform_unique_nn_baseline(500, derive_rng("det", 1))
    b = uniform_unique_nn_baseline(500, derive_rng("det", 1))
    assert a == b


def test_uniform_baseline_brute_force_small():
    for t in range(20):
        rng = derive_rng("brute", t)
        n = 30
        got = uniform_unique_nn_baseline(n, rng)
        rng2 = derive_rng("brute", t)
        a = rng2.uniform(size=n)
        b = rng2.uniform(size=n)
        nn = []
        for i in range(n):
            d = np.abs(b - a[i])
            best = np.flatnonzero(d == d.min())
            # tie to the lower value, as the implementation does
            nn.append(int(best[np.argmin(b[best])]))
        assert got == len(set(nn)) / n


# ---------------------------------------------------------------------------
# feature embedder


def _embedder_setup(seed=0):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(kind="mlp", input_shape=(1, 2, 4), num_classes=2, hidden=(16,), seed=seed)
    backbone = mdl.init(cfg)
    train_imgs = rng.uniform(size=(40, 1, 2, 4))
    test_imgs = rng.uniform(size=(40, 1, 2, 4))
    emb = fit_feature_embedder(backbone, train_imgs, test_imgs, k=6)
    return emb, train_imgs, test_imgs


def test_embed_identical_images_identical():
    emb, train_imgs, _ = _embedder_setup()
    x = np.repeat(train_imgs[:1], 3, axis=0)
    out = embed(emb, x)
    assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])


def test_embed_batch_independence():
    emb, train_imgs, _ = _embedder_setup(1)
    full = embed(emb, train_imgs[:8])
    single = embed(emb, train_imgs[2:3])
    assert np.max(np.abs(full[2] - single[0])) < 1e-10


def test_embedding_covariance_diagonal_on_fit_set():
    emb, train_imgs, test_imgs = _embedder_setup(2)
    z = embed(emb, np.concatenate([train_imgs, test_imgs]))
    cov = np.cov(z, rowvar=False)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 1e-8 * max(1.0, np.max(np.abs(cov)))


def test_embedder_dim():
    emb, _, _ = _embedder_setup(3)
    assert emb.dim == 6


# ---------------------------------------------------------------------------
# loss landscape


def test_landscape_center_and_pgd_corner():
    rng = np.random.default_rng(14)
    cfg = ModelConfig(kind="mlp", input_shape=(1, 2, 2), num_classes=3, hidden=(8,), seed=4)
    m = mdl.init(cfg)
    x = rng.uniform(0.2, 0.8, size=(1, 2, 2))
    y = 1
    pset = PerturbationSet("linf", 0.1)
    out = loss_landscape(m, x, y, pset, grid_half_extent=1.0, resolution=5, pgd_steps=10)
    grid, axis = out["grid"], out["axis"]
    assert np.all(np.isfinite(grid))
    center = np.flatnonzero(axis == 0.0)[0]
    logits = mdl.forward_logits(m, x[None]).data
    from genrobust.attacks import margin_loss

    clean_margin = margin_loss(logits, np.array([y]))[0]
    assert abs(grid[center, center] - clean_margin) < 1e-12
    # (a=1, b=0): margin at the PGD adversarial input exactly
    a_one = np.flatnonzero(axis == 1.0)[0]
    adv = np.clip(x + out["u"], 0, 1)
    adv_margin = margin_loss(mdl.forward_logits(m, adv[None]).data, np.array([y]))[0]
    assert abs(grid[a_one, center] - adv_margin) < 1e-12
