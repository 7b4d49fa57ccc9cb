"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s`.

The planted-band recovery sweep (criterion 7) dominates the runtime:
its fixture took 142-200 s with its CV jobs run one at a time, and
about 100 s on a pool of two worker processes (2 vCPUs); everything
else finishes in seconds.
Criterion 10 needs the real datasets on disk and is skipped unless
LUNGSOUND_ICBHI_ROOT / LUNGSOUND_SPRSOUND_ROOT are set.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import PUBLISHED_METRIC_ROWS, check_gradient
from lungsound.attribution import integrated_gradients
from lungsound.data import SynthSpec, parse_icbhi, parse_sprsound, synth_corpus
from lungsound.fbs import fbs_backward, fbs_importance
from lungsound.flops import count_flops
from lungsound.metrics import scores_from_rates
from lungsound.model import (
    CnnTsa,
    ModelConfig,
    icbhi_config,
    sprsound_config,
    temporal_self_attention,
)
from lungsound.tensor import (
    BatchNormState,
    Tensor,
    batchnorm2d,
    bn_relu_pool,
    conv2d,
    frozen,
    matmul,
    pool2d,
    reduce,
    softmax,
)
from lungsound.train import TrainConfig, evaluate, train, wcce_loss


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: metric oracle ---------------------------------------------------------


def test_criterion_1_metric_oracle():
    t0 = time.time()
    worst = 0.0
    for sp, se, as_, hs, ts in PUBLISHED_METRIC_ROWS:
        got_as, got_hs, got_ts = scores_from_rates(se, sp)
        worst = max(worst, abs(got_as - as_))
        if hs is not None:
            worst = max(worst, abs(got_hs - hs))
        if ts is not None:
            worst = max(worst, abs(got_ts - ts))
    named = {(73.21, 37.89), (90.39, 75.46)}
    covered = {(sp, se) for sp, se, *_ in PUBLISHED_METRIC_ROWS}
    ok = (
        worst <= 0.01 + 1e-9
        and len(PUBLISHED_METRIC_ROWS) >= 10
        and named <= covered
        and time.time() - t0 < 1.0
    )
    report(1, ok, f"{len(PUBLISHED_METRIC_ROWS)} published rows reproduced, worst |err| {worst:.4f}")


# -- criterion 2: FLOPs reduction --------------------------------------------------------


def test_criterion_2_flops_reduction():
    ratios = {}
    for name, cfg in (("4-block", icbhi_config()), ("3-block", sprsound_config())):
        full = count_flops(replace(cfg, n_mel_rows_in=64), 249).total
        half = count_flops(replace(cfg, n_mel_rows_in=32), 249).total
        ratios[name] = half / full
    ok = all(0.49 <= r <= 0.51 for r in ratios.values())
    report(2, ok, "50%-band FLOPs ratios " + ", ".join(f"{k}={v:.4f}" for k, v in ratios.items()))


# -- criterion 3: parameter counts --------------------------------------------------------


def test_criterion_3_parameter_counts():
    n4 = CnnTsa(icbhi_config(n_classes=4), seed=0).n_parameters()
    n3 = CnnTsa(sprsound_config(n_classes=7), seed=0).n_parameters()
    d4 = abs(n4 - 4.6e6) / 4.6e6
    d3 = abs(n3 - 1.11e6) / 1.11e6
    ok = d4 < 0.10 and d3 < 0.10
    report(3, ok, f"4-block {n4:,} ({100 * d4:.1f}% from 4.6M), 3-block {n3:,} ({100 * d3:.1f}% from 1.11M)")


# -- criterion 4: gradient integrity -------------------------------------------------------


def _gradient_cases():
    """Yield (name, build_loss, arrays, h) randomized gradient checks."""
    g = np.random.default_rng(2024)

    def mixer(shape, seed):
        return np.random.default_rng(seed).normal(size=shape).astype(np.float32)

    for i, (shape, kshape, stride, pad) in enumerate(
        [((2, 3, 8, 8), (4, 3, 3, 3), 1, 0), ((1, 2, 6, 5), (3, 2, 3, 3), 1, 1),
         ((2, 1, 7, 7), (2, 1, 5, 5), 2, 2),
         ((1, 8, 13, 16), (2, 8, 5, 5), 1, 2)]  # Winograd: 8 channels, 16 tiles
    ):
        x = g.normal(size=shape).astype(np.float32) * 0.5
        w = g.normal(size=kshape).astype(np.float32) * 0.5
        out_shape = conv2d(Tensor(x), Tensor(w), stride=stride, padding=pad).shape
        mix = mixer(out_shape, 100 + i)

        def loss(t, s=stride, p=pad, m=mix):
            return (conv2d(t["x"], t["w"], stride=s, padding=p) * Tensor(m)).sum()

        yield f"conv2d[{i}]", loss, {"x": x, "w": w}, 1e-3

    for i, shape in enumerate([(2, 2, 4, 4), (1, 3, 5, 5), (3, 1, 4, 6)]):
        x = g.normal(size=shape).astype(np.float32)
        gamma = g.uniform(0.5, 1.5, size=shape[1]).astype(np.float32)
        beta = g.normal(size=shape[1]).astype(np.float32)
        mix = mixer(shape, 200 + i)

        def loss(t, c=shape[1], m=mix):
            state = BatchNormState(c)
            return (batchnorm2d(t["x"], t["gamma"], t["beta"], state) * Tensor(m)).sum()

        yield f"batchnorm2d[{i}]", loss, {"x": x, "gamma": gamma, "beta": beta}, 1e-3

    # the fused conv-block epilogue, with the pool (blocks 1 to n-1) and
    # without it (the last block): odd H or W; training (trainable gamma and
    # beta), eval mode (frozen gamma and beta, IG's path), and training on an
    # input that needs no gradient (block 1)
    for pool in (True, False):
        # the no-pool cases draw from a generator of their own
        gp = g if pool else np.random.default_rng(2025)
        for i, (shape, checked) in enumerate(
            [((2, 3, 5, 6), ("x", "gamma", "beta")), ((1, 2, 7, 5), ("x",)), ((2, 2, 4, 7), ("gamma", "beta"))]
        ):
            x = gp.normal(size=shape).astype(np.float32)
            gamma = gp.uniform(0.5, 1.5, size=shape[1]).astype(np.float32)
            beta = (gp.normal(size=shape[1]) * 0.3).astype(np.float32)
            out_shape = shape[:2] + ((shape[2] // 2, shape[3] // 2) if pool else shape[2:])
            mix = mixer(out_shape, (250 if pool else 260) + i)
            arrays = {k: v for k, v in (("x", x), ("gamma", gamma), ("beta", beta)) if k in checked}

            def loss(t, c=shape[1], xs=x, ga=gamma, be=beta, m=mix, p=pool):
                state = BatchNormState(c)
                state.running_mean[:] = 0.1
                state.running_var[:] = 1.3
                xt, gt, bt = t.get("x", Tensor(xs)), t.get("gamma", Tensor(ga)), t.get("beta", Tensor(be))
                return (bn_relu_pool(xt, gt, bt, state, pool=p) * Tensor(m)).sum()

            # h=1e-5: ReLU's kink sits inside a 1e-3 secant for some entries
            yield f"bn_relu_pool{'' if pool else '-nopool'}[{i}]", loss, arrays, 1e-5

    # one 2x2 window; odd H, odd W and both, whose last row or column is dropped
    for i, shape in enumerate([(1, 2, 6, 6), (2, 1, 7, 8), (1, 1, 5, 5)]):
        x = (g.permutation(int(np.prod(shape))).reshape(shape) * 0.13).astype(np.float32)
        mix = mixer((shape[0], shape[1], shape[2] // 2, shape[3] // 2), 300 + i)

        def loss(t, m=mix):
            return (pool2d(t["x"]) * Tensor(m)).sum()

        yield f"pool2d[{i}]", loss, {"x": x}, 1e-3

    for i, (ashape, bshape) in enumerate([((4, 5), (5, 6)), ((2, 3, 4), (4, 5)), ((3, 2, 6), (3, 6, 2))]):
        a = g.normal(size=ashape).astype(np.float32)
        b = g.normal(size=bshape).astype(np.float32)
        out_shape = matmul(Tensor(a), Tensor(b)).shape
        mix = mixer(out_shape, 400 + i)

        def loss(t, m=mix):
            return (matmul(t["a"], t["b"]) * Tensor(m)).sum()

        yield f"matmul[{i}]", loss, {"a": a, "b": b}, 1e-3

    for i, shape in enumerate([(5,), (3, 7), (2, 4, 5)]):
        x = g.normal(size=shape).astype(np.float32)
        mix = mixer(shape, 500 + i)

        def loss(t, m=mix):
            return (softmax(t["x"], axis=-1) * Tensor(m)).sum()

        yield f"softmax[{i}]", loss, {"x": x}, 1e-3

    for i, (kind, shape, axis) in enumerate(
        [("mean", (4, 6), 1), ("sum", (3, 5), 0), ("max", (4, 7), 1)]
    ):
        x = (g.permutation(int(np.prod(shape))).reshape(shape) * 0.37).astype(np.float32)
        out_shape = reduce(Tensor(x), kind, axis).shape
        mix = mixer(out_shape, 600 + i)

        def loss(t, k=kind, ax=axis, m=mix):
            return (reduce(t["x"], k, ax) * Tensor(m)).sum()

        yield f"reduce-{kind}[{i}]", loss, {"x": x}, 1e-3

    x = g.normal(size=(2, 6, 8)).astype(np.float32)
    wq = g.normal(size=(8, 2)).astype(np.float32) * 0.4
    wk = g.normal(size=(8, 2)).astype(np.float32) * 0.4
    wv = g.normal(size=(8, 8)).astype(np.float32) * 0.4
    mix = mixer((2, 6, 8), 700)

    def attn_loss(t):
        return (temporal_self_attention(t["x"], t["wq"], t["wk"], t["wv"]) * Tensor(mix)).sum()

    yield "attention", attn_loss, {"x": x, "wq": wq, "wk": wk, "wv": wv}, 1e-3

    logits = g.normal(size=(5, 3)).astype(np.float32)
    labels = np.array([0, 2, 1, 1, 0])

    def wcce(t):
        return wcce_loss(t["logits"], labels, np.array([2, 2, 1]))

    yield "wcce", wcce, {"logits": logits}, 1e-3

    cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8)
    base = CnnTsa(cfg, seed=1)
    x = g.normal(size=(2, 1, 6, 8)).astype(np.float32)
    mix = mixer((2, 2), 800)
    arrays = {"x": x}
    arrays.update({k: p.data.copy() for k, p in base.params.items()})

    def full_model(t):
        clone = CnnTsa(cfg, seed=1)
        for k in clone.params:
            clone.params[k] = t[k]
        return (clone.forward(t["x"]) * Tensor(mix)).sum()

    # h=1e-5: batchnorm centers activations on the ReLU kink where a
    # 1e-3 secant steps across it
    yield "full-tiny-model", full_model, arrays, 1e-5


def test_criterion_4_gradient_integrity():
    t0 = time.time()
    n_cases = 0
    for name, loss, arrays, h in _gradient_cases():
        check_gradient(loss, arrays, rtol=1e-3, atol=1e-5, h=h)
        n_cases += 1
    dt = time.time() - t0
    ok = n_cases >= 20 and dt < 30
    report(4, ok, f"{n_cases} randomized finite-difference checks in {dt:.1f}s")


# -- criterion 5: attention properties ----------------------------------------------------


def test_criterion_5_attention_properties():
    t0 = time.time()
    g = np.random.default_rng(7)
    d, dk = 8, 1
    wq = Tensor(g.normal(size=(d, dk)).astype(np.float32) * 0.5)
    wk = Tensor(g.normal(size=(d, dk)).astype(np.float32) * 0.5)
    wv = Tensor(g.normal(size=(d, d)).astype(np.float32) * 0.5)
    for seed in range(10):
        x = np.random.default_rng(seed).normal(size=(1, 7, d)).astype(np.float32) * 3
        _, weights = temporal_self_attention(Tensor(x), wq, wk, wv, return_weights=True)
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-6)
        perm = np.random.default_rng(seed + 50).permutation(7)
        out = temporal_self_attention(Tensor(x), wq, wk, wv).data
        out_p = temporal_self_attention(Tensor(x[:, perm]), wq, wk, wv).data
        np.testing.assert_allclose(out[:, perm], out_p, atol=1e-5)
    x1 = Tensor(g.normal(size=(1, 1, d)).astype(np.float32))
    out1, w1 = temporal_self_attention(x1, wq, wk, wv, return_weights=True)
    assert w1.data.item() == pytest.approx(1.0)
    np.testing.assert_allclose(out1.data, matmul(x1, wv).data, rtol=1e-6)
    zero_q = Tensor(np.zeros((d, dk), np.float32))
    xz = Tensor(g.normal(size=(2, 5, d)).astype(np.float32))
    _, wz = temporal_self_attention(xz, zero_q, wk, wv, return_weights=True)
    np.testing.assert_allclose(wz.data, 0.2, atol=1e-6)
    dt = time.time() - t0
    report(5, dt < 5, f"row-stochastic, T=1, zero-projection, equivariance over 10 inputs in {dt:.1f}s")


# -- criterion 6: IG axioms ----------------------------------------------------------------


def test_criterion_6_ig_axioms():
    t0 = time.time()
    g = np.random.default_rng(8)
    from test_attribution import LinearModel, make_spec

    w0 = g.normal(size=(4, 5)).astype(np.float32)
    w1 = g.normal(size=(4, 5)).astype(np.float32)
    spec = make_spec(t=4, f=5, seed=9)
    baseline = g.normal(size=(4, 5)).astype(np.float32)
    exact_err = 0.0
    for steps in (1, 7, 50):
        amap = integrated_gradients(LinearModel(w0, w1), spec, 0, baseline=baseline, steps=steps)
        exact_err = max(exact_err, float(np.abs(amap.values - w0 * (spec.values - baseline)).max()))

    corpus = synth_corpus(
        SynthSpec(n_classes=2, n_bands=12, n_frames=12, n_per_class=15, snr_db=12.0, seed=1)
    )
    cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=12)
    tcfg = TrainConfig(epochs=8, batch_size=15, lr0=5e-3, weight_decay=0.0,
                       seed=1, task="multiclass", specaugment=False)
    model = train(corpus, cfg, tcfg).model
    spec = corpus[3]
    base = np.zeros_like(spec.values)
    amap = integrated_gradients(model, spec, 0, baseline=base, steps=200)
    with frozen(model.params.values()):
        s_x = model.forward(Tensor(spec.values[None, None])).data[0, 0]
        s_b = model.forward(Tensor(base[None, None])).data[0, 0]
    gap = float(s_x - s_b)
    rel = abs(float(amap.values.sum()) - gap) / max(abs(gap), 1e-12)
    dt = time.time() - t0
    ok = exact_err < 1e-5 and rel < 0.02 and dt < 30
    report(6, ok, f"linear exactness |err| {exact_err:.2e}, completeness {100 * rel:.2f}% at 200 steps ({dt:.1f}s)")


# -- criteria 7+8: planted-band recovery and complexity accounting ---------------------------

PLANTED = (12, 13, 14, 15, 40, 41, 42, 43)
N_SEEDS = 5


def _recovery_corpus(seed):
    return synth_corpus(
        SynthSpec(
            n_classes=2, n_bands=64, n_frames=10, n_per_class=200, snr_db=10.0,
            planted_bands=(PLANTED, PLANTED), amp_jitter=(0.05, 2.0),
            jitter_log=True, seed=seed,
        )
    )


def _recovery_cfgs(seed):
    mcfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=64)
    tcfg = TrainConfig(epochs=6, batch_size=32, lr0=1e-2, weight_decay=0.0,
                       seed=seed, task="multiclass", specaugment=False)
    return mcfg, tcfg


@pytest.fixture(scope="module")
def recovery_runs():
    t0 = time.time()
    runs = {"importance": [], "backward": []}
    for seed in range(N_SEEDS):
        corpus = _recovery_corpus(seed)
        mcfg, tcfg = _recovery_cfgs(seed)
        runs["importance"].append(
            fbs_importance(corpus, mcfg, tcfg, lam=0.0, r=4, k_folds=2,
                           stop_epsilon=math.inf, min_bands=32)
        )
        runs["backward"].append(
            fbs_backward(corpus, mcfg, tcfg, k_folds=2,
                         stop_epsilon=math.inf, min_bands=32)
        )
    runs["wall_clock"] = time.time() - t0
    return runs


def test_criterion_7_planted_band_recovery(recovery_runs):
    planted = set(PLANTED)
    imp_hits = [
        len(planted & set(r.mask_at(32).kept_indices.tolist()))
        for r in recovery_runs["importance"]
    ]
    bwd_hits = [
        len(planted & set(r.final_mask.kept_indices.tolist()))
        for r in recovery_runs["backward"]
    ]
    imp_ok = sum(h >= 7 for h in imp_hits) >= 4
    bwd_ok = sum(h >= 6 for h in bwd_hits) >= 4
    dt = recovery_runs["wall_clock"]
    ok = imp_ok and bwd_ok and dt < 15 * 60
    report(7, ok, f"importance kept {imp_hits}/8, backward kept {bwd_hits}/8 planted bands ({dt:.0f}s)")


def test_criterion_8_complexity_accounting(recovery_runs):
    imp_ok = all(r.train_runs == len(r.iterations) for r in recovery_runs["importance"])
    bwd_ok = all(
        r.train_runs == sum(len(it.candidate_as) for it in r.iterations)
        for r in recovery_runs["backward"]
    )
    imp_runs = recovery_runs["importance"][0].train_runs
    bwd_runs = recovery_runs["backward"][0].train_runs
    # 64 -> 32 by 4: the linear method trains once per iteration (9); the
    # grouped backward method trains once per candidate group (16+...+9)
    structure_ok = imp_runs == 9 and bwd_runs == sum(range(9, 17))
    ok = imp_ok and bwd_ok and structure_ok
    report(8, ok, f"importance {imp_runs} trainings (= iterations), backward {bwd_runs} (= sum of candidate groups)")


# -- criterion 9: desk-scale learning smoke test ----------------------------------------------


def test_criterion_9_learning_smoke():
    t0 = time.time()
    corpus = synth_corpus(
        SynthSpec(n_classes=2, n_bands=12, n_frames=12, n_per_class=25, snr_db=15.0, seed=0)
    )
    cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=12)
    frozen = TrainConfig(epochs=1, batch_size=16, lr0=0.0, weight_decay=0.0,
                         seed=0, task="multiclass", specaugment=False)
    loss0 = train(corpus, cfg, frozen).history[0].loss
    expected = 2 * math.log(2) / 50  # |C| log|C| / N with w_c = 1/count_c
    loss_ok = abs(loss0 - expected) / expected <= 0.20

    tcfg = TrainConfig(epochs=30, batch_size=16, lr0=2e-3, weight_decay=0.0,
                       seed=0, task="multiclass", specaugment=False)
    result = train(corpus, cfg, tcfg)
    train_as = evaluate(result.model, corpus, "multiclass").as_score
    dt = time.time() - t0
    ok = loss_ok and train_as > 95.0 and dt < 120
    report(9, ok, f"initial loss {loss0:.4f} vs closed form {expected:.4f}, train AS {train_as:.1f} after 30 epochs ({dt:.1f}s)")


# -- criterion 10: dataset census (needs data on disk) -----------------------------------------


def test_criterion_10_icbhi_census():
    root = os.environ.get("LUNGSOUND_ICBHI_ROOT")
    if not root:
        pytest.skip("LUNGSOUND_ICBHI_ROOT not set; census skipped")
    records = parse_icbhi(root)
    counts = np.bincount([r.label for r in records], minlength=4)
    ok = len(records) == 6898 and counts.tolist() == [3642, 1864, 886, 506]
    report(10, ok, f"ICBHI census {len(records)} cycles, per-class {counts.tolist()}")


def test_criterion_10_sprsound_census():
    root = os.environ.get("LUNGSOUND_SPRSOUND_ROOT")
    if not root:
        pytest.skip("LUNGSOUND_SPRSOUND_ROOT not set; census skipped")
    records = parse_sprsound(root, edition=2022)
    n_train = sum(r.split == "official_train" for r in records)
    n_test = sum(r.split == "official_test" for r in records)
    ok = n_train == 6656 and n_test == 2433
    report(10, ok, f"SPRSound-2022 census {n_train} train / {n_test} test events")


# -- criterion 11: determinism -------------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    from lungsound.cli import main

    t0 = time.time()

    def run(*args):
        assert main(["--workdir", str(tmp_path), *args]) == 0

    synth = [
        "preprocess", "--dataset", "synth", "--out", "d.cache",
        "--synth-per-class", "10", "--synth-bands", "16", "--synth-frames", "10",
        "--seed", "7",
    ]
    trainer = [
        "train", "--cache", "d.cache", "--task", "multiclass", "--preset", "tiny",
        "--epochs", "2", "--batch-size", "8", "--no-specaugment", "--seed", "7",
    ]
    fbs = [
        "fbs", "--cache", "d.cache", "--method", "importance", "--fbs-lambda", "0",
        "--r", "4", "--k-folds", "2", "--stop-epsilon", "inf", "--min-bands", "12",
        "--preset", "tiny", "--epochs", "2", "--batch-size", "8",
        "--no-specaugment", "--seed", "7",
    ]
    run(*synth)
    cache_bytes = (tmp_path / "d.cache").read_bytes()
    (tmp_path / "d.cache").unlink()
    run(*synth)
    assert (tmp_path / "d.cache").read_bytes() == cache_bytes

    pairs = []
    for tag in ("A", "B"):
        run(*trainer, "--out-dir", f"t{tag}")
        run(*fbs, "--out-dir", f"f{tag}")
        run("evaluate", "--checkpoint", f"t{tag}/checkpoint.ckpt", "--cache", "d.cache",
            "--split", "all", "--out-dir", f"e{tag}")
        run("attribute", "--checkpoint", f"t{tag}/checkpoint.ckpt", "--cache", "d.cache",
            "--method", "gradcam", "--class-id", "0", "--first", "2", "--svg",
            "--out-dir", f"a{tag}")
        run("flops", "--out", f"fl{tag}.csv", "--preset", "tiny", "--n-mels", "16")
        pairs.append(tag)

    artifacts = [
        ("t{}/checkpoint.ckpt", "rb"), ("t{}/history.csv", "r"),
        ("f{}/mask.txt", "r"), ("f{}/iterations.csv", "r"),
        ("f{}/retention_curve.svg", "r"), ("e{}/report.json", "r"),
        ("e{}/confusion.csv", "r"), ("a{}/attributions.ckpt", "rb"),
        ("a{}/band_profiles.csv", "r"), ("fl{}.csv", "r"),
    ]
    diffs = []
    for pattern, mode in artifacts:
        a = (tmp_path / pattern.format("A"))
        b = (tmp_path / pattern.format("B"))
        same = a.read_bytes() == b.read_bytes()
        if not same:
            diffs.append(pattern)
    dt = time.time() - t0
    ok = not diffs and dt < 5 * 60
    report(11, ok, f"{len(artifacts)} primary outputs byte-identical across reruns ({dt:.1f}s)"
           + (f"; differing: {diffs}" if diffs else ""))
