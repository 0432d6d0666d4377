"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criterion 6 trains the toy model for up to 500 optimizer steps and
dominates the runtime (a few minutes single-threaded).
"""

import time
from itertools import permutations

import numpy as np
import pytest

from dpsep import data, dualpath as dp, tasnet
from dpsep.checks import run_gradcheck_suite
from dpsep.numerics import Tensor
from dpsep.training import TrainConfig, si_snr, train_loop, upit_loss
from reference import codec, encoder_conv


def _report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_parameter_count():
    model = tasnet.build_model(num_filters=64, window=2, num_sources=2,
                               num_blocks=6, hidden=128, chunk_len=250)
    count = sum(t.size for _, t in model.parameters())
    rel = abs(count - 2.6e6) / 2.6e6
    _report(
        "criterion 1 (parameter count)",
        rel <= 0.05,
        f"default model has {count} parameters, {rel * 100:.2f}% from 2.6M",
    )


def test_criterion_2_chunk_rule():
    rows = ((16, 3999, 100), (8, 7999, 150), (4, 15999, 200), (2, 31999, 250))
    worst = 0.0
    for _window, frames, empirical in rows:
        k = dp.choose_chunk_size(frames)
        worst = max(worst, abs(k - empirical) / empirical)
        # S formula must hold exactly for the produced K
        chunks = dp.segment(Tensor(np.zeros((1, frames), dtype=np.float32)), k)
        assert chunks.shape[1] == -(-2 * frames // k) + 1
    _report(
        "criterion 2 (chunk rule)",
        worst <= 0.15,
        f"max deviation from Table-1 empirical chunk sizes: {worst * 100:.2f}%",
    )


def test_criterion_3_gradient_suite():
    started = time.perf_counter()
    results = run_gradcheck_suite()
    elapsed = time.perf_counter() - started
    failures = [name for name, report in results if not report.passed]
    worst = max(report.max_rel_error for _, report in results)
    _report(
        "criterion 3 (gradient suite)",
        not failures and elapsed < 60.0,
        f"{len(results)} checks, worst rel error {worst:.2e}, {elapsed:.1f}s"
        + (f", failures: {failures}" if failures else ""),
    )


def test_criterion_4_reconstruction_identities():
    rng = np.random.default_rng(1234)
    worst_rt = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        length = int(rng.integers(4, 300))
        k = 2 * int(rng.integers(1, min(2 * length, 64) // 2 + 1))
        w = rng.standard_normal((n, length)).astype(np.float32)
        out = dp.overlap_add(dp.segment(Tensor(w), k), length)
        worst_rt = max(worst_rt, float(np.abs(out.data - w).max()))
    worst_adj = 0.0
    for _ in range(50):
        width = int(rng.integers(1, 9))
        stride = int(rng.integers(1, 5))
        frames = int(rng.integers(1, 50))
        n = int(rng.integers(1, 6))
        sets = int(rng.integers(1, 4))
        x = Tensor(rng.standard_normal((1, (frames - 1) * stride + width)), dtype=np.float64)
        k = Tensor(rng.standard_normal((n, width)), dtype=np.float64)
        y = Tensor(rng.standard_normal((sets, n, frames)), dtype=np.float64)
        encoded = encoder_conv(x, k, stride)
        waves = tasnet.decode(y, codec(k, stride), x.shape[1], None).data
        for c in range(sets):
            lhs = float((encoded * y.data[c]).sum())
            rhs = float((x.data[0] * waves[c]).sum())
            worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))
    _report(
        "criterion 4 (reconstruction identities)",
        worst_rt <= 1e-6 and worst_adj <= 1e-5,
        f"round-trip max abs err {worst_rt:.2e}, adjoint max rel err {worst_adj:.2e}",
    )


def test_criterion_5_upit_oracle_equivalence():
    rng = np.random.default_rng(99)
    trials = 0
    for num_sources in (2, 3, 4):
        for _ in range(100):
            est = rng.standard_normal((num_sources, 24))
            ref = rng.standard_normal((num_sources, 24))
            est_t = Tensor(est, dtype=np.float64)
            ref_t = Tensor(ref, dtype=np.float64)
            loss, mean_db = upit_loss(est_t, ref_t)
            # independent exhaustive search over all C! assignments
            pair = np.array([[si_snr(est[a], ref[b]) for b in range(num_sources)]
                             for a in range(num_sources)])
            means = {
                perm: sum(pair[a, b] for a, b in enumerate(perm)) / num_sources
                for perm in permutations(range(num_sources))
            }
            best = max(sorted(means), key=lambda p: means[p])
            # the loss weighs the chosen pairs by -1/C and no other pair
            weights = np.zeros_like(pair)
            weights[range(num_sources), best] = -1.0 / num_sources
            assert mean_db == means[best]
            assert float(loss.data) == (pair * weights).sum()
            trials += 1
    _report("criterion 5 (uPIT oracle equivalence)", True, f"{trials} trials exact")


def _toy_manifest_lines():
    kinds = ("harmonic", "chirp", "modulated-noise")
    snrs = (-5.0, -3.5, -2.0, -0.5, 0.5, 2.0, 3.5, 5.0)
    return [
        f"train\tsynth:{kinds[i % 3]}:{100 + i}\tsynth:{kinds[(i + 1) % 3]}:{200 + i}\t{snrs[i]}"
        for i in range(8)
    ]


TOY_LR = 1e-2  # toy-run config value; the shipped default stays at the recipe's 1e-3


@pytest.mark.slow
def test_criterion_6_toy_overfit(tmp_path):
    manifest = tmp_path / "toy.tsv"
    manifest.write_text("\n".join(_toy_manifest_lines()) + "\n")
    records = data.parse_manifest(manifest)
    train_set = data.make_dataset(data.split_records(records, "train"), 0.5, 8000)
    assert len(train_set) == 8
    model = tasnet.build_model(
        num_filters=16, window=16, num_sources=2, num_blocks=2, hidden=32,
        nominal_samples=4000, sample_rate=8000, seed=0,
    )
    config = TrainConfig(
        epochs=125, lr_init=TOY_LR, batch_size=2,
        patience=10**6, seed=0,
    )
    started = time.perf_counter()
    result = train_loop(model, train_set, train_set, config, str(tmp_path / "run"))
    elapsed = time.perf_counter() - started
    best = result.best_val_si_snri
    _report(
        "criterion 6 (toy overfit)",
        result.steps_run <= 500 and best >= 10.0 and elapsed <= 900.0,
        f"mean training SI-SNRi {best:.2f} dB after {result.steps_run} steps "
        f"({elapsed:.0f}s)",
    )
    _separate_command_on_training_mixture(tmp_path, train_set[0])


def _separate_command_on_training_mixture(tmp_path, example):
    """The separate command on a training-set mixture with the overfit model
    must also land SI-SNRi >= 10 dB against the stored references."""
    from dpsep import cli
    from dpsep.training import upit_si_snri

    scale = 0.125  # exact binary scale keeps the WAV inside int16 range
    wav_in = tmp_path / "train_mixture.wav"
    data.write_wav(wav_in, example.mixture[0] * scale, 8000)
    out_dir = tmp_path / "separated"
    code = cli.main(
        ["separate", str(tmp_path / "run" / "best.ckpt"), str(wav_in), str(out_dir)]
    )
    assert code == 0
    est = np.stack(
        [data.read_wav(out_dir / f"source{c + 1}.wav")[0][0] for c in range(2)]
    )
    assert est.shape == (2, example.mixture.shape[1])
    si_snri = upit_si_snri(est, example.sources * scale, example.mixture * scale)
    _report(
        "criterion 6b (separate command on overfit model)",
        si_snri >= 10.0,
        f"uPIT SI-SNRi {si_snri:.2f} dB via WAV round trip",
    )


def test_criterion_7_scale_invariance():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        est = rng.standard_normal(128)
        ref = rng.standard_normal(128)
        values = [float(si_snr(alpha * est, ref)) for alpha in (1e-3, 1.0, 1e3)]
        worst = max(worst, max(values) - min(values))
    _report(
        "criterion 7 (scale invariance)",
        worst <= 1e-6,
        f"max SI-SNR spread over alpha in {{1e-3, 1, 1e3}}: {worst:.2e} dB",
    )


def test_criterion_8_out_of_scope_results_documented():
    # The 18.8 dB SI-SNRi / 19.0 dB SDRi benchmark results, the window-sweep
    # trend, and WER numbers need licensed speech corpora and multi-day
    # training; they are excluded by design and substituted by criteria 1-7.
    _report(
        "criterion 8 (corpus-scale results excluded)",
        True,
        "benchmark-scale reproductions are out of scope; property suites substitute",
    )
