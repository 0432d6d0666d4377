"""Segmentation geometry, overlap-add inversion, layer norm, block passes."""

import numpy as np
import pytest

from dpsep import dualpath as dp
from dpsep import numerics as nt
from dpsep.numerics import GradTape, ShapeError, Tensor


class TestChooseChunkSize:
    def test_exact_square(self):
        assert dp.choose_chunk_size(8) == (4, 2)

    def test_window16_frames(self):
        k, p = dp.choose_chunk_size(3999)
        assert (k, p) == (90, 45)  # paper's empirical pick is 100

    def test_window2_frames(self):
        k, p = dp.choose_chunk_size(31999)
        assert (k, p) == (254, 127)  # paper's empirical pick is 250

    def test_within_15pct_of_empirical_table(self):
        for frames, empirical in ((3999, 100), (7999, 150), (15999, 200), (31999, 250)):
            k, _ = dp.choose_chunk_size(frames)
            assert abs(k - empirical) / empirical <= 0.15

    def test_rejects_tiny_input(self):
        with pytest.raises(ShapeError):
            dp.choose_chunk_size(3)

    def test_sublinear_lengths(self):
        rng = np.random.default_rng(0)
        lengths = np.unique(
            np.concatenate(
                [
                    np.logspace(np.log10(16), 6, 40).astype(int),
                    rng.integers(16, 10**6, 40),
                ]
            )
        )
        for length in lengths:
            k, _ = dp.choose_chunk_size(int(length))
            s = dp.chunk_count(int(length), k)
            assert max(k, s) <= 3 * np.sqrt(length)


class TestSegmentOverlapAdd:
    def test_hand_enumerated_example(self):
        w = Tensor([[1.0, 2.0, 3.0, 4.0]])
        ct = dp.segment(w, 4, 2)
        assert ct.num_chunks == 3 == dp.chunk_count(4, 4)
        expected = np.array([[0, 0, 1, 2], [1, 2, 3, 4], [3, 4, 0, 0]], dtype=np.float32)
        np.testing.assert_array_equal(ct.data.data[0].T, expected)

    def test_zero_input_zero_chunks(self):
        ct = dp.segment(Tensor(np.zeros((2, 10))), 4, 2)
        np.testing.assert_array_equal(ct.data.data, np.zeros((2, 4, 6)))

    def test_chunk_count_formula_large(self):
        assert dp.chunk_count(31999, 250) == 257

    def test_every_sample_in_exactly_two_chunks(self):
        ct = dp.segment(Tensor(np.ones((1, 11))), 6, 3)
        counts = np.zeros(11)
        hop = ct.hop
        for s in range(ct.num_chunks):
            for k in range(ct.chunk_len):
                pos = s * hop + k - hop  # remove the front padding
                if 0 <= pos < 11:
                    counts[pos] += ct.data.data[0, k, s]
        np.testing.assert_array_equal(counts, np.full(11, 2.0))

    def test_rejects_odd_chunk_or_wrong_hop(self):
        w = Tensor(np.ones((1, 10)))
        with pytest.raises(ShapeError):
            dp.segment(w, 5, 2)
        with pytest.raises(ShapeError):
            dp.segment(w, 6, 2)

    def test_rejects_degenerate_chunking(self):
        with pytest.raises(ShapeError) as exc:
            dp.segment(Tensor(np.ones((1, 4))), 10, 5)
        assert "smaller chunk" in str(exc.value)

    def test_overlap_add_of_ones_chunks(self):
        # all-ones chunks of the L=4, K=4 geometry collapse to ones after /2
        ct = dp.segment(Tensor(np.zeros((1, 4))), 4, 2)
        ones = ct.with_data(Tensor(np.ones((1, 4, 3))))
        out = dp.overlap_add(ones)
        np.testing.assert_array_equal(out.data, [[1.0, 1.0, 1.0, 1.0]])

    def test_zero_chunks_give_zero_sequence(self):
        ct = dp.segment(Tensor(np.zeros((3, 9))), 4, 2)
        np.testing.assert_array_equal(dp.overlap_add(ct).data, np.zeros((3, 9)))

    @pytest.mark.parametrize("trial", range(50))
    def test_round_trip_identity(self, trial):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(1, 5))
        length = int(rng.integers(4, 200))
        max_k = min(2 * length, 60)
        k = 2 * int(rng.integers(1, max_k // 2 + 1))
        w = rng.standard_normal((n, length)).astype(np.float32)
        ct = dp.segment(Tensor(w), k, k // 2)
        assert ct.num_chunks == dp.chunk_count(length, k)
        out = dp.overlap_add(ct)
        np.testing.assert_allclose(out.data, w, atol=1e-6)


class TestGlobalLayerNorm:
    def test_constant_input_returns_bias(self):
        x = Tensor(np.full((2, 3, 4), 5.0))
        z = Tensor(np.ones(2))
        r = Tensor(np.array([1.5, -2.0]))
        out = dp.global_layer_norm(x, z, r)
        np.testing.assert_allclose(out.data[0], np.full((3, 4), 1.5), atol=1e-5)
        np.testing.assert_allclose(out.data[1], np.full((3, 4), -2.0), atol=1e-5)

    def test_standardized_input_passes_through(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 5, 6))
        x = (x - x.mean()) / x.std()
        out = dp.global_layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 2, 2))
        z = rng.standard_normal(2)
        r = rng.standard_normal(2)
        mu = x.mean()
        var = ((x - mu) ** 2).mean()
        expected = (x - mu) / np.sqrt(var + dp.LN_EPS) * z[:, None, None] + r[:, None, None]
        out = dp.global_layer_norm(
            Tensor(x, dtype=np.float64), Tensor(z, dtype=np.float64),
            Tensor(r, dtype=np.float64),
        )
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_records_one_tape_node(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        with GradTape() as tape:
            dp.global_layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert [node.name for node in tape._nodes] == ["global_layer_norm"]

    def test_normalizes_mean_and_variance(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((3, 8, 9)) * 7.0 + 3.0)
        out = dp.global_layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3))).data
        assert abs(out.mean()) < 1e-5
        assert abs(out.var() - 1.0) < 1e-3


def _random_sub_params(rng, feat, hidden, dtype=np.float64):
    return dp.init_sub_params(rng, feat, hidden, dtype=dtype)


class TestBlockPasses:
    def test_intra_permutation_equivariance_along_chunks(self):
        rng = np.random.default_rng(12)
        params = _random_sub_params(rng, 3, 2)
        x = rng.standard_normal((3, 4, 5))
        perm = rng.permutation(5)
        out = dp.intra_chunk_pass(Tensor(x, dtype=np.float64), params).data
        out_perm = dp.intra_chunk_pass(
            Tensor(x[:, :, perm], dtype=np.float64), params
        ).data
        # equal up to float reassociation in the global LN reductions
        np.testing.assert_allclose(out[:, :, perm], out_perm, rtol=1e-12, atol=1e-12)

    def test_zero_params_reduce_to_bias_residual(self):
        rng = np.random.default_rng(13)
        params = _random_sub_params(rng, 3, 2, dtype=np.float32)
        for name, t in params.tensors():
            t.data = np.zeros_like(t.data)
        params.ln_bias.data = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        x = rng.standard_normal((3, 4, 5)).astype(np.float32)
        out = dp.intra_chunk_pass(Tensor(x), params).data
        np.testing.assert_allclose(out, x + params.ln_bias.data[:, None, None], atol=1e-6)

    def test_single_chunk_matches_direct_composition(self):
        rng = np.random.default_rng(14)
        params = _random_sub_params(rng, 3, 2)
        x = rng.standard_normal((3, 6, 1))
        out = dp.intra_chunk_pass(Tensor(x, dtype=np.float64), params).data

        seq = Tensor(x[:, :, 0].T.reshape(6, 1, 3), dtype=np.float64)  # (K, 1, N)
        hs = nt.bilstm_batched(seq, params.lstm_fwd, params.lstm_bwd)  # (K, 1, 2H)
        proj = nt.affine(hs, params.fc_weight, params.fc_bias)  # (K, 1, N)
        back = nt.transpose(proj, (2, 0, 1))  # (N, K, 1)
        normed = dp.global_layer_norm(back, params.ln_scale, params.ln_bias)
        expected = nt.add(Tensor(x, dtype=np.float64), normed).data
        np.testing.assert_array_equal(out, expected)

    def test_inter_equals_intra_on_swapped_axes(self):
        rng = np.random.default_rng(15)
        params = _random_sub_params(rng, 3, 2)
        x = rng.standard_normal((3, 4, 5))
        direct = dp.inter_chunk_pass(Tensor(x, dtype=np.float64), params).data
        swapped = dp.intra_chunk_pass(
            Tensor(x.transpose(0, 2, 1).copy(), dtype=np.float64), params
        ).data.transpose(0, 2, 1)
        np.testing.assert_allclose(direct, swapped, rtol=1e-12, atol=1e-12)

    def test_inter_degenerate_single_chunk(self):
        rng = np.random.default_rng(16)
        params = _random_sub_params(rng, 2, 3)
        x = rng.standard_normal((2, 5, 1))
        out = dp.inter_chunk_pass(Tensor(x, dtype=np.float64), params)
        assert out.shape == (2, 5, 1)

    def test_inter_two_chunks_matches_unrolled_oracle(self):
        rng = np.random.default_rng(17)
        params = _random_sub_params(rng, 2, 2)
        x = rng.standard_normal((2, 3, 2))
        out = dp.inter_chunk_pass(Tensor(x, dtype=np.float64), params).data

        # unroll: for each of the K=3 positions, run the BLSTM over the S=2 steps
        proj = np.zeros_like(x)
        for k in range(3):
            seq = Tensor(x[:, k, :].T.reshape(2, 1, 2), dtype=np.float64)  # (S, 1, N)
            hs = nt.bilstm_batched(seq, params.lstm_fwd, params.lstm_bwd)
            pr = nt.affine(hs, params.fc_weight, params.fc_bias)  # (S, 1, N)
            proj[:, k, :] = pr.data[:, 0, :].T
        mu = proj.mean()
        var = ((proj - mu) ** 2).mean()
        ln = (proj - mu) / np.sqrt(var + dp.LN_EPS)
        ln = ln * params.ln_scale.data[:, None, None] + params.ln_bias.data[:, None, None]
        np.testing.assert_allclose(out, x + ln, rtol=1e-8, atol=1e-10)


class TestDprnnStack:
    def test_single_block_is_intra_then_inter(self):
        rng = np.random.default_rng(18)
        block = dp.init_block_params(rng, 3, 2, dtype=np.float64)
        x = rng.standard_normal((3, 4, 5))
        ct = dp.segment(Tensor(np.zeros((3, 8)), dtype=np.float64), 4, 2)
        ct = ct.with_data(Tensor(x, dtype=np.float64))
        out = dp.dprnn_stack(ct, [block]).data.data
        expected = dp.inter_chunk_pass(
            dp.intra_chunk_pass(Tensor(x, dtype=np.float64), block.intra), block.inter
        ).data
        np.testing.assert_array_equal(out, expected)

    def test_shape_preserved_across_stack(self):
        rng = np.random.default_rng(19)
        blocks = [dp.init_block_params(rng, 4, 3) for _ in range(3)]
        ct = dp.segment(Tensor(rng.standard_normal((4, 20)).astype(np.float32)), 6, 3)
        out = dp.dprnn_stack(ct, blocks)
        assert out.data.shape == ct.data.shape

    def test_two_blocks_match_manual_composition(self):
        rng = np.random.default_rng(20)
        blocks = [dp.init_block_params(rng, 2, 2, dtype=np.float64) for _ in range(2)]
        ct = dp.segment(Tensor(rng.standard_normal((2, 9)), dtype=np.float64), 4, 2)
        out = dp.dprnn_stack(ct, blocks).data.data
        x = ct.data
        for b in blocks:
            x = dp.inter_chunk_pass(dp.intra_chunk_pass(x, b.intra), b.inter)
        np.testing.assert_array_equal(out, x.data)

    def test_empty_stack_rejected(self):
        ct = dp.segment(Tensor(np.ones((1, 8))), 4, 2)
        with pytest.raises(ShapeError):
            dp.dprnn_stack(ct, [])
