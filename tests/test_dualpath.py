"""Segmentation geometry, overlap-add inversion, layer norm, block passes."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from dpsep import dualpath as dp
from dpsep import numerics as nt
from dpsep.numerics import GradTape, ShapeError, Tensor
from reference import add, mul, tsum


class TestChooseChunkSize:
    def test_exact_square(self):
        assert dp.choose_chunk_size(8) == 4

    def test_window16_frames(self):
        assert dp.choose_chunk_size(3999) == 90  # paper's empirical pick is 100

    def test_window2_frames(self):
        assert dp.choose_chunk_size(31999) == 254  # paper's empirical pick is 250

    def test_within_15pct_of_empirical_table(self):
        for frames, empirical in ((3999, 100), (7999, 150), (15999, 200), (31999, 250)):
            k = dp.choose_chunk_size(frames)
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
            k = dp.choose_chunk_size(int(length))
            s = dp.chunk_count(int(length), k)
            assert max(k, s) <= 3 * np.sqrt(length)


class TestSegmentOverlapAdd:
    def test_hand_enumerated_example(self):
        w = Tensor([[1.0, 2.0, 3.0, 4.0]])
        chunks = dp.segment(w, 4)
        assert chunks.shape == (4, 3, 1) and dp.chunk_count(4, 4) == 3
        expected = np.array([[0, 0, 1, 2], [1, 2, 3, 4], [3, 4, 0, 0]], dtype=np.float32)
        np.testing.assert_array_equal(chunks.data[:, :, 0].T, expected)

    def test_zero_input_zero_chunks(self):
        chunks = dp.segment(Tensor(np.zeros((2, 10))), 4)
        np.testing.assert_array_equal(chunks.data, np.zeros((4, 6, 2)))

    def test_chunk_count_formula_large(self):
        assert dp.chunk_count(31999, 250) == 257

    def test_every_sample_in_exactly_two_chunks(self):
        chunks = dp.segment(Tensor(np.ones((1, 11))), 6)
        counts = np.zeros(11)
        hop = 3
        for s in range(chunks.shape[1]):
            for k in range(6):
                pos = s * hop + k - hop  # remove the front padding
                if 0 <= pos < 11:
                    counts[pos] += chunks.data[k, s, 0]
        np.testing.assert_array_equal(counts, np.full(11, 2.0))

    def test_rejects_odd_or_empty_chunk(self):
        w = Tensor(np.ones((1, 10)))
        for chunk_len in (5, 0):
            with pytest.raises(ShapeError):
                dp.segment(w, chunk_len)

    def test_rejects_degenerate_chunking(self):
        with pytest.raises(ShapeError) as exc:
            dp.segment(Tensor(np.ones((1, 4))), 10)
        assert "smaller chunk" in str(exc.value)

    def test_overlap_add_rejects_chunks_that_do_not_tile_the_length(self):
        chunks = dp.segment(Tensor(np.ones((1, 9))), 4)
        for length in (4, 20):
            with pytest.raises(ShapeError):
                dp.overlap_add(chunks, length)

    def test_overlap_add_of_ones_chunks(self):
        # all-ones chunks of the L=4, K=4 geometry collapse to ones after /2
        out = dp.overlap_add(Tensor(np.ones((4, 3, 1))), 4)
        np.testing.assert_array_equal(out.data, [[1.0, 1.0, 1.0, 1.0]])

    def test_zero_chunks_give_zero_sequence(self):
        chunks = dp.segment(Tensor(np.zeros((3, 9))), 4)
        np.testing.assert_array_equal(dp.overlap_add(chunks, 9).data, np.zeros((3, 9)))

    @pytest.mark.parametrize("trial", range(50))
    def test_round_trip_identity(self, trial):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(1, 5))
        length = int(rng.integers(4, 200))
        max_k = min(2 * length, 60)
        k = 2 * int(rng.integers(1, max_k // 2 + 1))
        w = rng.standard_normal((n, length)).astype(np.float32)
        chunks = dp.segment(Tensor(w), k)
        assert chunks.shape == (k, dp.chunk_count(length, k), n)
        out = dp.overlap_add(chunks, length)
        np.testing.assert_allclose(out.data, w, atol=1e-6)


def _padded_chunks(w, chunk_len):
    """The definition of `segment`'s chunks: w (F, L) padded with P zero
    frames in front and zeros to (S+1)*P frames; chunk j holds padded
    frames j*P .. j*P + 2P."""
    hop, s = chunk_len // 2, dp.chunk_count(w.shape[1], chunk_len)
    padded = np.zeros(((s + 1) * hop, w.shape[0]), dtype=w.dtype)
    padded[hop : hop + w.shape[1]] = w.T
    return np.stack([padded[j * hop : j * hop + chunk_len] for j in range(s)], axis=1)


class TestChunkAndFold:
    def test_chunk_matches_padded_definition_for_every_geometry(self):
        rng = np.random.default_rng(30)
        for length in range(1, 60):
            w = rng.standard_normal((3, length))
            for chunk_len in range(2, 2 * length + 1, 2):
                s = dp.chunk_count(length, chunk_len)
                got = dp._chunk(w, chunk_len // 2, s)
                np.testing.assert_array_equal(got, _padded_chunks(w, chunk_len))

    def test_fold_is_the_adjoint_of_chunk(self):
        # <chunk(w), x> == <w, fold(x)> for every geometry of a few lengths
        rng = np.random.default_rng(31)
        for length in (1, 2, 7, 16, 33):
            w = rng.standard_normal((2, length))
            for chunk_len in range(2, 2 * length + 1, 2):
                s = dp.chunk_count(length, chunk_len)
                x = rng.standard_normal((chunk_len, s, 2))
                lhs = np.sum(dp._chunk(w, chunk_len // 2, s) * x)
                np.testing.assert_allclose(lhs, np.sum(w * dp._fold(x, length)), rtol=1e-12)

    def test_fold_adds_into_a_given_buffer(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((6, 5, 2))
        folded = np.ones((4, 6, 3))
        folded[1:3] = 0.0
        view = dp._fold(x, 11, folded[1:3])
        np.testing.assert_array_equal(view, dp._fold(x, 11))
        assert np.shares_memory(view, folded)
        np.testing.assert_array_equal(folded[[0, 3]], np.ones((2, 6, 3)))


class TestGlobalLayerNorm:
    def test_rejects_mixed_dtypes(self):
        x = Tensor(np.ones((3, 4, 2)), dtype=np.float32)
        one = Tensor(np.ones(2), dtype=np.float32)
        wide = Tensor(np.ones(2), dtype=np.float64)
        with pytest.raises(ShapeError, match="global_layer_norm: mixed dtypes float32 vs float64"):
            dp.global_layer_norm(x, wide, one)
        with pytest.raises(ShapeError, match="global_layer_norm: mixed dtypes float32 vs float64"):
            dp.global_layer_norm(x, one, wide)

    def test_constant_input_returns_bias(self):
        x = Tensor(np.full((3, 4, 2), 5.0))
        z = Tensor(np.ones(2))
        r = Tensor(np.array([1.5, -2.0]))
        out = dp.global_layer_norm(x, z, r)
        np.testing.assert_allclose(out.data[..., 0], np.full((3, 4), 1.5), atol=1e-5)
        np.testing.assert_allclose(out.data[..., 1], np.full((3, 4), -2.0), atol=1e-5)

    def test_standardized_input_passes_through(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 6, 4))
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
        expected = (x - mu) / np.sqrt(var + dp.LN_EPS) * z + r
        out = dp.global_layer_norm(
            Tensor(x, dtype=np.float64), Tensor(z, dtype=np.float64),
            Tensor(r, dtype=np.float64),
        )
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_records_one_tape_node(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((4, 5, 3)), requires_grad=True)
        with GradTape() as tape:
            dp.global_layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert [name for name, _, _ in tape._nodes] == ["global_layer_norm"]

    def test_forward_without_tape_holds_one_input_size(self):
        # the output is the only full-size array, with or without a residual
        x = Tensor(np.random.default_rng(12).standard_normal((64, 64, 64)))
        scale, bias = Tensor(np.ones(64)), Tensor(np.zeros(64))
        for residual in (None, x):
            tracemalloc.start()
            try:
                out = dp.global_layer_norm(x, scale, bias, residual=residual)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out.shape == x.shape
            assert peak < 1.5 * x.data.nbytes

    def test_recorded_op_holds_nothing_input_sized_beyond_its_output(self):
        # the tape keeps the scalars mu and std; backward rebuilds xhat
        x = Tensor(np.random.default_rng(13).standard_normal((64, 64, 64)), requires_grad=True)
        scale, bias = Tensor(np.ones(64)), Tensor(np.zeros(64))
        tracemalloc.start()
        try:
            with GradTape() as tape:
                out = dp.global_layer_norm(x, scale, bias)
                held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape) == 1 and out.shape == x.shape
        assert held < 1.1 * x.data.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_residual_is_the_residual_add_bit_for_bit(self, dtype):
        # outputs and the gradients of all four inputs, against add(res, gLN(x))
        rng = np.random.default_rng(14)

        def leaves():
            r = np.random.default_rng(15)
            return [Tensor(r.standard_normal(shape), dtype=dtype, requires_grad=True)
                    for shape in ((5, 6, 4), (4,), (4,), (5, 6, 4))]

        weights = Tensor(rng.standard_normal((5, 6, 4)), dtype=dtype)
        results = []
        for fused in (True, False):
            x, scale, bias, res = leaves()
            with GradTape() as tape:
                if fused:
                    out = dp.global_layer_norm(x, scale, bias, residual=res)
                else:
                    out = add(res, dp.global_layer_norm(x, scale, bias))
                loss = tsum(mul(mul(out, out), weights))
            tape.backward(loss)
            results.append([out.data] + [t.grad for t in (x, scale, bias, res)])
        for got, expected in zip(*results):
            np.testing.assert_array_equal(got, expected)

    def test_rejects_a_residual_of_another_shape(self):
        x = Tensor(np.ones((3, 4, 2)))
        one, zero = Tensor(np.ones(2)), Tensor(np.zeros(2))
        for shape in ((3, 4, 1), (4, 3, 2), (12, 2), (3, 4, 2, 1)):
            with pytest.raises(ShapeError, match="global_layer_norm: residual"):
                dp.global_layer_norm(x, one, zero, residual=Tensor(np.ones(shape)))

    def test_rejects_a_residual_of_another_dtype(self):
        x = Tensor(np.ones((3, 4, 2)), dtype=np.float32)
        one, zero = Tensor(np.ones(2), dtype=np.float32), Tensor(np.zeros(2), dtype=np.float32)
        wide = Tensor(np.ones((3, 4, 2)), dtype=np.float64)
        with pytest.raises(ShapeError, match="global_layer_norm: mixed dtypes float32 vs float64"):
            dp.global_layer_norm(x, one, zero, residual=wide)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_centred_square_sum_is_numpys_sum_bit_for_bit(self, dtype):
        # the helper copies the order of numpy's pairwise sum, so a numpy
        # that sums in another order fails here, not in the norm's outputs
        rng = np.random.default_rng(18)
        block = dp._SUM_BLOCK
        sizes = [*range(1, 201), *(block + d for d in (-8, -1, 0, 1, 8)),
                 2 * block + 1, 3 * block + 7, 5 * block - 3]
        for size in sizes:
            a = (rng.standard_normal(size) * 3.0 + 1.0).astype(dtype)
            mu = a.sum() * dtype(1.0 / size)
            got, expected = dp._centred_square_sum(a, mu), ((a - mu) ** 2).sum()
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), size
        # chunk tensors, and a transposed view, which takes the full-size path
        for shape in ((46, 45, 64), (90, 91, 64)):
            a = rng.standard_normal(shape).astype(dtype)
            for view in (a, a.transpose(1, 0, 2)):
                mu = view.sum() * dtype(1.0 / view.size)
                expected = ((view - mu) ** 2).sum()
                assert dp._centred_square_sum(view, mu).tobytes() == expected.tobytes()

    def test_normalizes_mean_and_variance(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((8, 9, 3)) * 7.0 + 3.0)
        out = dp.global_layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3))).data
        assert abs(out.mean()) < 1e-5
        assert abs(out.var() - 1.0) < 1e-3


def _random_sub_params(rng, feat, hidden, dtype=np.float64):
    return dp.init_sub_params(rng, feat, hidden, dtype=dtype)


def _recorded_ops(pass_fn, x, params):
    with GradTape() as tape:
        pass_fn(Tensor(x, dtype=np.float64, requires_grad=True), params)
    return [name for name, _, _ in tape._nodes]


class TestBlockPasses:
    def test_intra_permutation_equivariance_along_chunks(self):
        rng = np.random.default_rng(12)
        params = _random_sub_params(rng, 3, 2)
        x = rng.standard_normal((4, 5, 3))
        perm = rng.permutation(5)
        out = dp.intra_chunk_pass(Tensor(x, dtype=np.float64), params).data
        out_perm = dp.intra_chunk_pass(
            Tensor(x[:, perm], dtype=np.float64), params
        ).data
        # equal up to float reassociation in the global LN reductions
        np.testing.assert_allclose(out[:, perm], out_perm, rtol=1e-12, atol=1e-12)

    def test_zero_params_reduce_to_bias_residual(self):
        rng = np.random.default_rng(13)
        params = _random_sub_params(rng, 3, 2, dtype=np.float32)
        for name, t in params.tensors():
            t.data = np.zeros_like(t.data)
        params.ln_bias.data = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        x = rng.standard_normal((4, 5, 3)).astype(np.float32)
        out = dp.intra_chunk_pass(Tensor(x), params).data
        np.testing.assert_allclose(out, x + params.ln_bias.data, atol=1e-6)

    def test_single_chunk_matches_direct_composition(self):
        rng = np.random.default_rng(14)
        params = _random_sub_params(rng, 3, 2)
        x = Tensor(rng.standard_normal((6, 1, 3)), dtype=np.float64)  # (K, S=1, N)
        out = dp.intra_chunk_pass(x, params).data

        proj = nt.bilstm_batched(
            x, params.lstm_fwd, params.lstm_bwd, params.fc_weight, params.fc_bias, 0
        )  # (K, 1, N)
        normed = dp.global_layer_norm(proj, params.ln_scale, params.ln_bias)
        expected = add(x, normed).data
        np.testing.assert_array_equal(out, expected)

    def test_inter_equals_intra_on_swapped_axes(self):
        rng = np.random.default_rng(15)
        params = _random_sub_params(rng, 3, 2)
        x = rng.standard_normal((4, 5, 3))
        direct = dp.inter_chunk_pass(Tensor(x, dtype=np.float64), params).data
        swapped = dp.intra_chunk_pass(
            Tensor(x.transpose(1, 0, 2).copy(), dtype=np.float64), params
        ).data.transpose(1, 0, 2)
        np.testing.assert_allclose(direct, swapped, rtol=1e-12, atol=1e-12)

    def test_inter_degenerate_single_chunk(self):
        rng = np.random.default_rng(16)
        params = _random_sub_params(rng, 2, 3)
        x = rng.standard_normal((5, 1, 2))
        out = dp.inter_chunk_pass(Tensor(x, dtype=np.float64), params)
        assert out.shape == (5, 1, 2)

    def test_inter_two_chunks_matches_unrolled_oracle(self):
        rng = np.random.default_rng(17)
        params = _random_sub_params(rng, 2, 2)
        x = rng.standard_normal((3, 2, 2))
        out = dp.inter_chunk_pass(Tensor(x, dtype=np.float64), params).data

        # unroll: for each of the K=3 positions, run the BLSTM over the S=2 steps
        proj = np.zeros_like(x)
        for k in range(3):
            seq = Tensor(x[k].reshape(2, 1, 2), dtype=np.float64)  # (S, 1, N)
            pr = nt.bilstm_batched(
                seq, params.lstm_fwd, params.lstm_bwd, params.fc_weight, params.fc_bias, 0
            )  # (S, 1, N)
            proj[k] = pr.data[:, 0, :]
        mu = proj.mean()
        var = ((proj - mu) ** 2).mean()
        ln = (proj - mu) / np.sqrt(var + dp.LN_EPS)
        ln = ln * params.ln_scale.data + params.ln_bias.data
        np.testing.assert_allclose(out, x + ln, rtol=1e-8, atol=1e-10)

    def test_gln_output_is_freed_once_the_residual_add_consumed_it(self):
        # no backward reads the normalised output, so under a live tape its
        # array lives only as long as its tensor
        rng = np.random.default_rng(23)
        params = _random_sub_params(rng, 3, 2)
        x = Tensor(rng.standard_normal((4, 5, 3)), dtype=np.float64, requires_grad=True)
        gc.disable()
        try:
            with GradTape() as tape:
                proj = nt.bilstm_batched(
                    x, params.lstm_fwd, params.lstm_bwd, params.fc_weight, params.fc_bias, 0
                )
                normed = dp.global_layer_norm(proj, params.ln_scale, params.ln_bias)
                out = add(x, normed)
                freed = weakref.ref(normed.data)
                del normed
                assert freed() is None
                loss = tsum(out)
            tape.backward(loss)
        finally:
            gc.enable()
        assert x.grad is not None
        assert all(t.grad is not None for _, t in params.tensors())

    @pytest.mark.parametrize("axis", [0, 1])
    def test_untaped_sub_pass_holds_one_input_size_beyond_its_input(self, axis):
        # the norm writes its output over the BLSTM output, so the sub-pass
        # adds that one array, the BLSTM's per-step buffers and the variance
        # scratch; and nothing keeps the output alive once its tensor is gone
        rng = np.random.default_rng(24)
        params = _random_sub_params(rng, 64, 16, dtype=np.float32)
        x = Tensor(rng.standard_normal((128, 64, 64)), dtype=np.float32)
        gc.disable()
        try:
            tracemalloc.start()
            try:
                out = dp._sub_pass(x, params, axis)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            freed = weakref.ref(out.data)
            del out
            assert freed() is None
        finally:
            gc.enable()
        assert peak < 1.25 * x.data.nbytes

    def test_intra_records_no_transpose(self):
        rng = np.random.default_rng(21)
        params = _random_sub_params(rng, 3, 2)
        ops = _recorded_ops(dp.intra_chunk_pass, rng.standard_normal((4, 5, 3)), params)
        assert ops == ["bilstm", "global_layer_norm"]

    def test_inter_records_no_transpose(self):
        # the BLSTM op reads the chunk tensor along its axis 1 as it is
        rng = np.random.default_rng(22)
        params = _random_sub_params(rng, 3, 2)
        ops = _recorded_ops(dp.inter_chunk_pass, rng.standard_normal((4, 5, 3)), params)
        assert ops == ["bilstm", "global_layer_norm"]


class TestDprnnStack:
    def test_single_block_is_intra_then_inter(self):
        rng = np.random.default_rng(18)
        block = dp.init_block_params(rng, 3, 2, dtype=np.float64)
        x = Tensor(rng.standard_normal((4, 5, 3)), dtype=np.float64)
        out = dp.dprnn_stack(x, [block]).data
        expected = dp.inter_chunk_pass(dp.intra_chunk_pass(x, block.intra), block.inter).data
        np.testing.assert_array_equal(out, expected)

    def test_shape_preserved_across_stack(self):
        rng = np.random.default_rng(19)
        blocks = [dp.init_block_params(rng, 4, 3) for _ in range(3)]
        chunks = dp.segment(Tensor(rng.standard_normal((4, 20)).astype(np.float32)), 6)
        out = dp.dprnn_stack(chunks, blocks)
        assert out.shape == chunks.shape

    def test_two_blocks_match_manual_composition(self):
        rng = np.random.default_rng(20)
        blocks = [dp.init_block_params(rng, 2, 2, dtype=np.float64) for _ in range(2)]
        chunks = dp.segment(Tensor(rng.standard_normal((2, 9)), dtype=np.float64), 4)
        out = dp.dprnn_stack(chunks, blocks).data
        x = chunks
        for b in blocks:
            x = dp.inter_chunk_pass(dp.intra_chunk_pass(x, b.intra), b.inter)
        np.testing.assert_array_equal(out, x.data)

    def test_empty_stack_rejected(self):
        chunks = dp.segment(Tensor(np.ones((1, 8))), 4)
        with pytest.raises(ShapeError):
            dp.dprnn_stack(chunks, [])
