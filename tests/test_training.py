import itertools
import math
from collections import Counter

import numpy as np
import pytest

from mpclr import (
    Dataset,
    ExactTruncationOracle,
    FixedPointParams,
    RandomnessUnderflowError,
    TrainingConfig,
    count_multiplications,
    count_traffic,
    predict_and_score,
    train_plain_fixed,
    train_plain_float,
    train_secure,
    training_randomness_requests,
)
from mpclr.fixedpoint import decode_array, encode_array
from mpclr.randomness import (
    TAG_BIT,
    TAG_CONVERSION,
    TAG_MATMUL,
    TAG_PREFIXNET,
    TAG_SCALAR,
    TrustedDealer,
    deserialize_stream,
    serialize_stream,
)
from mpclr.training import POOL_SLACK, iteration_steps
from mpclr.transport import FRAME_HEADER
from mpclr.sharing import split_array

from helpers import protocol_pair, separable_toy

P64 = FixedPointParams()


def secure_run(feats, labels, cfg, trunc_oracle=None, split_seed=7):
    ds = Dataset.from_features(feats, labels)
    x_enc = encode_array(ds.X, cfg.params)
    t_enc = encode_array(ds.t.astype(np.float64), cfg.params)
    xa, xb = split_array(x_enc, cfg.params, np.random.default_rng(split_seed))
    ta, tb = split_array(t_enc, cfg.params, np.random.default_rng(split_seed + 1))
    dealer = TrustedDealer(cfg.seed, cfg.params)
    sources = dealer.generate(training_randomness_requests(ds.n_samples, ds.n_weights - 1, cfg))
    wa, wb, sa, sb = protocol_pair(
        cfg.params,
        lambda s: train_secure(s, xa.values, ta.values, cfg),
        lambda s: train_secure(s, xb.values, tb.values, cfg),
        seed=cfg.seed,
        sources=sources,
        trunc_oracle=trunc_oracle,
    )
    return decode_array(wa + wb, cfg.params), (wa, wb), (sa, sb), ds


class TestDataset:
    def test_dummy_column_enforced(self):
        with pytest.raises(ValueError, match="dummy"):
            Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int))

    def test_labels_validated(self):
        X = np.ones((2, 2))
        with pytest.raises(ValueError, match="label"):
            Dataset(X, np.array([0, 2]))

    def test_from_features(self):
        ds = Dataset.from_features([[2.0], [3.0]], [0, 1])
        assert ds.X.shape == (2, 2)
        assert np.all(ds.X[:, 0] == 1.0)


class TestPlainFloat:
    def test_hand_traced_single_example(self):
        # one example x=(1,1), t=1, eta=1: o = rho(0) = 1/2, w becomes (1/2, 1/2)
        cfg = TrainingConfig(eta=1.0, n_iter=1, params=P64, seed=0)
        w = train_plain_float(np.array([[1.0, 1.0]]), np.array([1.0]), cfg)
        assert w.tolist() == [0.5, 0.5]

    def test_zero_gradient_keeps_weights(self):
        # labels tuned so t_d = o_d at w = 0: rho(0) = 1/2 has no integer label,
        # so use two symmetric examples whose gradient contributions cancel
        X = np.array([[1.0, 1.0], [1.0, -1.0]])
        t = np.array([0.5, 0.5])
        cfg = TrainingConfig(eta=0.7, n_iter=3, params=P64, seed=0)
        w = train_plain_float(X, t, cfg)
        assert np.allclose(w, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(eta=0.0, n_iter=1, params=P64)
        with pytest.raises(ValueError):
            TrainingConfig(eta=0.1, n_iter=-1, params=P64)


class TestPlainFixed:
    def test_one_iteration_matches_quantized_float(self):
        X = np.array([[1.0, 1.0]])
        t = np.array([1.0])
        cfg = TrainingConfig(eta=1.0, n_iter=1, params=P64, seed=0)
        w = train_plain_fixed(X, t, cfg)
        # eta=1 encodes exactly; the trace stays on the grid
        assert w.tolist() == [0.5, 0.5]

    def test_sub_ulp_learning_rate_freezes_weights(self):
        # encode(eta) = 0 when eta is below one ulp: the update is exactly zero
        feats, labels = separable_toy(8, 2)
        cfg = TrainingConfig(eta=2.0 ** -14, n_iter=4, params=P64, seed=0)
        ds = Dataset.from_features(feats, labels)
        w = train_plain_fixed(ds.X, ds.t, cfg)
        assert np.all(w == 0.0)

    def test_close_to_float_on_toy_data(self):
        feats, labels = separable_toy(20, 4)
        ds = Dataset.from_features(feats, labels)
        cfg = TrainingConfig(eta=0.05, n_iter=50, params=P64, seed=0)
        wf = train_plain_float(ds.X, ds.t, cfg)
        wq = train_plain_fixed(ds.X, ds.t, cfg)
        bound = 2.0 ** (-P64.frac_bits + 1) * ds.n_weights * cfg.n_iter
        assert np.max(np.abs(wf - wq)) <= bound

    def test_integer_field_overflow_warns(self):
        X = np.array([[1.0, 100.0], [1.0, -100.0]])
        t = np.array([1.0, 0.0])
        cfg = TrainingConfig(eta=30.0, n_iter=12, params=P64, seed=0)
        with pytest.warns(RuntimeWarning, match="integer field"):
            train_plain_fixed(X, t, cfg)


class TestSecureTraining:
    CFG = TrainingConfig(eta=0.05, n_iter=50, params=P64, seed=42)

    def test_deterministic_replay(self):
        feats, labels = separable_toy()
        w1, shares1, _, _ = secure_run(feats, labels, self.CFG)
        w2, shares2, _, _ = secure_run(feats, labels, self.CFG)
        assert np.array_equal(shares1[0], shares2[0])
        assert np.array_equal(shares1[1], shares2[1])
        assert np.array_equal(w1, w2)

    def test_a_run_depends_only_on_the_dealt_streams_not_the_session_seed(self):
        # the parties draw no randomness of their own: with the dealt streams
        # fixed, the session seed changes no frame and no share
        feats, labels = separable_toy(9, 3, seed=8)
        cfg = TrainingConfig(eta=0.05, n_iter=2, params=P64, seed=21)
        ds = Dataset.from_features(feats, labels)
        xa, xb = split_array(encode_array(ds.X, P64), P64, np.random.default_rng(1))
        ta, tb = split_array(encode_array(ds.t.astype(np.float64), P64), P64,
                             np.random.default_rng(2))
        requests = training_randomness_requests(ds.n_samples, ds.n_weights - 1, cfg)
        runs = []
        for seed in (3, 4):
            wa, wb, sa, sb = protocol_pair(
                P64,
                lambda s: train_secure(s, xa.values, ta.values, cfg),
                lambda s: train_secure(s, xb.values, tb.values, cfg),
                seed=seed,
                sources=TrustedDealer(cfg.seed, P64).generate(requests),
            )
            runs.append((sa.transcript.sent_digest(), sb.transcript.sent_digest(),
                         wa.tolist(), wb.tolist()))
        assert runs[0] == runs[1]

    def test_on_demand_streams_replay_from_their_crn1_bytes(self):
        # an on-demand stream is the list of records its takes dealt, so
        # reloading its CRN1 bytes replays the run frame for frame
        feats, labels = separable_toy(77, 4, seed=5)
        cfg = TrainingConfig(eta=0.05, n_iter=3, params=P64, seed=13)
        ds = Dataset.from_features(feats, labels)
        assert ds.X.shape == (77, 5)
        xa, xb = split_array(encode_array(ds.X, P64), P64, np.random.default_rng(1))
        t_enc = encode_array(ds.t.astype(np.float64), P64)
        ta, tb = split_array(t_enc, P64, np.random.default_rng(2))

        def run(sources):
            wa, wb, sa, sb = protocol_pair(
                P64,
                lambda s: train_secure(s, xa.values, ta.values, cfg),
                lambda s: train_secure(s, xb.values, tb.values, cfg),
                seed=cfg.seed,
                sources=sources,
            )
            return (wa, wb), [s.transcript.sent_digest() for s in (sa, sb)], (sa, sb)

        shares, digests, sessions = run(None)
        reloaded = [deserialize_stream(serialize_stream(s.randomness), P64) for s in sessions]
        replay_shares, replay_digests, _ = run(reloaded)
        assert all(np.array_equal(a, b) for a, b in zip(shares, replay_shares, strict=True))
        assert replay_digests == digests

    def test_exact_truncation_hook_matches_plain_fixed_bitwise(self):
        feats, labels = separable_toy()
        ds = Dataset.from_features(feats, labels)
        w_secure, *_ = secure_run(feats, labels, self.CFG,
                                  trunc_oracle=ExactTruncationOracle(seed=9))
        w_fixed = train_plain_fixed(ds.X, ds.t, self.CFG)
        assert np.array_equal(w_secure, w_fixed)

    def test_local_truncation_stays_inside_noise_envelope(self):
        feats, labels = separable_toy()
        ds = Dataset.from_features(feats, labels)
        w_secure, *_ = secure_run(feats, labels, self.CFG)
        w_fixed = train_plain_fixed(ds.X, ds.t, self.CFG)
        # per iteration and weight: one ulp for each of the two local weight
        # truncations plus one ulp per example forwarded through the
        # eta-scaled gradient of the truncated sums
        per_iter = 2 + self.CFG.eta * ds.n_samples * float(np.abs(ds.X).max())
        envelope = self.CFG.params.ulp * self.CFG.n_iter * per_iter
        measured = float(np.max(np.abs(w_secure - w_fixed)))
        assert measured <= envelope, (measured, envelope)

    def test_labels_match_float_training(self):
        feats, labels = separable_toy()
        ds = Dataset.from_features(feats, labels)
        w_secure, *_ = secure_run(feats, labels, self.CFG)
        w_float = train_plain_float(ds.X, ds.t, self.CFG)
        pred_secure = (ds.X @ w_secure >= 0).astype(int)
        pred_float = (ds.X @ w_float >= 0).astype(int)
        assert np.array_equal(pred_secure, pred_float)
        assert predict_and_score(w_secure, ds.X, ds.t) == 1.0

    def test_zero_iterations(self):
        feats, labels = separable_toy(6, 2)
        cfg = TrainingConfig(eta=0.05, n_iter=0, params=P64, seed=1)
        w, *_ = secure_run(feats, labels, cfg)
        assert np.all(w == 0.0)

    def test_underprovisioned_randomness_is_fatal(self):
        feats, labels = separable_toy(6, 2)
        cfg = TrainingConfig(eta=0.05, n_iter=4, params=P64, seed=1)
        short = TrainingConfig(eta=0.05, n_iter=2, params=P64, seed=1)
        ds = Dataset.from_features(feats, labels)
        x_enc = encode_array(ds.X, cfg.params)
        t_enc = encode_array(ds.t.astype(np.float64), cfg.params)
        xa, xb = split_array(x_enc, cfg.params, np.random.default_rng(3))
        ta, tb = split_array(t_enc, cfg.params, np.random.default_rng(4))
        dealer = TrustedDealer(cfg.seed, cfg.params)
        sources = dealer.generate(
            training_randomness_requests(ds.n_samples, ds.n_weights - 1, short)
        )
        with pytest.raises(RandomnessUnderflowError,
                           match=r"^matmul randomness exhausted: requested 1, have 0$"):
            protocol_pair(
                cfg.params,
                lambda s: train_secure(s, xa.values, ta.values, cfg),
                lambda s: train_secure(s, xb.values, tb.values, cfg),
                sources=sources,
            )

    @pytest.mark.parametrize("params", [
        P64,
        FixedPointParams(frac_bits=8, int_bits=6, ring_bits=32),
        FixedPointParams(frac_bits=8, int_bits=1, ring_bits=64),  # one OR-tree level
    ])
    def test_plan_provisions_exactly_what_training_takes(self, params):
        # on-demand sources deal one record per take, so their records are
        # exactly what a run takes, with no slack that could hide a shortfall
        feats, labels = separable_toy(9, 3, seed=4)
        cfg = TrainingConfig(eta=0.05, n_iter=2, params=params, seed=5)
        ds = Dataset.from_features(0.25 * feats, labels)
        xa, xb = split_array(encode_array(ds.X, params), params, np.random.default_rng(1))
        t_enc = encode_array(ds.t.astype(np.float64), params)
        ta, tb = split_array(t_enc, params, np.random.default_rng(2))
        _, _, sa, sb = protocol_pair(
            params,
            lambda s: train_secure(s, xa.values, ta.values, cfg),
            lambda s: train_secure(s, xb.values, tb.values, cfg),
            seed=cfg.seed,
        )
        plan = training_randomness_requests(ds.n_samples, ds.n_weights - 1, cfg)
        for sess in (sa, sb):
            taken = [(tag, meta) for tag, meta, _ in sess.randomness.records]
            blocks = (TAG_MATMUL, TAG_PREFIXNET)
            assert [r for r in taken if r[0] in blocks] == [r for r in plan if r[0] in blocks]
            for tag in (TAG_SCALAR, TAG_BIT, TAG_CONVERSION):
                used = sum(meta for rtag, meta in taken if rtag == tag)
                *body, tail = [meta for rtag, meta in plan if rtag == tag] or [0]
                assert (sum(body), tail) == (used, math.ceil(used * POOL_SLACK)), tag

    def test_dimension_mismatch_aborts(self):
        from mpclr.errors import ProtocolError

        cfg = TrainingConfig(eta=0.05, n_iter=1, params=P64, seed=1)
        with pytest.raises(ProtocolError):
            protocol_pair(
                P64,
                lambda s: train_secure(s, np.zeros((3, 2), dtype=P64.dtype),
                                       np.zeros(4, dtype=P64.dtype), cfg),
                lambda s: train_secure(s, np.zeros((3, 2), dtype=P64.dtype),
                                       np.zeros(4, dtype=P64.dtype), cfg),
            )


class TestScoring:
    def test_perfect_weights(self):
        feats, labels = separable_toy()
        ds = Dataset.from_features(feats, labels)
        w = np.zeros(ds.n_weights)
        w[1], w[2] = 10.0, 5.0  # the generating direction, scaled up
        assert predict_and_score(w, ds.X, ds.t) == 1.0

    def test_zero_weights_predict_all_positive(self):
        feats, labels = separable_toy()
        ds = Dataset.from_features(feats, labels)
        assert predict_and_score(np.zeros(ds.n_weights), ds.X, ds.t) == labels.mean()

    def test_random_labels_score_near_half(self):
        rng = np.random.default_rng(55)
        X = np.hstack([np.ones((4000, 1)), rng.normal(0, 1, (4000, 3))])
        t = rng.integers(0, 2, 4000)
        w = rng.normal(0, 1, 4)
        score = predict_and_score(w, X, t)
        assert abs(score - 0.5) < 0.05


class TestCostAccounting:
    def test_zero_samples(self):
        counts = count_multiplications(0, 10, 5, P64)
        assert counts["ring"] == counts["bit"] == 0

    def test_matches_transcript_on_toy_shapes(self):
        for n, m, iters in [(5, 3, 2), (8, 1, 3), (3, 6, 1)]:
            feats, labels = separable_toy(n, m, seed=n * 10 + m)
            cfg = TrainingConfig(eta=0.05, n_iter=iters, params=P64, seed=9)
            _, _, (sa, sb), _ = secure_run(feats, labels, cfg)
            counts = count_multiplications(n, m, iters, P64)
            assert sa.transcript.ring_mults == counts["ring"]
            assert sa.transcript.bit_mults == counts["bit"]
            assert sb.transcript.ring_mults == counts["ring"]

    def test_genome_scale_order_of_magnitude(self):
        counts = count_multiplications(225, 12_634, 223, P64)
        assert 1e9 <= counts["total"] <= 1e10


class TestTrafficModel:
    def test_steps_match_every_phase_of_a_run(self, monkeypatch):
        # a step's phase names the function that runs its round, wrapped
        # where its caller looks it up; the six phases cover every round
        import mpclr.activation
        import mpclr.training

        calls = []

        def traced(fn, phase):
            def run(sess, *args, **kwargs):
                rounds, sent = sess.transcript.rounds, sess.transcript.bytes_sent
                out = fn(sess, *args, **kwargs)
                if sess.is_alice:
                    calls.append((phase, sess.transcript.rounds - rounds,
                                  sess.transcript.bytes_sent - sent))
                return out
            return run

        for module, name, phase in [
            (mpclr.training, "matmul", "engine.matmul"),
            (mpclr.training, "batch_mul", "engine.gradient"),
            (mpclr.activation, "decompose_batch_slices", "bitops.decompose"),
            (mpclr.activation, "or_tree_slices", "bitops.or_tree"),
            (mpclr.activation, "convert_bits_to_ring", "activation.convert"),
            (mpclr.activation, "batch_mul", "activation.mul"),
        ]:
            monkeypatch.setattr(module, name, traced(getattr(module, name), phase))
        n, m, iters = 70, 3, 2
        feats, labels = separable_toy(n, m, seed=3)
        _, _, (sa, _), _ = secure_run(feats, labels, TrainingConfig(0.05, iters, P64, seed=6))
        steps = iteration_steps(n, m + 1, P64)
        rounds, sent = Counter(), Counter()
        for step in steps:
            rounds[step.phase] += iters
            sent[step.phase] += iters * (FRAME_HEADER.size + 8 * step.words)
        sent["engine.matmul"] += 8 * n * (m + 1)  # X - U rides the first product
        for phase, call_rounds, call_sent in calls:
            rounds[phase] -= call_rounds
            sent[phase] -= call_sent
        assert set(rounds.values()) == set(sent.values()) == {0}
        order = [phase for phase, _ in itertools.groupby(step.phase for step in steps)]
        assert [phase for phase, _ in itertools.groupby(c[0] for c in calls)] == order * iters
        assert sum(call[1] for call in calls) == sa.transcript.rounds

    def test_matches_both_transcripts_on_criterion_9_shapes(self):
        # 64 and 65 samples put the opened bit rows on each side of a word
        # boundary.  An iteration is the forward product, the
        # decomposition's setup and network rounds, the conversion and the
        # gradient; 16/16 is the widest field a 64-bit ring allows, and at
        # 31/1 the zero test's final AND takes a round after the network's.
        p16 = FixedPointParams(frac_bits=4, int_bits=3, ring_bits=16)
        wide = FixedPointParams(frac_bits=16, int_bits=16, ring_bits=64)
        late = FixedPointParams(frac_bits=31, int_bits=1, ring_bits=64)
        for n, m, iters, params, rounds in [
                (5, 3, 2, P64, 9), (8, 1, 3, P64, 9), (4, 6, 5, P64, 9), (64, 2, 1, P64, 9),
                (65, 2, 1, P64, 9), (6, 2, 2, p16, 7), (6, 2, 2, wide, 9), (6, 2, 2, late, 10)]:
            feats, labels = separable_toy(n, m, seed=n + m)
            feats = 0.25 * feats  # inside the one integer bit of 31/1
            cfg = TrainingConfig(eta=0.05, n_iter=iters, params=params, seed=17)
            _, _, (sa, sb), _ = secure_run(feats, labels, cfg)
            traffic = count_traffic(n, m, iters, params)
            for tr in (sa.transcript, sb.transcript):
                assert (tr.rounds, tr.bytes_sent) == (traffic["rounds"], traffic["bytes"])
            assert traffic["rounds"] == rounds * iters
            assert traffic["open_x_bytes"] == 8 * n * (m + 1)

    def test_iterations_after_the_first_send_only_the_linear_term(self):
        feats, labels = separable_toy(6, 3)
        sent = []
        for iters in (1, 4):
            cfg = TrainingConfig(eta=0.05, n_iter=iters, params=P64, seed=2)
            _, _, (sa, _), _ = secure_run(feats, labels, cfg)
            sent.append(sa.transcript.bytes_sent)
        traffic = count_traffic(6, 3, 4, P64)
        assert sent[1] - sent[0] == 3 * traffic["iter_bytes"]
        assert sent[0] == traffic["iter_bytes"] + traffic["open_x_bytes"]

    def test_genome_scale(self):
        traffic = count_traffic(225, 12_634, 223, P64)
        assert traffic["iter_bytes"] < 1e6
        assert traffic["open_x_bytes"] == 8 * 225 * 12_635
        assert count_traffic(225, 12_634, 0, P64)["bytes"] == 0
