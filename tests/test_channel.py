import numpy as np
import pytest

from secrecap import (
    BarrierObjective,
    ChannelPair,
    Degradedness,
    SaddleState,
    classify_degraded,
    initial_point,
)
from secrecap.matcalc import noise_matrix, vec, vech

from conftest import (
    DEMO_H1,
    DEMO_H2,
    random_channel,
    random_feasible_k21,
)


class TestChannelPair:
    def test_gram_matrices(self, demo_channel):
        np.testing.assert_allclose(demo_channel.W1, DEMO_H1.T @ DEMO_H1)
        np.testing.assert_allclose(demo_channel.W2, DEMO_H2.T @ DEMO_H2)
        assert demo_channel.m == 2 and demo_channel.n1 == 2 and demo_channel.n2 == 2

    def test_stack_consistency(self, demo_channel):
        lhs = demo_channel.Hstack.T @ demo_channel.Hstack
        rhs = demo_channel.W1 + demo_channel.W2
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column mismatch"):
            ChannelPair(np.ones((2, 2)), np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ChannelPair(np.array([[np.nan, 0.0]]), np.array([[1.0, 2.0]]))

    def test_vector_inputs_promoted(self):
        ch = ChannelPair(np.array([1.0, 0.3]), np.array([0.4, -0.2]))
        assert ch.H1.shape == (1, 2)


class TestClassify:
    def test_demo_channel_indefinite(self, demo_channel):
        kind, eigs = classify_degraded(demo_channel)
        assert kind is Degradedness.INDEFINITE
        np.testing.assert_allclose(sorted(eigs), [-3.293, 0.395], atol=5e-3)

    def test_equal_channels_degraded_boundary(self):
        ch = ChannelPair(DEMO_H1, DEMO_H1)
        kind, eigs = classify_degraded(ch)
        assert kind is Degradedness.DEGRADED
        np.testing.assert_allclose(eigs, 0.0, atol=1e-14)

    def test_no_eavesdropper(self):
        ch = ChannelPair(DEMO_H1, np.zeros((1, 2)))
        kind, eigs = classify_degraded(ch)
        assert kind is Degradedness.DEGRADED
        np.testing.assert_allclose(sorted(eigs), sorted(np.linalg.eigvalsh(ch.W1)))

    def test_reversely_degraded(self):
        ch = ChannelPair(DEMO_H1, 2.0 * DEMO_H1)
        kind, _ = classify_degraded(ch)
        assert kind is Degradedness.REVERSELY_DEGRADED

    def test_orthogonal_basis_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            ch = random_channel(rng, 3, 2, 2)
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            rotated = ChannelPair(ch.H1 @ q, ch.H2 @ q)
            _, e1 = classify_degraded(ch)
            _, e2 = classify_degraded(rotated)
            np.testing.assert_allclose(np.sort(e1), np.sort(e2), atol=1e-10)


class TestNoiseCovariance:
    """The noise covariance K = [[I, K21'], [K21, I]] of a cross block
    (``matcalc.noise_matrix``)."""

    def test_assembled_structure(self):
        k21 = np.array([[0.2, 0.1], [0.0, -0.3]])
        k = noise_matrix(k21)
        np.testing.assert_array_equal(np.diag(k), np.ones(4))
        np.testing.assert_array_equal(k[2:, :2], k21)
        np.testing.assert_array_equal(k, k.T)

    def test_K_is_the_barrier_objective_K(self):
        # one function builds K for the rates and the objective
        rng = np.random.default_rng(23)
        ch = random_channel(rng, 3, 2, 3)
        k21 = random_feasible_k21(rng, ch.n1, ch.n2)
        obj = BarrierObjective(ch, 100.0, 3.0)
        state = SaddleState(x=vech(np.eye(3)), y=vec(k21))
        np.testing.assert_array_equal(noise_matrix(k21), obj.factors(state).K)


class TestInitialPoint:
    def test_uniform_power_split(self, demo_channel):
        st = initial_point(demo_channel, 10.0)
        from secrecap.matcalc import unvech

        np.testing.assert_array_equal(unvech(st.x), 5.0 * np.eye(2))

    def test_exact_trace(self, demo_channel):
        st = initial_point(demo_channel, 7.3)
        from secrecap.matcalc import unvech

        assert np.trace(unvech(st.x)) == 7.3

    def test_noise_starts_identity(self, demo_channel):
        st = initial_point(demo_channel, 1.0)
        assert np.all(st.y == 0.0)
        assert st.lam == 0.0

    def test_rejects_nonpositive_power(self, demo_channel):
        with pytest.raises(ValueError):
            initial_point(demo_channel, 0.0)
