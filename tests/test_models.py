import threading

import numpy as np
import pytest

from covloc import (
    ContractViolationError,
    FhnParams,
    LinearParams,
    PresetNotFoundError,
    REGIMES,
    fhn_model,
    linear_model,
    regime,
    stiffest_rate,
)
from oracles import (
    dense_drift_matrix,
    fhn_reference_drift,
    linear_reference_drift,
    strided_fhn_drift,
)


def _full_drift(model, state):
    """Drift, mean field included, over a whole (..., N, q) lattice state."""
    out = np.full_like(state, np.nan)  # the drift must overwrite every entry
    model.drift(state, out)
    return out


def _assert_equal_up_to_rounding(actual, expected):
    """atol 1e-12, widened to 1e-15 of the largest entry where that is larger:
    above 1e3, 1e-12 is only a few units in the last place, and the in-place
    drifts sum the same terms in another order."""
    tol = max(1e-12, 1e-15 * float(np.abs(expected).max()))
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=tol)


class TestInPlaceDriftMatchesNeighbourOracle:
    """The whole-lattice in-place drifts against the rolled-neighbour form."""

    @pytest.mark.parametrize("n", [3, 128])
    @pytest.mark.parametrize("name", sorted(REGIMES))
    def test_fhn_presets(self, name, n):
        params = REGIMES[name].params
        rng = np.random.default_rng(n)
        state = rng.standard_normal((5, n, 2))
        _assert_equal_up_to_rounding(
            _full_drift(fhn_model(params, n), state), fhn_reference_drift(params, state)
        )

    @pytest.mark.parametrize("n", [3, 128])
    @pytest.mark.parametrize(
        "d_u, w", [(0.0, 0.0), (2.0, 0.0), (0.0, 5.0), (20.0, 5.0), (0.5, 0.3)]
    )
    def test_linear_models(self, d_u, w, n):
        params = LinearParams(a=1.3, d_u=d_u, w=w)
        rng = np.random.default_rng(n)
        state = rng.standard_normal((5, n, 1))
        _assert_equal_up_to_rounding(
            _full_drift(linear_model(params, n), state), linear_reference_drift(params, state)
        )

    def test_single_lattice_and_ensemble_agree(self):
        model = fhn_model(regime("regime-c").params, 16)
        state = np.random.default_rng(3).standard_normal((4, 16, 2))
        batch = _full_drift(model, state)
        for k in range(4):
            np.testing.assert_array_equal(_full_drift(model, state[k]), batch[k])


def _fhn_state(rng, shape):
    """A (..., N, 2) state with |u| up to 3, past the cubic's turning points."""
    state = rng.uniform(-3.0, 3.0, shape)
    state[..., 1] *= 0.5
    return state


def _strided(params, state):
    out = np.full_like(state, np.nan)
    strided_fhn_drift(params, state, out)
    return out


class TestFhnDriftMatchesStridedForm:
    """The contiguous-u FHN drift gives the strided in-place form's bits."""

    @pytest.mark.parametrize("shape", [(5,), ()], ids=["batch", "single"])
    @pytest.mark.parametrize("n", [3, 4, 7, 128])
    @pytest.mark.parametrize("name", sorted(REGIMES))
    def test_presets(self, name, n, shape):
        params = REGIMES[name].params
        state = _fhn_state(np.random.default_rng(n + len(shape)), shape + (n, 2))
        before = state.copy()
        got = _full_drift(fhn_model(params, n), state)
        np.testing.assert_array_equal(state, before)  # the state is only read
        assert got.tobytes() == _strided(params, state).tobytes()

    def test_two_threads_share_one_model(self):
        params = regime("regime-c").params
        model = fhn_model(params, 64)
        rng = np.random.default_rng(5)
        states = [_fhn_state(rng, (32, 64, 2)) for _ in range(2)]
        expected = [_strided(params, state) for state in states]
        start = threading.Barrier(2, timeout=60)
        results = [[], []]

        def call(i):
            start.wait()
            for _ in range(50):
                results[i].append(_full_drift(model, states[i]))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for got, want in zip(results, expected):
            assert len(got) == 50
            assert all(out.tobytes() == want.tobytes() for out in got)


class TestLinearModel:
    def test_constant_field_reduces_to_damping(self):
        # Laplacian and mean-field terms vanish on constants
        for d_u, w in [(0.0, 0.0), (3.0, 0.0), (0.0, 2.0), (5.0, 1.0)]:
            model = linear_model(LinearParams(a=1.0, d_u=d_u, w=w), 8)
            state = np.full((8, 1), 4.2)
            np.testing.assert_allclose(_full_drift(model, state), -1.0 * 4.2, atol=1e-12)

    def test_three_cycle_hand_evaluation(self):
        model = linear_model(LinearParams(a=1.0, d_u=2.0, w=0.0), 3)
        state = np.array([[1.0], [0.0], [0.0]])
        np.testing.assert_allclose(
            _full_drift(model, state).ravel(), [-5.0, 2.0, 2.0], atol=1e-14
        )

    def test_drift_equals_system_matrix_action(self):
        rng = np.random.default_rng(11)
        for n in (8, 64):
            params = LinearParams(a=1.0, d_u=20.0, w=5.0)
            model = linear_model(params, n)
            a = dense_drift_matrix(params, n)
            for _ in range(100):
                u = rng.standard_normal((n, 1))
                np.testing.assert_allclose(
                    _full_drift(model, u).ravel(), a @ u.ravel(), atol=1e-12
                )

    def test_mean_field_split_reproduces_centered_coupling(self):
        # local -w*u plus averaged w*u equals w*(ubar - u) identically
        params = LinearParams(a=1.0, d_u=0.0, w=3.0)
        model = linear_model(params, 16)
        rng = np.random.default_rng(12)
        u = rng.standard_normal((16, 1))
        expected = -params.a * u + params.w * (u.mean() - u)
        np.testing.assert_allclose(_full_drift(model, u), expected, atol=1e-13)

    def test_invariants(self):
        with pytest.raises(Exception):
            LinearParams(a=0.0)
        with pytest.raises(Exception):
            LinearParams(a=1.0, sigma_u=0.0)


class TestFhnModel:
    def test_deterministic_fixed_point(self):
        params = FhnParams(d_u=0.0, w=0.0)
        model = fhn_model(params, 8)
        u, v = params.rest_point()
        assert u == -1.05
        assert v == pytest.approx(-0.664125, abs=1e-15)
        state = np.tile([u, v], (8, 1))
        np.testing.assert_allclose(_full_drift(model, state), 0.0, atol=1e-12)

    def test_coupling_terms_vanish_on_uniform_states(self):
        model = fhn_model(FhnParams(d_u=2.0, w=0.4), 8)
        reference = fhn_model(FhnParams(d_u=0.0, w=0.0), 8)
        state = np.tile([0.3, -0.7], (8, 1))
        np.testing.assert_allclose(
            _full_drift(model, state), _full_drift(reference, state), atol=1e-12
        )

    def test_noise_matrix_follows_simulated_convention(self):
        params = FhnParams(epsilon=0.01, delta1=0.4, delta2=0.4)
        model = fhn_model(params, 8)
        np.testing.assert_allclose(model.sigma, np.diag([4.0, 0.4]))

    def test_bound_side_noise_norm(self):
        # ||Sigma^2||_F in the rescaled convention: sqrt(d1^4 + d2^4) / eps
        model = fhn_model(FhnParams(), 8)
        assert model.sigma_sq_frob() == pytest.approx(22.627416997969520781, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_bound_side_noise_norm_of_a_huge_amplitude(self):
        # delta1**4 overflowed and raised a bare OverflowError at 1e80, though
        # the norm, about delta1**2 / eps, is finite; past the float range the
        # norm is refused by name
        model = fhn_model(FhnParams(delta1=1e80), 8)
        assert model.sigma_sq_frob() == pytest.approx(1e160 / FhnParams().epsilon, rel=1e-15)
        with pytest.raises(ContractViolationError, match="bound_sigma_sq_frob"):
            fhn_model(FhnParams(delta1=1e200), 8)

    def test_u_jacobian_diagonal(self):
        params = FhnParams(epsilon=0.01, d_u=0.5, w=0.3)
        model = fhn_model(params, 8)
        rng = np.random.default_rng(13)
        for _ in range(20):
            xm, x, xp = rng.standard_normal((3, 2))
            eps_fd = 1e-6
            # block 1 between xm and xp; block 4, no neighbour of block 1,
            # sees only the mean-field share every block gets, which the
            # local self-derivative excludes
            lattice = np.zeros((8, 2))
            lattice[:3] = xm, x, xp
            shifted = []
            for sign in (1.0, -1.0):
                trial = lattice.copy()
                trial[1, 0] += sign * eps_fd
                d = _full_drift(model, trial)
                shifted.append(d[1] - d[4])
            deriv = (shifted[0] - shifted[1]) / (2 * eps_fd)
            u = x[0]
            expected = (1.0 - u * u - 2.0 * params.d_u - params.w) / params.epsilon
            assert deriv[0] == pytest.approx(expected, rel=1e-6, abs=1e-4)


class TestRegimes:
    def test_preset_examples(self):
        assert regime("diffusion-strongly-coherent").params == FhnParams(d_u=10.0, w=0.0)
        assert regime("meanfield-strong").params == FhnParams(d_u=0.0, w=0.5)
        assert regime("regime-f").params == FhnParams(d_u=0.5, w=0.0)

    def test_table_is_exactly_the_published_union(self):
        expected = {
            "diffusion-strongly-mixed": (0.02, 0.0),
            "diffusion-weakly-coherent": (0.5, 0.0),
            "diffusion-strongly-coherent": (10.0, 0.0),
            "meanfield-weak": (0.0, 0.1),
            "meanfield-moderate": (0.0, 0.3),
            "meanfield-strong": (0.0, 0.5),
            "regime-a": (10.0, 0.0),
            "regime-b": (0.0, 0.5),
            "regime-c": (0.5, 0.3),
            "regime-d": (0.5, 0.1),
            "regime-e": (0.0, 0.3),
            "regime-f": (0.5, 0.0),
        }
        assert set(REGIMES) == set(expected)
        for name, (d_u, w) in expected.items():
            p = REGIMES[name].params
            assert (p.d_u, p.w) == (d_u, w)
            assert (p.epsilon, p.a, p.delta1, p.delta2) == (0.01, 1.05, 0.4, 0.4)

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(PresetNotFoundError, match="regime-f"):
            regime("regime-z")


def test_stiffest_rates():
    # by hand: 1 + 80 + 0 and 1.37 + 120 + 5; (1 + 6.76) / 0.01 and
    # (1 + 6.76 + 2 + 0.24) / 0.0125, with 6.76 the squared spike amplitude
    assert stiffest_rate(LinearParams(a=1.0, d_u=20.0, w=0.0)) == 81.0
    assert stiffest_rate(LinearParams(a=1.37, d_u=30.0, w=5.0)) == pytest.approx(126.37)
    assert stiffest_rate(FhnParams(epsilon=0.01)) == pytest.approx(776.0)
    assert stiffest_rate(FhnParams(epsilon=0.0125, d_u=0.5, w=0.24)) == pytest.approx(800.0)
