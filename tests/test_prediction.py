"""Unit tests for the completion-probability models (Fig. 5)."""

import numpy as np
import pytest

from repro.spectre.config import MarkovParams
from repro.spectre.prediction import FixedPredictor, MarkovPredictor


class TestFixedPredictor:
    def test_constant(self):
        predictor = FixedPredictor(0.3)
        assert predictor.probability(5, 100) == 0.3
        assert predictor.probability(1, 1) == 0.3

    def test_delta_zero_is_certain(self):
        assert FixedPredictor(0.3).probability(0, 10) == 1.0

    def test_observe_is_noop(self):
        predictor = FixedPredictor(0.3)
        predictor.observe(3, 2)
        assert predictor.probability(3, 10) == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedPredictor(1.5)


class TestMarkovStates:
    def test_small_delta_maps_identity(self):
        predictor = MarkovPredictor(delta_max=5)
        assert predictor.n_states == 6
        assert [predictor.state_of(d) for d in range(6)] == [0, 1, 2, 3, 4, 5]

    def test_large_delta_buckets(self):
        predictor = MarkovPredictor(delta_max=1000,
                                    params=MarkovParams(state_cap=10))
        assert predictor.n_states == 11
        assert predictor.state_of(0) == 0
        assert predictor.state_of(1) == 1      # at least 1 when delta >= 1
        assert predictor.state_of(1000) == 10
        assert predictor.state_of(500) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovPredictor(delta_max=0)


class TestMarkovPrior:
    def test_row_stochastic(self):
        predictor = MarkovPredictor(delta_max=5)
        matrix = predictor.transition_matrix
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_complete_state_absorbing(self):
        matrix = MarkovPredictor(delta_max=5).transition_matrix
        assert matrix[0, 0] == 1.0

    def test_probability_monotone_in_delta(self):
        predictor = MarkovPredictor(delta_max=8)
        probabilities = [predictor.probability(d, 20) for d in range(1, 9)]
        assert all(a >= b for a, b in zip(probabilities, probabilities[1:]))

    def test_probability_monotone_in_events_left(self):
        predictor = MarkovPredictor(delta_max=8)
        shorter = predictor.probability(4, 5)
        longer = predictor.probability(4, 50)
        assert longer >= shorter

    def test_delta_zero_certain(self):
        assert MarkovPredictor(delta_max=3).probability(0, 10) == 1.0

    def test_probability_in_unit_interval(self):
        predictor = MarkovPredictor(delta_max=6)
        for delta in range(7):
            for n in (1, 7, 13, 40):
                assert 0.0 <= predictor.probability(delta, n) <= 1.0


class TestMarkovLearning:
    def _train(self, predictor, advance_probability, steps=2000, seed=5):
        """Feed synthetic transitions: advance with given probability."""
        rng = np.random.default_rng(seed)
        delta = predictor.delta_max
        for _ in range(steps):
            if delta == 0:
                delta = predictor.delta_max
            new_delta = delta - 1 if rng.random() < advance_probability \
                else delta
            predictor.observe(delta, new_delta)
            delta = new_delta

    def test_learns_fast_advance(self):
        fast = MarkovPredictor(delta_max=4,
                               params=MarkovParams(rho=100))
        self._train(fast, advance_probability=0.9)
        slow = MarkovPredictor(delta_max=4,
                               params=MarkovParams(rho=100))
        self._train(slow, advance_probability=0.05)
        assert fast.probability(4, 10) > slow.probability(4, 10)

    def test_update_counts(self):
        predictor = MarkovPredictor(delta_max=4,
                                    params=MarkovParams(rho=10))
        for _ in range(25):
            predictor.observe(2, 1)
        assert predictor.updates == 2

    def test_smoothing_moves_toward_observations(self):
        params = MarkovParams(alpha=0.7, rho=50)
        predictor = MarkovPredictor(delta_max=3, params=params)
        before = predictor.transition_matrix[2, 1]
        for _ in range(50):
            predictor.observe(2, 1)  # always advance from state 2
        after = predictor.transition_matrix[2, 1]
        assert after > before

    def test_interpolation_between_power_steps(self):
        # Fig. 5 line 6: T_14 = interpolation of T_10 and T_20 (ell=10)
        predictor = MarkovPredictor(delta_max=4,
                                    params=MarkovParams(ell=10))
        p10 = predictor.probability(3, 10)
        p14 = predictor.probability(3, 14)
        p20 = predictor.probability(3, 20)
        low, high = min(p10, p20), max(p10, p20)
        assert low - 1e-12 <= p14 <= high + 1e-12

    def test_refresh_invalidates_power_and_prob_caches(self):
        """A model update must clear both lazy caches — otherwise
        ``probability`` would keep serving matrices of the old T1."""
        predictor = MarkovPredictor(delta_max=4,
                                    params=MarkovParams(rho=20))
        predictor.probability(3, 25)  # populate _powers and _prob_cache
        assert predictor._powers and predictor._prob_cache
        for _ in range(20):  # exactly rho observations → one _refresh
            predictor.observe(4, 3)
        assert predictor.updates == 1
        assert not predictor._powers
        assert not predictor._prob_cache

    def test_no_stale_matrices_served_after_refresh(self):
        """Post-refresh predictions must equal those of a fresh predictor
        seeded with the refreshed T1 (i.e. nothing cached survived), and
        must differ from the pre-refresh prior prediction."""
        params = MarkovParams(rho=20)
        predictor = MarkovPredictor(delta_max=4, params=params)
        before = predictor.probability(3, 25)
        for _ in range(20):
            predictor.observe(2, 1)  # always advance from state 2
        after = predictor.probability(3, 25)
        fresh = MarkovPredictor(delta_max=4, params=params)
        fresh._t1 = predictor.transition_matrix
        assert after == pytest.approx(fresh.probability(3, 25))
        assert abs(after - before) > 1e-6

    def test_monotone_in_delta_for_interpolated_n(self):
        """Fig. 5 line 6 interpolation (n % ell != 0) must preserve the
        monotonicity in δ that the scheduler relies on — on the prior
        and after learning one-step-advance statistics."""
        params = MarkovParams(ell=10, rho=100)
        predictor = MarkovPredictor(delta_max=8, params=params)
        for n in (13, 17, 25):
            assert n % params.ell != 0
            probabilities = [predictor.probability(d, n)
                             for d in range(1, 9)]
            assert all(a >= b - 1e-12 for a, b in
                       zip(probabilities, probabilities[1:]))
        self._train(predictor, advance_probability=0.6)
        assert predictor.updates > 0
        for n in (13, 17, 25):
            probabilities = [predictor.probability(d, n)
                             for d in range(1, 9)]
            assert all(a >= b - 1e-12 for a, b in
                       zip(probabilities, probabilities[1:]))

    def test_rows_remain_stochastic_after_updates(self):
        predictor = MarkovPredictor(delta_max=4,
                                    params=MarkovParams(rho=20))
        rng = np.random.default_rng(0)
        for _ in range(200):
            src = int(rng.integers(1, 5))
            dst = max(0, src - int(rng.integers(0, 2)))
            predictor.observe(src, dst)
        matrix = predictor.transition_matrix
        assert np.allclose(matrix.sum(axis=1), 1.0)


def full_matrix_state(predictor, delta):
    """``state_of`` as the formula it tabulates."""
    if delta <= 0:
        return 0
    top = predictor.n_states - 1
    if predictor.delta_max <= predictor.params.state_cap:
        return min(delta, top)
    scaled = int(np.ceil(delta * top / predictor.delta_max))
    return max(1, min(scaled, top))


def full_matrix_probability(predictor, delta, events_left):
    """Fig. 5 line 6 interpolating the whole matrix, then reading
    ``[state, 0]`` — the reference the one-entry pricing must equal."""
    state = full_matrix_state(predictor, delta)
    if state == 0:
        return 1.0
    n = max(1, int(round(events_left)))
    ell = predictor.params.ell
    lower_steps, remainder = divmod(n, ell)
    if remainder == 0:
        t_n = predictor._power_step(lower_steps)
    else:
        weight = remainder / ell
        t_lower = predictor._power_step(lower_steps)
        t_upper = predictor._power_step(lower_steps + 1)
        t_n = (1.0 - weight) * t_lower + weight * t_upper
    return min(1.0, max(0.0, float(t_n[state, 0])))


class TestPricingReadsOneEntry:
    """The predictor interpolates only the entry it returns, and maps δ
    through a table: both must equal the full-matrix formulas to the
    bit, on the prior and after every model refresh."""

    # (delta_max, state_cap): the q=110 leg buckets δ onto 41 states;
    # a short pattern maps δ one to one
    CASES = [(110, 40), (8, 40)]

    @pytest.mark.parametrize("delta_max, state_cap", CASES)
    def test_probability_equals_full_matrix_formula(self, delta_max,
                                                    state_cap):
        params = MarkovParams(rho=150, state_cap=state_cap)
        predictor = MarkovPredictor(delta_max, params)
        ell = params.ell
        deltas = range(-1, delta_max + 6)
        lefts = [*range(1, 40 * ell + 1), 0.4, 2.5, 13.5, 17.49, 399.6]
        rng = np.random.default_rng(11)
        for _epoch in range(4):
            for delta in deltas:
                for events_left in lefts:
                    assert predictor.probability(delta, events_left) == \
                        full_matrix_probability(predictor, delta,
                                                events_left)
            updates = predictor.updates
            while predictor.updates == updates:  # one more _refresh
                src = int(rng.integers(1, delta_max + 1))
                predictor.observe(src, src - int(rng.integers(0, 3)))
        assert predictor.updates == 4

    @pytest.mark.parametrize("delta_max, state_cap", CASES + [(1000, 10)])
    def test_state_of_equals_the_ceil_formula(self, delta_max, state_cap):
        predictor = MarkovPredictor(delta_max,
                                    MarkovParams(state_cap=state_cap))
        for delta in range(-1, delta_max + 6):
            assert predictor.state_of(delta) == \
                full_matrix_state(predictor, delta)
        assert predictor.state_of(2.5) == full_matrix_state(predictor, 2.5)
