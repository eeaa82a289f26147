"""Completion-probability prediction (Sec. 3.2.1, Fig. 5).

The probability that a consumption group completes is predicted from two
factors: δ — the inverse degree of completion (how many more events the
partial match needs) — and *n*, the expected number of events left in the
window.

:class:`MarkovPredictor` is the paper's model: pattern completion is a
discrete-time Markov process over states δ..0 ("0" = complete).  A
transition matrix ``T1`` is learned online from δ transitions observed in
non-speculative (independent-window) versions, smoothed exponentially with
weight α every ρ measurements.  Matrix powers are precomputed at multiples
of the step size ℓ and linearly interpolated in between (Fig. 5 line 6).

:class:`FixedPredictor` assigns every group a constant probability — the
comparison models of Fig. 11.

Implementation parameter: for very long patterns, δ values are bucketed
linearly onto at most ``state_cap`` states so that the matrices stay small
(a 2560-stage Q1 pattern would otherwise need 2561² matrices); predictions
remain monotone in δ and n, which is all the scheduler consumes.

Pricing reads one matrix entry: a miss interpolates only ``[state, 0]``
of the two bracketing powers — bit for bit the interpolated matrix's
entry, as numpy applies the same IEEE operations to each element — and
``state_of`` reads a table that caches its formula per δ.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.spectre.config import MarkovParams


class CompletionPredictor(Protocol):
    """Interface the scheduler uses to price consumption groups."""

    def probability(self, delta: int, events_left: float) -> float:
        """P(group completes), given δ and the expected events left."""
        ...

    def observe(self, delta_old: int, delta_new: int) -> None:
        """Record one per-event δ transition (no-op for fixed models)."""
        ...


class FixedPredictor:
    """Constant completion probability (Fig. 11 baselines)."""

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self._probability = probability

    def probability(self, delta: int, events_left: float) -> float:
        if delta <= 0:
            return 1.0
        return self._probability

    def observe(self, delta_old: int, delta_new: int) -> None:
        return None


class MarkovPredictor:
    """The paper's learned Markov completion model."""

    def __init__(self, delta_max: int,
                 params: MarkovParams | None = None) -> None:
        if delta_max < 1:
            raise ValueError("delta_max must be >= 1")
        self.params = params or MarkovParams()
        self.delta_max = delta_max
        self.n_states = min(delta_max, self.params.state_cap) + 1
        self._states: dict[int, int] = {}  # δ → state_of(δ), filled lazily

        self._t1 = self._prior_matrix()
        self._counts = np.zeros((self.n_states, self.n_states))
        self._pending = 0
        self.updates = 0
        # power cache: step index m -> T1^(m*ell)
        self._powers: dict[int, np.ndarray] = {}
        self._prob_cache: dict[tuple[int, int], float] = {}

    # -- state mapping ---------------------------------------------------

    def state_of(self, delta: int) -> int:
        """Bucket δ onto the model's state space (0 = complete)."""
        state = self._states.get(delta)
        if state is None:  # once per δ; a pattern has delta_max + 1 of them
            state = self._states[delta] = self._bucket(delta)
        return state

    def _bucket(self, delta: int) -> int:
        if delta <= 0:
            return 0
        if self.delta_max <= self.params.state_cap:
            return min(delta, self.n_states - 1)
        scaled = int(np.ceil(delta * (self.n_states - 1) / self.delta_max))
        return max(1, min(scaled, self.n_states - 1))

    def _prior_matrix(self) -> np.ndarray:
        """Before any statistics: advance one state with probability 0.5."""
        matrix = np.zeros((self.n_states, self.n_states))
        matrix[0, 0] = 1.0  # "complete" is absorbing
        for state in range(1, self.n_states):
            matrix[state, state - 1] = 0.5
            matrix[state, state] = 0.5
        return matrix

    # -- learning -----------------------------------------------------------

    def observe(self, delta_old: int, delta_new: int) -> None:
        """Fig. 5 text: gather the δ_old → δ_new transition of one event."""
        src = self.state_of(delta_old)
        dst = self.state_of(delta_new)
        if src == 0:
            return
        self._counts[src, dst] += 1.0
        self._pending += 1
        if self._pending >= self.params.rho:
            self._refresh()

    def _refresh(self) -> None:
        """T1 = (1-α) · T1_old + α · T1_new (exponential smoothing)."""
        row_sums = self._counts.sum(axis=1)
        t_new = self._t1.copy()
        for state in range(1, self.n_states):
            if row_sums[state] > 0:
                t_new[state] = self._counts[state] / row_sums[state]
        alpha = self.params.alpha
        self._t1 = (1.0 - alpha) * self._t1 + alpha * t_new
        self._counts[:] = 0.0
        self._pending = 0
        self.updates += 1
        self._powers.clear()
        self._prob_cache.clear()

    # -- prediction -----------------------------------------------------------

    def _power_step(self, m: int) -> np.ndarray:
        """T1^(m·ℓ), built incrementally (T_{mℓ} = T_{(m-1)ℓ} · T_ℓ)."""
        if m <= 0:
            return np.eye(self.n_states)
        cached = self._powers.get(m)
        if cached is not None:
            return cached
        if 1 not in self._powers:
            self._powers[1] = np.linalg.matrix_power(self._t1,
                                                     self.params.ell)
        last = max(index for index in self._powers if index <= m)
        matrix = self._powers[last]
        for index in range(last + 1, m + 1):
            matrix = matrix @ self._powers[1]
            self._powers[index] = matrix
        return self._powers[m]

    def probability(self, delta: int, events_left: float) -> float:
        """Fig. 5: interpolated n-step completion probability."""
        state = self.state_of(delta)
        if state == 0:
            return 1.0
        n = max(1, int(round(events_left)))
        ell = self.params.ell
        cache_key = (state, n)
        cached = self._prob_cache.get(cache_key)
        if cached is not None:
            return cached

        # v_n = v_0 · T_n; completion probability is the "state 0" entry
        lower_steps, remainder = divmod(n, ell)
        lower = float(self._power_step(lower_steps)[state, 0])
        if remainder == 0:
            probability = lower
        else:
            weight = remainder / ell
            upper = float(self._power_step(lower_steps + 1)[state, 0])
            probability = (1.0 - weight) * lower + weight * upper
        probability = min(1.0, max(0.0, probability))
        self._prob_cache[cache_key] = probability
        return probability

    @property
    def transition_matrix(self) -> np.ndarray:
        """Copy of the current one-step matrix (introspection/tests)."""
        return self._t1.copy()
