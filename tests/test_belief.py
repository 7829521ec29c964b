import numpy as np
import pytest

from rulebench import (
    Action,
    Belief,
    DomainError,
    InconsistentObservationError,
    Tape,
    Transition,
    entropy,
    info_gain_entropy,
    info_gain_kl,
    info_gain_mi,
    posterior_update,
)
from rulebench.belief import info_gain_sweep

from oracles import (
    brute_consistent_rules,
    brute_info_gain,
    brute_step,
    cells_from_string,
)


def tape(text: str) -> Tape:
    return Tape.from_string(text)


def transition(state, action, next_state) -> Transition:
    return Transition(tape(state), action, tape(next_state))


class TestPosteriorUpdate:
    def test_identity_transition_eliminates_zero_rule(self):
        belief = Belief.uniform((0, 204))
        updated = posterior_update(belief, transition("0110", Action.no_op(), "0110"))
        assert updated.support == (0, 204)
        assert updated.probs.tolist() == [0.0, 1.0]

    def test_delta_belief_unchanged_by_consistent_transition(self):
        belief = Belief.from_weights((0, 204), [0.0, 1.0])
        updated = posterior_update(belief, transition("0101", Action.flip(0), "1101"))
        assert updated.probs.tolist() == [0.0, 1.0]

    def test_complement_rule_identified(self):
        belief = Belief.uniform((0, 51, 204, 90))
        updated = posterior_update(belief, transition("0000", Action.no_op(), "1111"))
        assert updated.prob_of(51) == 1.0

    def test_inconsistent_observation_raises(self):
        belief = Belief.uniform((0, 204))
        with pytest.raises(InconsistentObservationError, match="misspecified"):
            posterior_update(belief, transition("0110", Action.no_op(), "1001"))

    def test_zero_prior_mass_never_returns(self):
        belief = Belief.from_weights((204, 236, 51), [0.5, 0.5, 0.0])
        # rule 51 predicts 0011 -> 1100 but has zero prior; it must stay at zero
        updated = posterior_update(belief, transition("0011", Action.no_op(), "0011"))
        assert updated.prob_of(51) == 0.0

    def test_random_trajectories_never_zero_true_rule(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            length = int(rng.integers(3, 9))
            k = int(rng.integers(2, 13))
            support = tuple(int(r) for r in rng.choice(256, size=k, replace=False))
            true_rule = int(support[int(rng.integers(0, k))])
            belief = Belief.uniform(support)
            cells = [int(b) for b in rng.integers(0, 2, size=length)]
            trajectory = []
            for _ in range(int(rng.integers(1, 8))):
                a = int(rng.integers(0, length + 1))
                nxt = brute_step([c if i != a else 1 - c for i, c in enumerate(cells)] if a < length else cells, true_rule)
                trajectory.append((list(cells), a, nxt))
                belief = posterior_update(
                    belief,
                    Transition(Tape.from_cells(cells), Action.from_order_index(a, length), Tape.from_cells(nxt)),
                )
                cells = nxt
            assert belief.prob_of(true_rule) > 0.0
            # posterior is uniform over exactly the rules consistent with the whole trajectory
            consistent = brute_consistent_rules(support, trajectory)
            assert true_rule in consistent
            for rule in support:
                expected = 1.0 / len(consistent) if rule in consistent else 0.0
                assert belief.prob_of(rule) == pytest.approx(expected, abs=1e-12)


class TestEntropy:
    def test_delta_zero(self):
        assert entropy(Belief.from_weights((0, 204), [1.0, 0.0])) == 0.0

    def test_uniform_two_is_one_bit(self):
        assert entropy(Belief.uniform((0, 204))) == pytest.approx(1.0)

    def test_uniform_256_is_eight_bits(self):
        assert entropy(Belief.uniform(range(256))) == pytest.approx(8.0)


class TestInfoGain:
    IGS = (info_gain_entropy, info_gain_mi, info_gain_kl)

    @pytest.mark.parametrize("ig", IGS)
    def test_delta_belief_gains_nothing(self, ig):
        belief = Belief.from_weights((0, 204), [0.0, 1.0])
        assert ig(belief, tape("0110"), Action.no_op()) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("ig", IGS)
    def test_fully_separating_observation_is_one_bit(self, ig):
        belief = Belief.uniform((0, 204))
        assert ig(belief, tape("0110"), Action.no_op()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("ig", IGS)
    def test_two_indistinguishable_pairs_give_one_bit(self, ig):
        # On "0011": 204 and 236 both act as identity; 51 and 50 both produce "1100".
        s = cells_from_string("0011")
        assert brute_step(s, 204) == brute_step(s, 236) == s
        assert brute_step(s, 51) == brute_step(s, 50) == cells_from_string("1100")
        belief = Belief.uniform((204, 236, 51, 50))
        assert ig(belief, tape("0011"), Action.no_op()) == pytest.approx(1.0, abs=1e-12)

    def test_three_computations_agree_and_match_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            length = int(rng.integers(3, 9))
            k = int(rng.integers(1, 17))
            support = tuple(int(r) for r in rng.choice(256, size=k, replace=False))
            weights = rng.random(k)
            if k > 1 and rng.random() < 0.4:
                weights[rng.random(k) < 0.3] = 0.0
                weights[int(rng.integers(0, k))] = max(weights.max(), 0.5)
            belief = Belief.from_weights(support, weights)
            state = Tape(int(rng.integers(0, 1 << length)), length)
            a = int(rng.integers(0, length + 1))
            action = Action.from_order_index(a, length)

            ig_e = info_gain_entropy(belief, state, action)
            ig_m = info_gain_mi(belief, state, action)
            ig_k = info_gain_kl(belief, state, action)
            assert abs(ig_e - ig_m) <= 1e-9
            assert abs(ig_e - ig_k) <= 1e-9
            assert ig_e >= -1e-12
            assert ig_e <= entropy(belief) + 1e-12
            oracle_value = brute_info_gain(support, belief.probs, list(state.cells), a)
            assert ig_e == pytest.approx(oracle_value, abs=1e-10)


class TestInfoGainSweep:
    def random_belief(self, rng, k):
        support = tuple(int(r) for r in rng.choice(256, size=k, replace=False))
        weights = rng.random(k)
        if k > 1:
            weights[rng.random(k) < 0.3] = 0.0  # zero-mass entries
            weights[int(rng.integers(0, k))] = 0.5
        return Belief.from_weights(support, weights)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16, 64, 128])
    def test_equals_info_gain_entropy_exactly(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(20 if k <= 16 else 5):
            belief = self.random_belief(rng, k)
            length = int(rng.integers(3, 13))
            state = Tape(int(rng.integers(0, 1 << length)), length)
            gains = info_gain_sweep(belief, state)
            assert len(gains) == length + 1
            for i, gain in enumerate(gains):
                assert gain == info_gain_entropy(belief, state, Action.from_order_index(i, length)), (k, i)

    def test_long_tape_equals_info_gain_entropy_exactly(self):
        rng = np.random.default_rng(70)
        belief = self.random_belief(rng, 16)
        state = Tape(int.from_bytes(rng.bytes(9), "little") & ((1 << 64) - 1), 64)
        gains = info_gain_sweep(belief, state)
        assert gains == [info_gain_entropy(belief, state, Action.from_order_index(i, 64)) for i in range(65)]


class TestLongTapes:
    @pytest.mark.parametrize("length", [63, 64])
    def test_posterior_matches_oracle(self, length):
        rng = np.random.default_rng(length)
        support = tuple(int(r) for r in rng.choice(256, size=12, replace=False))
        belief = Belief.uniform(support)
        for _ in range(5):
            cells = [int(b) for b in rng.integers(0, 2, size=length)]
            a = int(rng.integers(0, length + 1))
            true_rule = support[int(rng.integers(0, len(support)))]
            nxt = brute_step(cells if a == length else cells[:a] + [1 - cells[a]] + cells[a + 1:], true_rule)
            action = Action.from_order_index(a, length)
            updated = posterior_update(belief, Transition(Tape.from_cells(cells), action, Tape.from_cells(nxt)))
            alive = {z for z, p in zip(support, updated.probs) if p > 0.0}
            assert alive == brute_consistent_rules(support, [(cells, a, nxt)])


class TestBeliefValidation:
    def test_empty_support_rejected(self):
        with pytest.raises(DomainError):
            Belief.uniform(())

    def test_duplicate_support_rejected(self):
        with pytest.raises(DomainError):
            Belief.uniform((90, 90))

    def test_negative_probs_rejected(self):
        with pytest.raises(DomainError):
            Belief((0, 204), np.array([1.5, -0.5]))

    def test_unnormalized_probs_rejected(self):
        with pytest.raises(DomainError):
            Belief((0, 204), np.array([0.6, 0.6]))

    def test_probs_are_immutable(self):
        belief = Belief.uniform((0, 204))
        with pytest.raises(ValueError):
            belief.probs[0] = 0.9
