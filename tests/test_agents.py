import numpy as np
import pytest

from rulebench import (
    Action,
    AgentConfig,
    Belief,
    ConfigError,
    SplitSpec,
    TaskSpec,
    Tape,
    entropy,
    env_step,
    make_split,
    make_target,
    paired_t,
    run_episode,
)
from rulebench.agents import (
    BeliefMpcAgent,
    FallbackMpcAgent,
    TabularQAgent,
    make_agent,
    max_ig_action,
    plan_mpc,
)
from rulebench.harness import cell_seed
from rulebench.seeding import make_rng

from oracles import brute_expected_reward, brute_info_gain, reference_plan


def tape(text: str) -> Tape:
    return Tape.from_string(text)


def task_with(rule, target_text, horizon=16, task_seed=0) -> TaskSpec:
    target = tape(target_text)
    return TaskSpec(rule, target.length, horizon, target, task_seed)


class TestRandomAgent:
    def test_fixed_seed_reproducible(self):
        task = task_with(90, "010010101")
        agent = make_agent(AgentConfig(kind="random"))
        a = run_episode(task, agent, episode_seed=4)
        b = run_episode(task, agent, episode_seed=4)
        assert [t.action for t in a.transitions] == [t.action for t in b.transitions]

    def test_uniform_frequencies_at_length_9(self):
        agent = make_agent(AgentConfig(kind="random"))
        agent.begin_episode(task_with(90, "010010101"), tape("010010101"), seed=99)
        counts = np.zeros(10)
        for _ in range(10_000):
            counts[agent.act(tape("010010101")).order_index(9)] += 1
        assert np.all(np.abs(counts / 10_000 - 0.1) < 0.02)

    def test_action_space_is_length_plus_one(self):
        agent = make_agent(AgentConfig(kind="random"))
        agent.begin_episode(task_with(204, "000"), tape("010"), seed=0)
        seen = {agent.act(tape("010")).order_index(3) for _ in range(500)}
        assert seen == {0, 1, 2, 3}  # minimum tape length 3 gives at least 4 actions


class TestPlanMpc:
    def exhaustive_cfg(self, horizon=1):
        # budget covers the whole sequence space at L <= 6, so planning is exact
        return AgentConfig(kind="oracle_mpc", plan_horizon=horizon, rollout_budget=7**horizon)

    @pytest.mark.parametrize("state,target,flip", [("0000", "0100", 1), ("1111", "1101", 2), ("1000", "0000", 0)])
    def test_delta_model_returns_correcting_flip(self, state, target, flip):
        rng = make_rng(1)
        action = plan_mpc((204,), np.ones(1), tape(state), tape(target), self.exhaustive_cfg(), rng)
        assert action == Action.flip(flip)

    def test_forced_dynamics_tie_break_lowest_index(self):
        rng = make_rng(2)
        action = plan_mpc((0,), np.ones(1), tape("1010"), tape("0000"), self.exhaustive_cfg(horizon=2), rng)
        assert action == Action.flip(0)

    def test_zero_budget_rejected_by_config(self):
        with pytest.raises(ConfigError):
            AgentConfig(kind="belief_mpc", rollout_budget=0)

    def test_sampled_mode_deterministic_given_rng(self):
        cfg = AgentConfig(kind="belief_mpc", plan_horizon=6, rollout_budget=32)
        args = ((90, 110, 204), np.array([0.2, 0.3, 0.5]), tape("010011"), tape("111000"), cfg)
        assert plan_mpc(*args, make_rng(5)) == plan_mpc(*args, make_rng(5))


class TestPlanMatchesScalarReference:
    """The batched planner picks the scalar reference's action from the same random draws."""

    def check(self, rules, weights, length, cfg, seed, bonus=None):
        rng = np.random.default_rng(seed)
        state = [int(b) for b in rng.integers(0, 2, size=length)]
        target = [int(b) for b in rng.integers(0, 2, size=length)]
        ours, theirs = make_rng(seed, "plan"), make_rng(seed, "plan")
        action = plan_mpc(rules, weights, Tape.from_cells(state), Tape.from_cells(target), cfg, ours, bonus)
        expected = reference_plan(rules, weights, state, target, theirs, cfg.plan_horizon, cfg.rollout_budget,
                                  cfg.mixture_rules, cfg.exact_mixture, bonus)
        assert action.order_index(length) == expected
        assert ours.bit_generator.state == theirs.bit_generator.state

    def random_weights(self, rng, k):
        weights = rng.random(k)
        weights[rng.random(k) < 0.25] = 0.0
        weights[0] = 0.5
        return weights

    @pytest.mark.parametrize("seed", range(12))
    def test_enumerated(self, seed):
        rng = np.random.default_rng(seed)
        length, horizon = int(rng.integers(3, 5)), 2
        rules = tuple(int(r) for r in rng.choice(256, size=int(rng.integers(1, 6)), replace=False))
        cfg = AgentConfig(kind="belief_mpc", plan_horizon=horizon, rollout_budget=(length + 1) ** horizon)
        self.check(rules, self.random_weights(rng, len(rules)), length, cfg, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_sampled_mixture_of_128(self, seed):
        rng = np.random.default_rng(50 + seed)
        rules = tuple(int(r) for r in rng.choice(256, size=128, replace=False))
        cfg = AgentConfig(kind="belief_mpc", plan_horizon=3, rollout_budget=24)
        self.check(rules, self.random_weights(rng, 128), 7, cfg, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_mixture_with_bonus(self, seed):
        rng = np.random.default_rng(80 + seed)
        rules = tuple(int(r) for r in rng.choice(256, size=12, replace=False))
        cfg = AgentConfig(kind="belief_mpc_ig", plan_horizon=2, rollout_budget=20, exact_mixture=True, ig_weight=0.5)
        bonus = {i: float(rng.choice([0.0, 0.25, 0.5])) for i in range(7)}  # coarse values make ties
        self.check(rules, self.random_weights(rng, 12), 6, cfg, seed, bonus)

    def test_tapes_of_a_full_word(self):
        cfg = AgentConfig(kind="belief_mpc", plan_horizon=2, rollout_budget=6)
        self.check((30, 90, 110), np.array([0.5, 0.25, 0.25]), 64, cfg, seed=3)


class TestBeliefMpc:
    def test_zero_ig_weight_matches_plain_variant(self):
        rules = (30, 90, 110, 150, 204)
        task = TaskSpec(110, 6, 10, make_target(110, 6, 3), 3)
        plain = make_agent(AgentConfig(kind="belief_mpc", plan_horizon=3, rollout_budget=40), rules)
        bonus = make_agent(AgentConfig(kind="belief_mpc_ig", ig_weight=0.0, plan_horizon=3, rollout_budget=40), rules)
        a = run_episode(task, plain, episode_seed=8)
        b = run_episode(task, bonus, episode_seed=8)
        assert [t.action for t in a.transitions] == [t.action for t in b.transitions]

    def test_ig_bonus_prefers_distinguishing_action(self):
        # Constructed by brute force: on "1000" under uniform {204, 236}, flips 1 and 2
        # tie for expected one-step reward against target "1110", but only flip 2
        # creates the (1,0,1) neighborhood on which the two rules disagree.
        support, probs = (204, 236), (0.5, 0.5)
        state, target = [1, 0, 0, 0], [1, 1, 1, 0]
        rewards = [brute_expected_reward(support, probs, state, a, target) for a in range(5)]
        gains = [brute_info_gain(support, probs, state, a) for a in range(5)]
        assert rewards[1] == rewards[2] == max(rewards)
        assert gains[2] == 1.0 and all(g == 0.0 for i, g in enumerate(gains) if i != 2)

        task = TaskSpec(204, 4, 8, Tape.from_cells(target), 0)
        base = dict(plan_horizon=1, rollout_budget=5, exact_mixture=True)
        plain = BeliefMpcAgent(AgentConfig(kind="belief_mpc", **base), support)
        keen = BeliefMpcAgent(AgentConfig(kind="belief_mpc_ig", ig_weight=10.0, **base), support)
        for agent in (plain, keen):
            agent.begin_episode(task, Tape.from_cells(state), seed=0)
        assert plain.act(Tape.from_cells(state)) == Action.flip(1)  # reward tie-break
        assert keen.act(Tape.from_cells(state)) == Action.flip(2)  # information wins

    def test_delta_belief_makes_variants_agree(self):
        task = task_with(204, "0110")
        base = dict(plan_horizon=2, rollout_budget=60)
        plain = BeliefMpcAgent(AgentConfig(kind="belief_mpc", **base), (204,))
        keen = BeliefMpcAgent(AgentConfig(kind="belief_mpc_ig", ig_weight=5.0, **base), (204,))
        obs = tape("0010")
        for agent in (plain, keen):
            agent.begin_episode(task, obs, seed=3)
        assert plain.act(obs) == keen.act(obs)

    def test_inconsistent_observation_resets_belief_to_uniform(self):
        rules = (204, 51)
        agent = BeliefMpcAgent(AgentConfig(kind="belief_mpc", plan_horizon=1, rollout_budget=5), rules)
        task = task_with(90, "01100110")  # true rule outside the hypothesis set
        obs = tape("01010101")
        agent.begin_episode(task, obs, seed=1)
        nxt, _, _ = env_step(obs, Action.no_op(), task)
        assert nxt != obs and nxt.bits != (~obs.bits) & 0xFF  # neither hypothesis explains it
        agent.observe(obs, Action.no_op(), 0.0, nxt, False)
        assert agent.belief.probs.tolist() == [0.5, 0.5]


class TestFallback:
    RULES = (0, 51, 204, 90, 150, 30, 110, 60)

    def make(self, threshold):
        cfg = AgentConfig(kind="fallback_mpc", entropy_threshold=threshold, plan_horizon=2, rollout_budget=30)
        return FallbackMpcAgent(cfg, self.RULES)

    def test_infinite_threshold_always_plans(self):
        agent = self.make(float("inf"))
        task = task_with(90, "01100")
        agent.begin_episode(task, tape("00110"), seed=2)
        agent.act(tape("00110"))
        assert agent.last_mode == "plan"

    def test_zero_threshold_with_uncertainty_always_explores(self):
        agent = self.make(0.0)
        task = task_with(90, "01100")
        agent.begin_episode(task, tape("00110"), seed=2)
        action = agent.act(tape("00110"))
        assert agent.last_mode == "explore"
        assert action == max_ig_action(agent.belief, tape("00110"))

    def test_explore_matches_brute_force_argmax(self):
        belief = Belief.uniform(self.RULES)
        state = tape("01011")
        gains = [brute_info_gain(self.RULES, belief.probs, list(state.cells), a) for a in range(6)]
        best = max(range(6), key=lambda a: (gains[a], -a))
        assert max_ig_action(belief, state).order_index(5) == best

    def test_mode_switches_once_belief_sharpens(self):
        # scripted episode: entropy starts at 3 bits, exploration collapses it below 1
        agent = self.make(1.0)
        task = TaskSpec(90, 5, 12, make_target(90, 5, 11), 11)
        state = tape("01011")
        agent.begin_episode(task, state, seed=6)
        modes = []
        for step_i in range(task.horizon):
            entropy_before = entropy(agent.belief)
            action = agent.act(state)
            modes.append(agent.last_mode)
            assert agent.last_mode == ("explore" if entropy_before > 1.0 else "plan")
            nxt, reward, done = env_step(state, action, task, steps_used=step_i)
            agent.observe(state, action, reward, nxt, done)
            state = nxt
            if done:
                break
        assert modes[0] == "explore"
        assert "plan" in modes
        assert modes.index("plan") == len(modes) - modes[::-1].count("plan")  # no flip-flop back


class TestTabularQ:
    def q_agent(self, **overrides):
        fields = dict(kind="tabular_q", q_learning_rate=0.25, q_discount=0.0, q_exploration=0.0)
        fields.update(overrides)
        return TabularQAgent(AgentConfig(**fields))

    @pytest.mark.parametrize("rate", [-5.0, 0.0, 1.5])
    def test_learning_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ConfigError, match=r"q_learning_rate must be in \(0, 1\]"):
            self.q_agent(q_learning_rate=rate)

    def test_learning_rate_of_one_accepted(self):
        assert self.q_agent(q_learning_rate=1.0).cfg.q_learning_rate == 1.0

    def test_repeated_reward_converges_geometrically(self):
        agent = self.q_agent()
        agent.begin_episode(task_with(204, "0101"), tape("0000"), seed=0)
        s, a, nxt = tape("0000"), Action.flip(0), tape("1000")
        for k in range(1, 40):
            agent.observe(s, a, 1.0, nxt, False)
            expected = 1.0 - (1.0 - 0.25) ** k
            assert agent.q[(4, s.bits)][0] == pytest.approx(expected, abs=1e-12)

    def test_full_exploration_is_uniform(self):
        agent = self.q_agent(q_exploration=1.0)
        agent.begin_episode(task_with(90, "010010101"), tape("010010101"), seed=31)
        counts = np.zeros(10)
        for _ in range(10_000):
            counts[agent.act(tape("010010101")).order_index(9)] += 1
        assert np.all(np.abs(counts / 10_000 - 0.1) < 0.02)

    def test_unseen_state_greedy_tie_breaks_to_first_action(self):
        agent = self.q_agent()
        agent.begin_episode(task_with(204, "0101"), tape("0000"), seed=1)
        assert agent.act(tape("1100")) == Action.flip(0)
        assert agent.q[(4, tape("1100").bits)].tolist() == [0.0] * 5

    def test_long_tapes_rejected(self):
        agent = self.q_agent()
        task = TaskSpec(204, 13, 8, make_target(204, 13, 2), 2)
        with pytest.raises(ConfigError):
            agent.begin_episode(task, make_target(90, 13, 3), seed=0)

    def test_table_persists_across_episodes(self):
        agent = self.q_agent(q_exploration=0.3)
        task = task_with(204, "0110", horizon=6)
        run_episode(task, agent, episode_seed=1)
        size_after_first = len(agent.q)
        run_episode(task, agent, episode_seed=2)
        assert len(agent.q) >= size_after_first > 0


class TestStatisticalOrdering:
    def test_oracle_beats_belief_beats_random(self):
        # >= 200 episodes on a fixed in-distribution task set; both gaps significant
        candidates = (18, 22, 26, 30, 45, 54, 60, 73, 90, 105, 110, 122, 126, 146, 150, 182)
        spec = SplitSpec(protocol="id", candidate_rules=candidates, split_seed=11,
                         n_train_tasks=8, n_test_tasks=8, train_lengths=(8,), test_lengths=(8,), horizon=8)
        split = make_split(spec)
        episodes = 30

        def successes(cfg):
            agent = make_agent(cfg, split.train_rules)
            return [
                run_episode(task, agent, cell_seed(42, cfg.name, ti, ei)).success
                for ti, task in enumerate(split.test_tasks)
                for ei in range(episodes)
            ]

        oracle = successes(AgentConfig(kind="oracle_mpc", plan_horizon=4, rollout_budget=64))
        belief = successes(AgentConfig(kind="belief_mpc", plan_horizon=4, rollout_budget=64, exact_mixture=True))
        random_ = successes(AgentConfig(kind="random"))
        assert len(oracle) == 240

        assert np.mean(oracle) > np.mean(belief) > np.mean(random_)
        assert paired_t(list(zip(oracle, belief))).p_value < 0.05
        assert paired_t(list(zip(belief, random_))).p_value < 0.05


@pytest.mark.parametrize("kind", ["random", "oracle_mpc", "belief_mpc", "belief_mpc_ig", "fallback_mpc", "tabular_q"])
def test_every_agent_kind_is_reproducible(kind):
    cfg = AgentConfig(kind=kind, plan_horizon=2, rollout_budget=20, ig_weight=0.5)
    task = TaskSpec(110, 6, 8, make_target(110, 6, 5), 5)
    results = []
    for _ in range(2):
        agent = make_agent(cfg, (90, 110, 204, 30))
        results.append(run_episode(task, agent, episode_seed=13).to_record())
    assert results[0] == results[1]
