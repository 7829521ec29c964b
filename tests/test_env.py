import numpy as np
import pytest

from rulebench import (
    Action,
    AgentConfig,
    AgentError,
    DomainError,
    EpisodeResult,
    TaskSpec,
    Tape,
    Transition,
    env_step,
    intervene,
    make_target,
    reset,
    run_episode,
    step,
)
from rulebench.agents import Agent, make_agent
from rulebench.ca import as_words
from rulebench.codec import from_json, to_json
from rulebench.env import ACTIONS, match_fraction
from rulebench.seeding import derive_seed


def tape(text: str) -> Tape:
    return Tape.from_string(text)


def task_with(rule, target_text, horizon=16, task_seed=0) -> TaskSpec:
    target = tape(target_text)
    return TaskSpec(rule=rule, length=target.length, horizon=horizon, target=target, task_seed=task_seed)


class TestIntervene:
    def test_no_op_returns_state(self):
        assert intervene(tape("00100"), Action.no_op()) == tape("00100")

    def test_flip_first_cell(self):
        assert intervene(tape("00100"), Action.flip(0)) == tape("10100")

    def test_flip_last_cell(self):
        assert intervene(tape("11111"), Action.flip(4)) == tape("11110")

    def test_out_of_bounds_flip_rejected(self):
        with pytest.raises(DomainError):
            intervene(tape("000"), Action.flip(3))

    def test_action_validation(self):
        with pytest.raises(DomainError):
            Action("teleport")
        with pytest.raises(DomainError):
            Action.flip(-1)


class TestEnvStep:
    def test_rule_zero_forces_all_zero_target(self):
        task = task_with(0, "0000")
        for action in (Action.no_op(), Action.flip(2)):
            nxt, reward, done = env_step(tape("1011"), action, task)
            assert nxt == tape("0000") and reward == 1.0 and done

    def test_identity_rule_holds_target(self):
        task = task_with(204, "0110")
        nxt, reward, done = env_step(tape("0110"), Action.no_op(), task)
        assert nxt == task.target and reward == 1.0 and done

    def test_identity_rule_partial_match(self):
        task = task_with(204, "1111")
        nxt, reward, done = env_step(tape("0000"), Action.flip(0), task)
        assert nxt == tape("1000") and reward == 0.25 and not done

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            env_step(tape("000"), Action.no_op(), task_with(204, "0000"))

    def test_budget_exhaustion_sets_done(self):
        task = task_with(204, "1111", horizon=3)
        _, _, done = env_step(tape("0000"), Action.no_op(), task, steps_used=2)
        assert done

    def test_factorization_through_public_ops(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            length = int(rng.integers(3, 10))
            state = Tape(int(rng.integers(0, 1 << length)), length)
            task = TaskSpec(int(rng.integers(0, 256)), length, 8,
                            Tape(int(rng.integers(0, 1 << length)), length), 0)
            i = int(rng.integers(0, length + 1))
            action = Action.from_order_index(i, length)
            nxt, reward, _ = env_step(state, action, task)
            assert nxt == step(intervene(state, action), task.rule)
            assert 0.0 <= reward <= 1.0
            assert (reward == 1.0) == (nxt == task.target)


class TestMatchFraction:
    @pytest.mark.parametrize("length", [3, 8, 63, 64])
    def test_word_arrays_count_cells_like_ints(self, length):
        tapes = [0, 1, (1 << length) - 1, int("10" * (length // 2), 2)]
        expected = [(length - bin(t).count("1")) / length for t in tapes]
        assert [match_fraction(t, 0, length) for t in tapes] == expected
        assert match_fraction(as_words(tapes), 0, length).tolist() == expected


class TestReset:
    def test_deterministic(self):
        task = task_with(90, "01100110")
        assert reset(task, 5) == reset(task, 5)

    def test_never_equals_target(self):
        task = task_with(204, "101")  # tiny space forces collisions onto the redraw path
        for seed in range(200):
            assert reset(task, seed) != task.target

    def test_duplicate_fraction_small_at_length_16(self):
        task = TaskSpec(rule=90, length=16, horizon=32, target=make_target(90, 16, 1), task_seed=1)
        draws = [reset(task, s).bits for s in range(1000)]
        duplicates = 1000 - len(set(draws))
        assert duplicates / 1000 < 0.01


class TestMakeTarget:
    def test_deterministic_and_sized(self):
        a = make_target(110, 12, 9)
        assert a == make_target(110, 12, 9)
        assert a.length == 12

    def test_settled_under_own_rule(self):
        # targets of non-collapsing rules lie on an orbit of the rule itself
        t = make_target(204, 8, 4)
        assert step(t, 204) == t

    def test_zero_collapse_falls_back_to_nonzero(self):
        for seed in range(30):
            assert make_target(0, 8, seed).bits != 0


class _FailingAgent(Agent):
    def __init__(self):
        super().__init__("failing")

    def begin_episode(self, task, obs, seed):
        pass

    def act(self, obs):
        raise RuntimeError("boom")


class TestRunEpisode:
    def test_oracle_solves_identity_task(self):
        cfg = AgentConfig(kind="oracle_mpc", plan_horizon=4, rollout_budget=700)  # enumerates 5^4 sequences
        task = TaskSpec(204, 4, 4, tape("1010"), task_seed=21)
        result = run_episode(task, make_agent(cfg), episode_seed=3)
        assert result.success == 1.0
        assert result.steps_used <= task.horizon

    def test_any_agent_wins_forced_dynamics_in_one_step(self):
        task = task_with(0, "00000")
        result = run_episode(task, make_agent(AgentConfig(kind="random")), episode_seed=1)
        assert result.success == 1.0 and result.steps_used == 1

    def test_random_agent_success_rate_fixture(self):
        # Monte-Carlo regression value, frozen from the first run of this exact setup
        task = TaskSpec(rule=204, length=8, horizon=16, target=make_target(204, 8, 777), task_seed=777)
        agent = make_agent(AgentConfig(kind="random"))
        successes = sum(run_episode(task, agent, derive_seed(123, i)).success for i in range(200))
        assert successes == 11.0
        assert 0.0 < successes / 200 < 1.0

    def test_bit_identical_reruns(self):
        task = task_with(110, "01101001")
        agent = make_agent(AgentConfig(kind="random"))
        a = run_episode(task, agent, episode_seed=7)
        b = run_episode(task, agent, episode_seed=7)
        assert a == b
        assert a.to_record() == b.to_record()

    def test_done_raised_at_first_success(self):
        task = task_with(204, "0110", horizon=30)
        cfg = AgentConfig(kind="oracle_mpc", plan_horizon=2, rollout_budget=30)
        result = run_episode(task, make_agent(cfg), episode_seed=2)
        assert result.success == 1.0
        assert result.transitions[result.steps_used - 1].next_state == task.target
        assert all(t.next_state != task.target for t in result.transitions[:-1])

    def test_agent_failure_carries_context(self):
        task = task_with(90, "0101")
        with pytest.raises(AgentError, match="failing.*step 0.*rule=90"):
            run_episode(task, _FailingAgent(), episode_seed=0)

    def test_record_round_trip(self):
        task = task_with(150, "010011")
        result = run_episode(task, make_agent(AgentConfig(kind="random")), episode_seed=12)
        assert from_json(EpisodeResult, to_json(result)) == result

    def test_return_accumulates_match_fractions(self):
        task = task_with(204, "1111", horizon=2)
        result = run_episode(task, make_agent(AgentConfig(kind="random")), episode_seed=5)
        expected = sum(
            (4 - bin(t.next_state.bits ^ task.target.bits).count("1")) / 4 for t in result.transitions
        )
        assert result.ret == pytest.approx(expected)


class TestTypes:
    @pytest.mark.parametrize("action,data", [
        (Action.flip(3), {"kind": "flip", "index": 3}),
        (Action.no_op(), {"kind": "no_op"}),
    ])
    def test_action_json_round_trip(self, action, data):
        assert to_json(action) == data
        assert from_json(Action, data) == action

    @pytest.mark.parametrize("length", [3, 6, 12, 16, 64])
    def test_order_index_actions_are_shared_within_a_length(self, length):
        first = [Action.from_order_index(i, length) for i in range(length + 1)]
        again = [Action.from_order_index(i, length) for i in range(length + 1)]
        assert all(a is b for a, b in zip(first, again))
        expected = [Action.flip(i) for i in range(length)] + [Action.no_op()]
        assert first == expected
        assert [hash(a) for a in first] == [hash(a) for a in expected]
        assert [a.order_index(length) for a in first] == list(range(length + 1))
        # and across lengths: every length hands out the instances in ACTIONS
        assert all(a is b for a, b in zip(first, (*ACTIONS[:length], ACTIONS[-1]), strict=True))
        assert Action.from_order_index(3, 8) is Action.from_order_index(3, 12)
        assert Action.from_order_index(8, 8) is Action.from_order_index(12, 12)

    @pytest.mark.parametrize("length", [3, 12, 64, 65])
    def test_order_index_outside_the_shared_range_behaves_as_before(self, length):
        assert Action.from_order_index(length + 1, length) == Action.flip(length + 1)
        with pytest.raises(DomainError, match="nonnegative index, got -1"):
            Action.from_order_index(-1, length)
        with pytest.raises(DomainError, match="nonnegative index"):
            Action.from_order_index(np.int64(1), length)  # an integer, but not an int
        assert Action.from_order_index(length, length) == Action.no_op()
        assert Action.from_order_index(length - 1, length) == Action.flip(length - 1)

    def test_task_invariants(self):
        with pytest.raises(DomainError):
            TaskSpec(204, 5, 8, tape("0101"), 0)  # target length mismatch
        with pytest.raises(DomainError):
            TaskSpec(204, 4, 0, tape("0101"), 0)  # horizon < 1

    def test_transition_length_invariant(self):
        with pytest.raises(DomainError):
            Transition(tape("010"), Action.no_op(), tape("0101"))

    def test_episode_result_invariants(self):
        task = task_with(204, "0101")
        with pytest.raises(DomainError):
            EpisodeResult(task, "a", 1.5, 0.0, 1, (), 0)
        with pytest.raises(DomainError):
            EpisodeResult(task, "a", 1.0, 0.0, 99, (), 0)
