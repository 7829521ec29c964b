import numpy as np
import pytest

from rulebench import DomainError, Tape, decode_rule, step
from rulebench import ca
from rulebench.ca import MAX_LENGTH, TABLE_MAX_LENGTH, as_words, step_bits

from oracles import brute_decode, brute_step


def tape(text: str) -> Tape:
    return Tape.from_string(text)


class TestDecodeRule:
    def test_zero_rule_all_outputs_zero(self):
        assert decode_rule(0) == (0,) * 8

    def test_rule_110_table(self):
        # neighborhoods (111, 110, ..., 000) read high-to-low; table is indexed low-to-high
        assert tuple(reversed(decode_rule(110))) == (0, 1, 1, 0, 1, 1, 1, 0)

    def test_rule_204_is_center(self):
        table = decode_rule(204)
        for left in (0, 1):
            for center in (0, 1):
                for right in (0, 1):
                    assert table[4 * left + 2 * center + right] == center

    @pytest.mark.parametrize("bad", [-1, 256, 1000])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(DomainError):
            decode_rule(bad)

    def test_matches_brute_force(self):
        for rule in range(256):
            assert list(decode_rule(rule)) == brute_decode(rule)

    def test_table_bits_read_back_the_rule(self):
        for rule in range(256):
            assert sum(bit << k for k, bit in enumerate(decode_rule(rule))) == rule


class TestStep:
    def test_rule_zero_maps_everything_to_zeros(self):
        for text in ("000", "111", "01011", "11111111"):
            assert step(tape(text), 0) == Tape(0, len(text))

    def test_rule_204_is_identity_exhaustive(self):
        for length in range(3, 11):
            for bits in range(1 << length):
                assert step_bits(bits, length, 204) == bits

    def test_rule_51_is_complement_exhaustive(self):
        for length in range(3, 11):
            mask = (1 << length) - 1
            for bits in range(1 << length):
                assert step_bits(bits, length, 51) == bits ^ mask

    def test_rule_90_example(self):
        assert str(step(tape("00100"), 90)) == "01010"

    def test_length_preserved_and_deterministic(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            length = int(rng.integers(3, 12))
            t = Tape(int(rng.integers(0, 1 << length)), length)
            rule = int(rng.integers(0, 256))
            out = step(t, rule)
            assert out.length == length
            assert step(t, rule) == out

    def test_iterated_steps_match_oracle_orbit(self):
        orbit = [tape("00100")]
        for _ in range(2):
            orbit.append(step(orbit[-1], 90))
        assert [str(t) for t in orbit] == ["00100", "01010", "10001"]
        rng = np.random.default_rng(9)
        for _ in range(50):
            length = int(rng.integers(3, 12))
            cells = [int(b) for b in rng.integers(0, 2, size=length)]
            rule = int(rng.integers(0, 256))
            t = Tape.from_cells(cells)
            for _ in range(6):
                t, cells = step(t, rule), brute_step(cells, rule)
                assert list(t.cells) == cells, rule

    def test_periodic_agrees_with_oracle_sampled(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            length = int(rng.integers(3, 10))
            cells = [int(b) for b in rng.integers(0, 2, size=length)]
            rule = int(rng.integers(0, 256))
            assert list(step(Tape.from_cells(cells), rule).cells) == brute_step(cells, rule)


def cells_of(bits: int, length: int) -> list[int]:
    return [(bits >> i) & 1 for i in range(length)]


class TestBitParallelKernel:
    """``step_bits`` against the per-cell oracle, on Python ints and on arrays."""

    @pytest.mark.parametrize("length", [3, 8])
    def test_scalar_matches_oracle_exhaustive(self, length):
        for rule in range(256):
            for bits in range(1 << length):
                got = step_bits(bits, length, rule)
                assert cells_of(got, length) == brute_step(cells_of(bits, length), rule), (rule, bits)

    def test_scalar_matches_oracle_all_rules_at_13(self):
        rng = np.random.default_rng(13)
        for bits in [0, (1 << 13) - 1] + [int(b) for b in rng.integers(0, 1 << 13, size=30)]:
            for rule in range(256):
                got = step_bits(bits, 13, rule)
                assert cells_of(got, 13) == brute_step(cells_of(bits, 13), rule), (rule, bits)

    @pytest.mark.parametrize("length", list(range(3, 12)) + [13, 63, MAX_LENGTH])
    def test_array_matches_oracle_all_rules(self, length):
        """Every tape up to the table gate (table path), sampled tapes above it (expression)."""
        rng = np.random.default_rng(length)
        if length <= TABLE_MAX_LENGTH:
            tapes = list(range(1 << length))
        else:
            full = (1 << length) - 1
            tapes = [0, full, 1, 1 << (length - 1)] + [int.from_bytes(rng.bytes(13), "little") & full
                                                        for _ in range(8)]
        words = as_words(tapes)
        got = step_bits(words[None, :], length, as_words(range(256))[:, None])
        assert got.shape == (256, len(tapes)) and got.dtype == np.uint64
        # the expression on Python ints, one tape at a time: neither the table nor the word masks
        assert got.tolist() == [[step_bits(bits, length, rule) for bits in tapes] for rule in range(256)]
        cells = [cells_of(bits, length) for bits in tapes]
        weights = [1 << i for i in range(length)]
        for rule in range(256):
            expected = [sum(w * c for w, c in zip(weights, brute_step(tape_cells, rule)))
                        for tape_cells in cells]
            assert got[rule].tolist() == expected, rule

    def test_only_short_tape_arrays_use_a_table(self, monkeypatch):
        looked_up = []
        table = ca._table
        monkeypatch.setattr(ca, "_table", lambda *key: looked_up.append(key) or table(*key))
        step_bits(5, 10, 30)
        step_bits(5, 10, as_words([30, 90]))
        step_bits(as_words([5, 6]), 11, as_words([30, 90]))
        step_bits(as_words([5, 6]), 16, 30)
        assert looked_up == []
        step_bits(as_words([5, 6]), 10, as_words([30, 90]))
        assert looked_up == [(10,)]

    @pytest.mark.parametrize("length", [8, 16])
    def test_broadcast_keeps_shape_and_dtype(self, length):
        rules = as_words([30, 90, 110])[:, None]
        grid = as_words([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]])
        for tapes, rule in ((grid[:1], rules), (grid, rules), (grid, 110)):  # (n, 1) rules, or one int rule
            got = step_bits(tapes, length, rule)
            assert got.shape == (3, 4) and got.dtype == np.uint64
            expected = [[step_bits(int(t), length, int(r)) for t, r in zip(row, rule_row)]
                        for row, rule_row in zip(*np.broadcast_arrays(tapes, rule))]
            assert got.tolist() == expected

    @pytest.mark.parametrize("length", [3, 13, 63, MAX_LENGTH])
    def test_rotation_commutes_with_step(self, length):
        """The tape is periodic: rotating then stepping equals stepping then rotating, up to a full word."""
        full = (1 << length) - 1
        rng = np.random.default_rng(100 + length)
        tapes = [1, full, 1 << (length - 1)] + [int.from_bytes(rng.bytes(8), "little") & full for _ in range(5)]

        def rotate(bits):
            return ((bits << 1) | (bits >> (length - 1))) & full

        rules = as_words(range(256))[:, None]
        stepped = step_bits(as_words(tapes)[None, :], length, rules)
        rotated = step_bits(as_words([rotate(t) for t in tapes])[None, :], length, rules)
        assert rotated.tolist() == [[rotate(b) for b in row] for row in stepped.tolist()]
        for rule in (30, 90, 110):
            assert [step_bits(rotate(t), length, rule) for t in tapes] == [rotate(step_bits(t, length, rule))
                                                                          for t in tapes]

    def test_out_of_range_rule_rejected(self):
        with pytest.raises(DomainError):
            step_bits(5, 4, 256)

    @pytest.mark.parametrize("length", [8, 16, MAX_LENGTH])  # table, expression, expression on full words
    def test_out_of_range_array_rule_rejected(self, length):
        with pytest.raises(DomainError, match=r"rule must be in \[0, 255\], got 300"):
            step_bits(as_words([5, 6])[None, :], length, as_words([[30], [300]]))

    def test_tape_wider_than_its_length_rejected_on_the_table_path(self):
        with pytest.raises(DomainError, match="tape bits out of range for length 8"):
            step_bits(as_words([5, 256]), 8, 30)


class TestTape:
    def test_string_round_trip_and_cell_order(self):
        t = tape("00101")
        assert str(t) == "00101"
        assert t.cells == (0, 0, 1, 0, 1)

    @pytest.mark.parametrize("length", range(3, 14))
    def test_text_form_matches_cells_exhaustive(self, length):
        for bits in range(1 << length):
            text = "".join("1" if (bits >> i) & 1 else "0" for i in range(length))
            assert str(Tape(bits, length)) == text
            assert Tape.from_string(text) == Tape(bits, length)

    def test_minimum_length_enforced(self):
        with pytest.raises(DomainError):
            Tape.from_string("01")
        with pytest.raises(DomainError):
            Tape(0, 2)

    def test_maximum_length_enforced(self):
        assert str(Tape((1 << MAX_LENGTH) - 1, MAX_LENGTH)) == "1" * MAX_LENGTH
        with pytest.raises(DomainError, match=r"tape length must be an integer in \[3, 64\], got 65"):
            Tape(0, MAX_LENGTH + 1)
        with pytest.raises(DomainError, match="got 65"):
            Tape.from_string("0" * (MAX_LENGTH + 1))

    def test_bits_range_enforced(self):
        with pytest.raises(DomainError):
            Tape(8, 3)
        with pytest.raises(DomainError):
            Tape(-1, 3)

    def test_invalid_characters_rejected(self):
        with pytest.raises(DomainError):
            Tape.from_string("01x")
        with pytest.raises(DomainError):
            Tape.from_string("0_1")

    def test_with_flip(self):
        assert str(tape("000").with_flip(1)) == "010"
        with pytest.raises(DomainError):
            tape("000").with_flip(3)

    def test_hashable_value_semantics(self):
        assert tape("0101") == Tape(0b1010, 4)
        assert len({tape("0101"), Tape(0b1010, 4)}) == 1
