"""Elementary cellular-automaton core: rule tables and exact tape updates.

Rules are integers in [0, 255] under the standard Wolfram numbering: the
output for neighborhood ``(left, center, right)`` is bit ``4*left + 2*center
+ right`` of the rule's binary expansion. Tapes are periodic (wrap-around)
binary vectors of ``MIN_LENGTH`` (3) to ``MAX_LENGTH`` (64) cells; cell 0 is
the leftmost cell and neighborhoods are read ``(left, center, right)``.

Tapes are stored as plain integers (cell ``i`` is bit ``i``), so any tape
fits one ``uint64`` word. One step is a bit-parallel expression over the
tape word and its two rotations, so the same code steps a single Python-int
tape or ``uint64`` arrays of tapes and rules broadcast against each other
(see :func:`as_words`); the planners and the belief layer step every rollout
or hypothesis in one call. That expression is the only definition of the
dynamics. Tape arrays of at most ``TABLE_MAX_LENGTH`` (10) cells are stepped
by one gather from a transition table instead: every rule's step of every
tape of that length, shape ``(256, 2**length)``, which the expression builds
in one vectorized call the first time a length is stepped and which is then
kept for the life of the process (0.5 MB at 8 cells, 2 MB at 10). Python-int
tapes and longer tapes run the expression on every call. All functions here
are pure; ``Tape`` values are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "MAX_LENGTH",
    "MIN_LENGTH",
    "TABLE_MAX_LENGTH",
    "Tape",
    "as_words",
    "decode_rule",
    "step",
    "step_bits",
]

MIN_LENGTH = 3  # a neighborhood needs three cells
MAX_LENGTH = 64  # a tape is one uint64 word
TABLE_MAX_LENGTH = 10  # a transition table is 256 x 2**length uint64 words: 2 MB at 10 cells


@lru_cache(maxsize=512)
def decode_rule(rule: int) -> tuple[int, ...]:
    """Rule table for ``rule``: entry ``4*left + 2*center + right`` is the output bit."""
    if not isinstance(rule, int) or isinstance(rule, bool):
        raise DomainError(f"rule must be an integer, got {rule!r}")
    if not 0 <= rule <= 255:
        raise DomainError(f"rule must be in [0, 255], got {rule}")
    return tuple((rule >> k) & 1 for k in range(8))


@dataclass(frozen=True)
class Tape:
    """Immutable binary tape; cell ``i`` is bit ``i`` of ``bits``."""

    bits: int
    length: int

    def __post_init__(self) -> None:
        if not isinstance(self.length, int) or not MIN_LENGTH <= self.length <= MAX_LENGTH:
            raise DomainError(f"tape length must be an integer in [{MIN_LENGTH}, {MAX_LENGTH}], got {self.length!r}")
        if not isinstance(self.bits, int) or not 0 <= self.bits < (1 << self.length):
            raise DomainError(f"tape bits {self.bits!r} out of range for length {self.length}")

    @classmethod
    def from_string(cls, text: str) -> "Tape":
        """Parse the '0'/'1' text form; character 0 is cell 0."""
        if not text or text.strip("01"):
            raise DomainError(f"tape string must be nonempty over '0'/'1', got {text!r}")
        return cls(int(text[::-1], 2), len(text))

    @classmethod
    def from_cells(cls, cells) -> "Tape":
        cells = list(cells)
        if any(c not in (0, 1) for c in cells):
            raise DomainError(f"cells must be 0/1, got {cells!r}")
        return cls(sum(c << i for i, c in enumerate(cells)), len(cells))

    @property
    def cells(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.length))

    def with_flip(self, i: int) -> "Tape":
        if not 0 <= i < self.length:
            raise DomainError(f"flip index {i} out of range for length {self.length}")
        return Tape(self.bits ^ (1 << i), self.length)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b")[::-1]


# Rule bit k as an all-ones (-1) or all-zeros word: the mask of minterm k = 4*left + 2*center + right.
_RULE_MASKS = tuple(tuple(-((rule >> k) & 1) for k in range(8)) for rule in range(256))
# The same masks as uint64 words, minterm k along axis 0 and rule along axis 1, so that
# ``_WORD_MASKS[:, rule]`` unpacks into the eight masks of an array of rules.
_WORD_MASKS = np.array(_RULE_MASKS).T.astype(np.uint64)
_WORD_MASKS.flags.writeable = False


def step_bits(bits, length: int, rule):
    """One synchronous update of bit-packed periodic tapes.

    ``bits`` and ``rule`` are Python ints, or ``uint64`` arrays from
    :func:`as_words` that broadcast against each other (say rollouts along
    one axis and rules along the other). A tape array of at most
    :data:`TABLE_MAX_LENGTH` cells is looked up in the transition table of
    its length; anything else is computed by the bit-parallel expression.
    Either way the result has the broadcast shape, and a rule outside
    [0, 255] raises :class:`DomainError`.
    """
    if isinstance(rule, int):
        decode_rule(rule)  # range check
        if isinstance(bits, int):  # the env's one-tape step, kept free of the array checks below
            return _step_words(bits, length, _RULE_MASKS[rule])
    if isinstance(bits, np.ndarray) and length <= TABLE_MAX_LENGTH:
        try:
            return _table(length)[rule, bits]
        except IndexError:  # a rule above 255, or a tape of more than ``length`` cells
            if not isinstance(rule, int):
                _check_rule_array(rule)
            raise DomainError(f"tape bits out of range for length {length}, got {int(bits.max())}") from None
    if not isinstance(rule, int):
        _check_rule_array(rule)
    return _step_words(bits, length, _WORD_MASKS[:, rule])


def _check_rule_array(rule) -> None:
    if rule.size and rule.max() > 255:
        raise DomainError(f"rule must be in [0, 255], got {rule.max()}")


@lru_cache(maxsize=None)
def _table(length: int) -> np.ndarray:
    """Every rule's step of every tape of ``length`` cells: entry ``[rule, bits]``, from one expression call."""
    tapes = np.arange(1 << length, dtype=np.uint64)
    table = _step_words(tapes, length, _WORD_MASKS[:, :, None])
    table.flags.writeable = False
    return table


def _step_words(bits, length: int, masks):
    """The bit-parallel step: the OR of the 8 neighborhood minterms, each masked by its rule bit.

    ``masks`` are the rule's eight masks (see ``_RULE_MASKS``), computed on
    whole words: the tape and its two periodic neighbor rotations.
    """
    m0, m1, m2, m3, m4, m5, m6, m7 = masks
    left = (bits << 1) | (bits >> (length - 1))
    right = (bits >> 1) | ((bits & 1) << (length - 1))
    # The masked minterms summed one neighbor at a time (Shannon expansion):
    # x ^ ((x ^ y) & w) takes y's bit where w is set and x's where it is clear;
    # lcXY is the output where (left, center) = (X, Y), lX where left = X.
    lc00 = m0 ^ ((m0 ^ m1) & right)
    lc01 = m2 ^ ((m2 ^ m3) & right)
    lc10 = m4 ^ ((m4 ^ m5) & right)
    lc11 = m6 ^ ((m6 ^ m7) & right)
    l0 = lc00 ^ ((lc00 ^ lc01) & bits)
    l1 = lc10 ^ ((lc10 ^ lc11) & bits)
    return (l0 ^ ((l0 ^ l1) & left)) & ((1 << length) - 1)


def as_words(values) -> np.ndarray:
    """Tapes (or rules) as the ``uint64`` array :func:`step_bits` broadcasts over."""
    return np.array(values, dtype=np.uint64)


def step(tape: Tape, rule: int) -> Tape:
    """Apply ``rule`` to every neighborhood of ``tape`` simultaneously."""
    return Tape(step_bits(tape.bits, tape.length, rule), tape.length)
