"""Bounds, trial counts and seeding of the theorem checks.

Kept apart from ``harness``, which loads every layer, so that the CLI can
read the defaults of ``check`` and ``image`` for any command without loading
the semantics layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .algebra import WeightAlgebra
    from .trees import RankedAlphabet

DEFAULT_WORD_ALPHABET = ("a", "b")
DEFAULT_TREE_ALPHABET = {"alpha": 0, "sigma": 2}


@dataclass
class TheoremCheckConfig:
    """Bounds, trial counts and seeding for one theorem check."""

    algebra: WeightAlgebra
    word_alphabet: tuple = DEFAULT_WORD_ALPHABET
    tree_alphabet: Optional[RankedAlphabet] = None
    max_word_len: int = 4
    max_tree_size: int = 7
    num_automata: int = 100
    max_states: int = 3
    seed: int = 42

    def __post_init__(self):
        if self.tree_alphabet is None:
            from .trees import RankedAlphabet

            self.tree_alphabet = RankedAlphabet(dict(DEFAULT_TREE_ALPHABET))
        if min(self.max_word_len, self.max_tree_size, self.num_automata, self.max_states) < 1:
            raise ValueError("bounds and trial counts must be >= 1")
