"""Bounds, trial counts and seeding of the theorem checks.

:class:`TheoremCheckConfig` holds every default of ``bimaut check``: the
CLI passes on only the options given. It is kept apart from ``harness``,
which loads every layer, so that the CLI can read the two bounds of
``image`` from it without loading the semantics layers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .algebra import WeightAlgebra
    from .trees import RankedAlphabet


class TheoremCheckConfig:
    """Bounds, trial counts and seeding for one theorem check. The class
    attributes hold the defaults, and the CLI reads ``image``'s two bounds
    from them without an instance."""

    word_alphabet = ("a", "b")
    max_word_len = 4
    max_tree_size = 7
    num_automata = 100
    max_states = 3
    seed = 42

    def __init__(self, algebra: WeightAlgebra, word_alphabet: tuple = word_alphabet,
                 tree_alphabet: Optional[RankedAlphabet] = None, max_word_len: int = max_word_len,
                 max_tree_size: int = max_tree_size, num_automata: int = num_automata,
                 max_states: int = max_states, seed: int = seed):
        if tree_alphabet is None:
            from .trees import RankedAlphabet

            tree_alphabet = RankedAlphabet({"alpha": 0, "sigma": 2})
        if min(max_word_len, max_tree_size, num_automata, max_states) < 1:
            raise ValueError("bounds and trial counts must be >= 1")
        if not word_alphabet:
            raise ValueError("the word alphabet must be nonempty")
        # the fields in parameter order, which __eq__ and __repr__ read
        self.algebra = algebra
        self.word_alphabet = word_alphabet
        self.tree_alphabet = tree_alphabet
        self.max_word_len = max_word_len
        self.max_tree_size = max_tree_size
        self.num_automata = num_automata
        self.max_states = max_states
        self.seed = seed

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return f"TheoremCheckConfig({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"
