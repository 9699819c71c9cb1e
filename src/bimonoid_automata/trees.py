"""Ranked trees, cuts, and weighted tree automata over a strong bimonoid.

Positions are tuples of 1-based child indices, the root being ``()``. Runs
label every position with a state. Cuts are maximal antichains of positions:
the sweep machinery behind the support theorems rewrites a cut either toward
the leaves (expand) or toward the root (merge).
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from .algebra import CostProfile, Semantics, WeightAlgebra, WeightedAutomaton
from .algebra import _configuration, _cost_profile, _Frozen, _images, _init_memo, _is_int, _run_total

Position = Tuple[int, ...]
Cut = Tuple[Position, ...]


class RankedAlphabet:
    """Finite symbol set with a rank (arity) per symbol; some symbol has rank 0."""

    def __init__(self, ranks: dict):
        if not ranks:
            raise ValueError("alphabet must be nonempty")
        for sym, k in ranks.items():
            if not isinstance(sym, str) or not sym:
                raise ValueError(f"symbol {sym!r} must be a nonempty string")
            if not _is_int(k) or k < 0:
                raise ValueError(f"rank of {sym!r} must be a natural number, got {k!r}")
        if all(k != 0 for k in ranks.values()):
            raise ValueError("alphabet needs at least one rank-0 symbol")
        self._ranks = dict(ranks)
        self.symbols = tuple(ranks)

    def rank(self, symbol: str) -> int:
        try:
            return self._ranks[symbol]
        except KeyError:
            raise ValueError(
                f"unknown symbol {symbol!r} (alphabet: {', '.join(self.symbols)})"
            ) from None

    def __contains__(self, symbol):
        return symbol in self._ranks

    def __iter__(self):
        return iter(self.symbols)

    def of_rank(self, k: int) -> tuple:
        return tuple(s for s in self.symbols if self._ranks[s] == k)

    @property
    def max_rank(self) -> int:
        return max(self._ranks.values())

    def to_dict(self) -> dict:
        return dict(self._ranks)

    def __eq__(self, other):
        return isinstance(other, RankedAlphabet) and self._ranks == other._ranks

    def __repr__(self):
        inner = ", ".join(f"{s}:{k}" for s, k in self._ranks.items())
        return f"RankedAlphabet({{{inner}}})"


class AlphabetClass(NamedTuple):
    trivial: bool
    monadic: bool
    string_ranked: bool
    branching: bool


def classify_alphabet(alphabet: RankedAlphabet) -> AlphabetClass:
    ranks = [alphabet.rank(s) for s in alphabet.symbols]
    trivial = all(k == 0 for k in ranks)
    monadic = all(k <= 1 for k in ranks)
    string_ranked = monadic and len(alphabet.of_rank(0)) == 1 and bool(alphabet.of_rank(1))
    return AlphabetClass(trivial, monadic, string_ranked, branching=not monadic)


_SHALLOW = 100  # trees up to this deep compare recursively


class Tree(_Frozen):
    """A term: a symbol with exactly rank-many child trees.

    The hash and the depth are computed once, at construction, from the
    children's, so hashing a tree (a memo lookup) costs O(1) at any depth.
    Equality recurses only on trees at most ``_SHALLOW`` deep and walks an
    explicit stack on deeper ones; ``str`` and ``repr`` always do, so depth
    is unbounded.
    """

    __slots__ = ("symbol", "children", "_hash", "_depth")

    def __init__(self, symbol: str, children: Tuple["Tree", ...] = ()):
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_hash", hash((symbol, children)))
        object.__setattr__(self, "_depth", 1 + max([c._depth for c in children], default=0))

    def __reduce__(self):
        return Tree, (self.symbol, self.children)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._hash != other._hash:
            return False
        if self._depth <= _SHALLOW:
            # comparing the children recurses at most _SHALLOW levels, and
            # is faster than the explicit stack below on small trees
            return self.symbol == other.symbol and self.children == other.children
        a, b, pending = self, other, []
        while True:
            if a is not b:
                if a._hash != b._hash or a.symbol != b.symbol or len(a.children) != len(b.children):
                    return False
                pending.extend(zip(a.children, b.children))
            if not pending:
                return True
            a, b = pending.pop()

    def _render(self, head, sep: str, tail) -> str:
        """``head(u)``, u's children rendered and separated by ``sep``, then
        ``tail(u)``, for every node u, on an explicit stack."""
        parts, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(head(item))
            stack.append(tail(item))
            for i, child in enumerate(reversed(item.children)):
                if i:
                    stack.append(sep)
                stack.append(child)
        return "".join(parts)

    def __str__(self):
        return self._render(
            lambda u: u.symbol + "(" if u.children else u.symbol,
            ",",
            lambda u: ")" if u.children else "",
        )

    def __repr__(self):
        # the dataclass repr, written out: one child tuple has a trailing comma
        return self._render(
            lambda u: f"Tree(symbol={u.symbol!r}, children=(",
            ", ",
            lambda u: ",))" if len(u.children) == 1 else "))",
        )


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9']*|[(),])")


def parse(text: str, alphabet: Optional[RankedAlphabet] = None) -> Tree:
    """Parse a term string like ``sigma(alpha,sigma(alpha,alpha))``.

    Whitespace is insignificant; symbols are identifiers. With an alphabet,
    membership and arity are enforced.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize tree text at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    cursor = 0

    def peek():
        return tokens[cursor] if cursor < len(tokens) else None

    def take(expected=None):
        nonlocal cursor
        if cursor >= len(tokens):
            raise ValueError(f"unexpected end of tree text {text!r}")
        tok = tokens[cursor]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r} in {text!r}")
        cursor += 1
        return tok

    def node(sym, children):
        if alphabet is not None:
            k = alphabet.rank(sym)
            if k != len(children):
                raise ValueError(
                    f"symbol {sym!r} has rank {k} but {len(children)} children in {text!r}"
                )
        return Tree(sym, tuple(children))

    # (symbol, children parsed so far) of each node whose ")" is still to
    # come, innermost last; an explicit stack, so depth is unbounded
    open_nodes: list = []
    while True:
        sym = take()
        if sym in "(),":
            raise ValueError(f"expected a symbol, found {sym!r} in {text!r}")
        if peek() == "(":
            take("(")
            open_nodes.append((sym, []))
            continue
        done = node(sym, [])
        while open_nodes:
            open_nodes[-1][1].append(done)
            if peek() == ",":
                take(",")
                break  # a sibling follows
            take(")")
            done = node(*open_nodes.pop())
        else:
            break  # done is the root
    if cursor != len(tokens):
        raise ValueError(f"trailing input {tokens[cursor:]} in {text!r}")
    return done


def _nodes(t: Tree) -> list:
    """``(position, subtree)`` for every node, positions in lexicographic
    order, so each node comes before its children; an explicit stack keeps
    the depth unbounded."""
    out, stack = [], [((), t)]
    while stack:
        pos, node = stack.pop()
        out.append((pos, node))
        for i in range(len(node.children), 0, -1):
            stack.append((pos + (i,), node.children[i - 1]))
    return out


def positions(t: Tree) -> list:
    """All positions in lexicographic order (root first, then each subtree)."""
    return [pos for pos, _ in _nodes(t)]


def postorder(t: Tree) -> list:
    """All positions in depth-first post-order (children blocks, then root)."""
    # the reverse of a pre-order walk that visits children right to left
    out, stack = [], [((), t)]
    while stack:
        pos, node = stack.pop()
        out.append(pos)
        stack.extend([(pos + (i,), child) for i, child in enumerate(node.children, start=1)])
    out.reverse()
    return out


def subtree_at(t: Tree, pos: Position) -> Tree:
    for i in pos:
        if not 1 <= i <= len(t.children):
            raise ValueError(f"invalid position {pos}")
        t = t.children[i - 1]
    return t


def label_at(t: Tree, pos: Position) -> str:
    return subtree_at(t, pos).symbol


def leaves(t: Tree) -> list:
    """Leaf positions in left-to-right order."""
    return [pos for pos, node in _nodes(t) if not node.children]


def size(t: Tree) -> int:
    n, stack = 0, [t]
    while stack:
        n += 1
        stack.extend(stack.pop().children)
    return n


def is_prefix(p: Position, q: Position) -> bool:
    return len(p) <= len(q) and q[: len(p)] == p


def left_of(p: Position, q: Position) -> bool:
    """Strictly left in the tree: the positions diverge and p takes the
    smaller branch at the divergence point."""
    for a, b in zip(p, q):
        if a != b:
            return a < b
    return False


def enumerate_trees(alphabet: RankedAlphabet, max_size: int) -> Iterator[Tree]:
    """All trees with at most max_size nodes, by size then symbol order."""
    by_size: Dict[int, list] = {}

    def of_size(s):
        if s in by_size:
            return by_size[s]
        found = []
        for sym in alphabet.symbols:
            k = alphabet.rank(sym)
            if k == 0:
                if s == 1:
                    found.append(Tree(sym))
                continue
            if s < k + 1:
                continue
            for parts in _compositions(s - 1, k):
                for combo in itertools.product(*(of_size(p) for p in parts)):
                    found.append(Tree(sym, combo))
        by_size[s] = found
        return found

    if not alphabet.max_rank:  # over nullary symbols alone every tree is one leaf
        max_size = min(max_size, 1)
    for s in range(1, max_size + 1):
        yield from of_size(s)


def _compositions(total: int, parts: int) -> Iterator[tuple]:
    """Ordered compositions of total >= 1 into `parts` positive summands, in
    lexicographic order: the gaps between 0, parts - 1 cut points picked
    from 1..total-1 in order, and total."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple([b - a for a, b in zip(bounds, bounds[1:])])


# --------------------------------------------------------------------------
# Weighted tree automata


class TreeAutomaton(WeightedAutomaton):
    """States, transition weights per (state word, symbol, state), root weights.

    Transitions are stored sparsely: a missing entry means zero. They are
    given as (state_word, symbol, state, weight) quadruples, with states
    given by name, and :meth:`stored_transitions` hands the stored ones back
    in that form, so a rebuild or a conversion filters or maps that stream.
    """

    kind = "tree"

    def __init__(self, algebra: WeightAlgebra, alphabet: RankedAlphabet, states, transitions, root_weights):
        super().__init__(algebra, states)
        self.alphabet = alphabet
        if any(s in alphabet for s in self.states):
            raise ValueError("state names must be disjoint from the alphabet")
        self.root_weights = self._vector(root_weights)
        self._delta: Dict[tuple, dict] = {}
        for sw, sym, q, w in transitions:
            k = self.alphabet.rank(sym)
            word = tuple(self.state_index(p) for p in sw)
            if len(word) != k:
                raise ValueError(
                    f"state word {sw!r} has length {len(word)} but {sym!r} has rank {k}"
                )
            self._delta.setdefault((word, sym), {})[self.state_index(q)] = w
        # per symbol: (state word, ((target, weight), ...)) in state-word order,
        # targets ascending, so evaluation never rescans _delta
        self._by_symbol: Dict[str, list] = {}
        for sw, sym in sorted(self._delta, key=lambda key: key[0]):
            row = tuple(sorted(self._delta[(sw, sym)].items()))
            self._by_symbol.setdefault(sym, []).append((sw, row))

    def delta(self, state_word: tuple, symbol: str, state: int):
        row = self._delta.get((tuple(state_word), symbol))
        if row is None:
            return self.algebra.zero
        return row.get(state, self.algebra.zero)

    def stored_transitions(self) -> Iterator[tuple]:
        """(state_word, symbol, state, weight) for every stored transition,
        states by name: by symbol name, then state word, then target, each
        in state order."""
        states = self.states
        for sym in sorted(self._by_symbol):
            for sw, row in self._by_symbol[sym]:
                sw = tuple([states[p] for p in sw])
                for q, w in row:
                    yield sw, sym, states[q], w

    def check_tree(self, t: Tree) -> Tree:
        """``t``, once every distinct subtree is checked against the ranks."""
        _bottom_up(self, t, {}, lambda symbol, children: None)
        return t

    def with_algebra(self, algebra: WeightAlgebra) -> "TreeAutomaton":
        return TreeAutomaton(
            algebra, self.alphabet, self.states, self.stored_transitions(), self.root_weights
        )

    def __repr__(self):
        return (
            f"<TreeAutomaton |Q|={len(self.states)} alphabet={self.alphabet.to_dict()} "
            f"over {self.algebra.name}>"
        )


def _normalize_run(automaton: TreeAutomaton, pos: list, run) -> dict:
    """``run`` with state indices, checked to label exactly the positions
    ``pos`` of its tree."""
    mapped = {p: automaton._run_state(q) for p, q in run.items()}
    if set(mapped) != set(pos):
        raise ValueError("run domain does not match the tree's position set")
    return mapped


def enumerate_runs(automaton: TreeAutomaton, t: Tree) -> Iterator[dict]:
    """All state labelings: positions in lexicographic order, states odometer-style."""
    pos = positions(automaton.check_tree(t))
    for combo in itertools.product(range(len(automaton.states)), repeat=len(pos)):
        yield dict(zip(pos, combo))


def run_weight(automaton: TreeAutomaton, t: Tree, run) -> object:
    """Inductive weight of a run: child weights multiplied, then the local
    transition weight (empty products are one)."""
    checked = automaton.check_tree(t)
    pos = positions(checked)
    run = _normalize_run(automaton, pos, run)
    return _run_weight(automaton, _flatten(checked), [run[p] for p in pos])


def _flatten(t: Tree) -> list:
    """``(symbol, child indices)`` for every node, in pre-order (the order
    of :func:`positions`), each index pointing into the list; an explicit
    stack keeps the depth unbounded."""
    nodes: list = []
    stack = [(t, None)]
    while stack:
        node, parent = stack.pop()
        if parent is not None:
            nodes[parent][1].append(len(nodes))
        stack.extend([(c, len(nodes)) for c in reversed(node.children)])
        nodes.append((node.symbol, []))
    return nodes


def _run_weight(automaton: TreeAutomaton, nodes: list, states) -> object:
    """The weight of the run that labels ``nodes[i]`` (see :func:`_flatten`)
    with state index ``states[i]``. In reverse pre-order every child comes
    before its parent, whose weight is its children's, first to last, times
    its transition weight."""
    alg, delta = automaton.algebra, automaton.delta
    weights: list = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        symbol, children = nodes[i]
        factors = [weights[c] for c in children]
        factors.append(delta(tuple([states[c] for c in children]), symbol, states[i]))
        weights[i] = alg.product(factors)
    return weights[0]


def _local_weight(automaton: TreeAutomaton, t: Tree, run: dict, u: Position) -> object:
    """The transition weight the run takes at position ``u``: from the
    states of u's children to the state of u, on u's symbol."""
    node = subtree_at(t, u)
    child_states = tuple(run[u + (i,)] for i in range(1, len(node.children) + 1))
    return automaton.delta(child_states, node.symbol, run[u])


def run_weight_postorder(automaton: TreeAutomaton, t: Tree, run) -> object:
    """The same run weight written as one flat product of local transition
    weights in post-order; computed independently of run_weight."""
    checked = automaton.check_tree(t)
    run = _normalize_run(automaton, positions(checked), run)
    return automaton.algebra.product([_local_weight(automaton, checked, run, u) for u in postorder(checked)])


def run_semantics(automaton: TreeAutomaton, t: Tree, prune: bool = False):
    """Sum of run weight times root weight over all runs.

    Default: full odometer enumeration (cost baseline); the tree is checked
    and flattened once per call, not once per run. With ``prune`` the
    runs are counted instead of listed: bottom up, each subtree keeps, per
    state, how many of its runs have each nonzero weight, and a node combines
    its children's counts (counts multiply). Same value, because zero
    annihilates products and add is commutative and associative.
    """
    alg = automaton.algebra
    if not prune:
        nodes = _flatten(automaton.check_tree(t))
        root = automaton.root_weights
        runs = itertools.product(range(len(automaton.states)), repeat=len(nodes))
        return alg.sum(alg.mul(_run_weight(automaton, nodes, run), root[run[0]]) for run in runs)
    runs = _bottom_up(automaton, t, {}, lambda symbol, runs: _run_node(automaton, symbol, runs))
    return _run_total(alg, runs, automaton.root_weights)


def _bottom_up(automaton: TreeAutomaton, t: Tree, memo: dict, step):
    """``memo[t]``, after filling ``memo[u] = step(u's symbol, tuple of
    memo[c] for c in u.children)`` for every subtree u of t not yet in it,
    children first. Ranks are checked on the way; an explicit stack keeps
    the depth unbounded."""
    stack = [(t, False)]
    while stack:
        node, children_done = stack.pop()
        if not children_done:
            # look a node up once on the way down: a lookup that meets an
            # equal but distinct subtree compares the two in full
            if node not in memo:
                stack.append((node, True))
                stack.extend([(c, False) for c in node.children if c not in memo])
            continue
        k = automaton.alphabet.rank(node.symbol)
        if k != len(node.children):
            raise ValueError(
                f"symbol {node.symbol!r} has rank {k} but {len(node.children)} children"
            )
        memo[node] = step(node.symbol, tuple([memo[c] for c in node.children]))
    return memo[t]


def _init_node(automaton: TreeAutomaton, symbol: str, child_vecs: tuple) -> tuple:
    """A node's evolved vector: for each stored transition of its symbol, the
    children's entries multiplied, times the transition weight, summed per
    target."""
    alg = automaton.algebra
    sums: list = [None] * len(automaton.states)
    for sw, row in automaton._by_symbol.get(symbol, ()):
        prod = None
        for vec, qi in zip(child_vecs, sw):
            v = vec[qi]
            prod = v if prod is None else alg.mul(prod, v)
        for q, w in row:
            term = w if prod is None else alg.mul(prod, w)
            sums[q] = term if sums[q] is None else alg.add(sums[q], term)
    return tuple(alg.zero if s is None else s for s in sums)


def _run_node(automaton: TreeAutomaton, symbol: str, child_runs: Sequence) -> list:
    """A node's counted runs: for each stored transition of its symbol, every
    combination of child run weights multiplied (their counts multiply),
    times the transition weight; zero products are dropped as soon as they
    appear."""
    mul, zero = automaton.algebra.mul, automaton.algebra.zero
    out: list = [{} for _ in automaton.states]
    for sw, row in automaton._by_symbol.get(symbol, ()):
        partial = {None: 1}  # product of the children's weights so far -> count
        for runs, qi in zip(child_runs, sw):
            grown: dict = {}
            for p, count in partial.items():
                for w, c in runs[qi].items():
                    x = w if p is None else mul(p, w)
                    if x != zero:
                        grown[x] = grown.get(x, 0) + count * c
            partial = grown
        for p, count in partial.items():
            for q, w in row:
                x = w if p is None else mul(p, w)
                if x != zero:
                    target = out[q]
                    target[x] = target.get(x, 0) + count
    return out


def _init_nodes(automaton: TreeAutomaton):
    """``step(symbol, child vectors)``: :func:`_init_node`, memoised per
    (symbol, child vectors) on any carrier (see ``algebra._init_memo``), so
    distinct subtrees that reach the same vectors share one step."""
    return _init_memo(
        automaton.algebra, lambda symbol, vecs: _init_node(automaton, symbol, vecs)
    )


def state_vector(automaton: TreeAutomaton, t: Tree) -> tuple:
    """Bottom-up evolved weight vector (the initial-algebra recursion).

    Only stored transitions are visited; absent entries would contribute a
    zero factor and change nothing. Repeated subtrees are evaluated once.
    Each (symbol, child vectors) step is also computed once per call, so
    distinct subtrees that reach the same vectors share it, on a finite
    carrier and on an infinite one whose weights reach finitely many vectors
    (NatPlusMin). Where vectors stop repeating the memo gives up after
    ``algebra.MEMO_MISS_LIMIT`` misses in a row; from then on, and under the
    counting wrapper throughout, every distinct subtree does its own step.
    """
    return _bottom_up(automaton, t, {}, _init_nodes(automaton))


def initial_semantics(automaton: TreeAutomaton, t: Tree):
    alg = automaton.algebra
    return alg.sum(map(alg.mul, state_vector(automaton, t), automaton.root_weights))


def explore(automaton: TreeAutomaton, trees: Iterable[Tree], cycle: Optional[tuple] = None) -> Iterator[tuple]:
    """``(index, tree, run value, init value)`` for the first of ``trees``
    to reach each configuration (``algebra._configuration`` under
    ``cycle``). Children first, each subtree's configuration is interned
    under its symbol and its children's configuration ids, so a node step
    (init memoised as in :func:`state_vector`) runs once per distinct
    (symbol, child ids), and each configuration's values are folded once.
    Run values are the pruned ones.
    """
    alg, root = automaton.algebra, automaton.root_weights
    init_step = _init_nodes(automaton)
    ids: dict = {}  # configuration -> id
    reached: list = []  # id -> (vector, counted runs)
    interned: dict = {}  # (symbol, child ids) -> id

    def step(symbol, children):
        key = (symbol, children)
        if key not in interned:
            vec = init_step(symbol, tuple([reached[c][0] for c in children]))
            runs = _run_node(automaton, symbol, [reached[c][1] for c in children])
            interned[key] = ids.setdefault(_configuration(vec, runs, cycle), len(ids))
            if interned[key] == len(reached):
                reached.append((vec, runs))
        return interned[key]

    memo: dict = {}
    yielded: set = set()
    for index, t in enumerate(trees):
        c = _bottom_up(automaton, t, memo, step)
        if c not in yielded:
            yielded.add(c)
            vec, runs = reached[c]
            yield index, t, _run_total(alg, runs, root), alg.sum(map(alg.mul, vec, root))


def evaluate(automaton: TreeAutomaton, t: Tree, semantics: Semantics, prune: bool = False):
    if semantics is Semantics.RUN:
        return run_semantics(automaton, t, prune=prune)
    return initial_semantics(automaton, t)


def in_support(automaton: TreeAutomaton, t: Tree, semantics: Semantics) -> bool:
    return evaluate(automaton, t, semantics, prune=True) != automaton.algebra.zero


def images_up_to(automaton: TreeAutomaton, max_size: int) -> dict:
    """Exact value sets of both semantics over all trees with <= max_size
    nodes (deterministic enumeration), keyed by :class:`Semantics`, each in
    first-seen order; one :func:`explore` walk with exact counts."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    return _images(explore(automaton, enumerate_trees(automaton.alphabet, max_size)))


# --------------------------------------------------------------------------
# Cuts: maximal antichains and the two rewrite directions


def validate_cut(t: Tree, cut: Cut) -> Cut:
    """Check the three cut conditions: independent, ordered, complete."""
    cut = tuple(tuple(p) for p in cut)
    if not cut:
        raise ValueError("a cut is nonempty")
    pos = set(positions(t))
    for p in cut:
        if p not in pos:
            raise ValueError(f"position {p} is not in the tree")
    for i, p in enumerate(cut):
        for q in cut[i + 1 :]:
            if is_prefix(p, q) or is_prefix(q, p):
                raise ValueError(f"cut positions {p} and {q} are not independent")
    for p, q in zip(cut, cut[1:]):
        if not left_of(p, q):
            raise ValueError(f"cut positions {p}, {q} are not in left-to-right order")
    for leaf in leaves(t):
        if not any(is_prefix(p, leaf) for p in cut):
            raise ValueError(f"cut does not cover leaf {leaf}")
    return cut


def leaves_cut(t: Tree) -> Cut:
    return tuple(leaves(t))


def all_cuts(t: Tree) -> list:
    """Every cut through the tree (finite; includes the root cut and leaves cut)."""
    # in reverse lexicographic order every subtree leaves its cuts on the
    # stack, so a node finds its children's cuts on top, the first first
    cuts: list = []
    for pos, node in reversed(_nodes(t)):
        out = [(pos,)]
        if node.children:
            child_cuts = [cuts.pop() for _ in node.children]
            out.extend(
                tuple(itertools.chain.from_iterable(combo))
                for combo in itertools.product(*child_cuts)
            )
        cuts.append(out)
    return cuts.pop()


def expand(t: Tree, cut: Cut, i: int) -> Cut:
    """One step toward the leaves: replace cut[i] by its children."""
    cut = validate_cut(t, cut)
    if not 0 <= i < len(cut):
        raise ValueError(f"cut index {i} out of range")
    w = cut[i]
    k = len(subtree_at(t, w).children)
    if k == 0:
        raise ValueError(f"position {w} is a leaf and cannot be expanded")
    return cut[:i] + tuple(w + (j,) for j in range(1, k + 1)) + cut[i + 1 :]


def _children_block(t: Tree, w: Position) -> Optional[Cut]:
    """The positions of all children of w's parent, in order, when ``w`` is
    a first child; None otherwise."""
    if not w or w[-1] != 1:
        return None
    parent = w[:-1]
    return tuple(parent + (j,) for j in range(1, len(subtree_at(t, parent).children) + 1))


def merge(t: Tree, cut: Cut, i: int) -> Cut:
    """One step toward the root: replace the full children block starting at
    cut[i] by the common parent."""
    cut = validate_cut(t, cut)
    if not 0 <= i < len(cut):
        raise ValueError(f"cut index {i} out of range")
    w = cut[i]
    block = _children_block(t, w)
    if block is None:
        raise ValueError(f"position {w} does not start a children block")
    if cut[i : i + len(block)] != block:
        raise ValueError(
            f"cut positions at index {i} are not exactly the children of {w[:-1]}"
        )
    return cut[:i] + (w[:-1],) + cut[i + len(block) :]


def expandable_indices(t: Tree, cut: Cut) -> list:
    return [i for i, w in enumerate(validate_cut(t, cut)) if subtree_at(t, w).children]


def mergeable_indices(t: Tree, cut: Cut) -> list:
    cut = validate_cut(t, cut)
    blocks = [_children_block(t, w) for w in cut]
    return [i for i, block in enumerate(blocks) if block is not None and cut[i : i + len(block)] == block]


def is_normal_form(t: Tree, cut: Cut, relation: str) -> bool:
    """No rewrite step applies: relation 'expand' (toward leaves) or 'merge'."""
    if relation == "expand":
        return not expandable_indices(t, cut)
    if relation == "merge":
        return not mergeable_indices(t, cut)
    raise ValueError("relation must be 'expand' or 'merge'")


def cut_partial_product(automaton: TreeAutomaton, t: Tree, run, cut: Cut):
    """The sweep invariant: a post-order product over positions not strictly
    below the cut, taking the evolved-vector entry on cut positions and the
    local transition weight elsewhere, times the root weight.

    At the leaves cut this equals run_weight * root weight; at the root cut it
    equals h(t)_{run(root)} * root weight.
    """
    alg = automaton.algebra
    checked = automaton.check_tree(t)
    run = _normalize_run(automaton, positions(checked), run)
    cut = validate_cut(checked, cut)
    cutset = set(cut)
    included = [
        u
        for u in postorder(checked)
        if not any(len(c) < len(u) and is_prefix(c, u) for c in cutset)
    ]
    h_memo: dict = {}

    def h_at(pos):
        if pos not in h_memo:
            h_memo[pos] = state_vector(automaton, subtree_at(checked, pos))
        return h_memo[pos]

    factors = [
        h_at(u)[run[u]] if u in cutset else _local_weight(automaton, checked, run, u)
        for u in included
    ]
    return alg.mul(alg.product(factors), automaton.root_weights[run[()]])


# --------------------------------------------------------------------------
# The branching probe automaton and nullary restriction


def _probe_symbols(alphabet: RankedAlphabet) -> tuple:
    """The probe's (sigma, alpha): the first symbol of rank >= 2 and the
    first nullary symbol."""
    branching = [s for s in alphabet.symbols if alphabet.rank(s) >= 2]
    if not branching:
        raise ValueError("alphabet has no symbol of rank >= 2")
    return branching[0], alphabet.of_rank(0)[0]


def branching_probe_automaton(algebra: WeightAlgebra, a, b, bp, c, alphabet: RankedAlphabet) -> TreeAutomaton:
    """Six-state automaton separating the two semantics over a branching alphabet.

    On the doubled tree sigma(alpha,...,alpha,sigma(alpha,...,alpha)) its
    initial-algebra value is a*(b+b')*c while the run value is a*b*c + a*b'*c.
    The two b-seeded states are distinct even when b equals b'. Sigma and
    alpha are as in :func:`doubled_probe_tree`.
    """
    sigma, alpha = _probe_symbols(alphabet)
    k = alphabet.rank(sigma)
    one = algebra.one
    states = ("seed_a", "seed_b1", "seed_b2", "unit", "q1", "q2")
    quads = [
        ((), alpha, "seed_a", a),
        ((), alpha, "seed_b1", b),
        ((), alpha, "seed_b2", bp),
        ((), alpha, "unit", one),
        (("seed_b1",) + ("unit",) * (k - 1), sigma, "q1", one),
        (("seed_b2",) + ("unit",) * (k - 1), sigma, "q1", one),
        (("seed_a",) + ("unit",) * (k - 2) + ("q1",), sigma, "q2", one),
    ]
    final = {"q2": c}
    return TreeAutomaton(algebra, alphabet, states, quads, final)


def doubled_probe_tree(alphabet: RankedAlphabet) -> Tree:
    """sigma(alpha,...,alpha,sigma(alpha,...,alpha)): the input the probe
    singles out, with sigma the alphabet's first symbol of rank >= 2 and
    alpha its first nullary symbol."""
    sigma, alpha = _probe_symbols(alphabet)
    k = alphabet.rank(sigma)
    inner = Tree(sigma, (Tree(alpha),) * k)
    return Tree(sigma, (Tree(alpha),) * (k - 1) + (inner,))


def restrict_to_nullary(automaton: TreeAutomaton, alpha: str) -> TreeAutomaton:
    """Shrink a monadic non-trivial automaton to the alphabet {alpha} + unary part.

    States and all retained weights are unchanged, so on trees over the
    restricted alphabet both semantics agree with the original automaton's.
    """
    cls = classify_alphabet(automaton.alphabet)
    if not cls.monadic or cls.trivial:
        raise ValueError("restriction needs a monadic, non-trivial alphabet")
    if alpha not in automaton.alphabet or automaton.alphabet.rank(alpha) != 0:
        raise ValueError(f"{alpha!r} is not a nullary symbol of the alphabet")
    ranks = {alpha: 0}
    ranks.update({s: 1 for s in automaton.alphabet.of_rank(1)})
    restricted = RankedAlphabet(ranks)
    quads = [tr for tr in automaton.stored_transitions() if tr[1] in restricted]
    return TreeAutomaton(
        automaton.algebra, restricted, automaton.states, quads, automaton.root_weights
    )


def tree_init_cost_bound(n_states: int, max_rank: int, tree_size: int) -> int:
    """Linear upper bound on total operations of the bottom-up recursion."""
    return (max_rank + 5) * n_states ** (max_rank + 1) * tree_size


def cost_profile(automaton: TreeAutomaton, t: Tree) -> CostProfile:
    """Evaluate both semantics under a counting wrapper and report totals next
    to the number of runs enumerated and the init recursion's linear bound."""
    t = automaton.check_tree(t)
    n_states, n = len(automaton.states), size(t)
    bound = tree_init_cost_bound(n_states, automaton.alphabet.max_rank, n)
    predicted = {"runs_enumerated": n_states ** n, "init_ops_bound": bound}
    return _cost_profile(automaton, t, evaluate, str(t), n, predicted)
