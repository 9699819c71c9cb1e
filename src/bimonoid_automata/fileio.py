"""JSON file formats for algebras and automata, and nothing else: the text
of an input is read by the module of its structure (``words.parse``,
``trees.parse``). Files are read as UTF-8, as RFC 8259 requires of JSON.
Every defect in a file, bytes that are not UTF-8 included, is a
:class:`FileFormatError` that names the file. ``load_algebra`` takes a file
path or a builtin name.

Algebra file: ``names`` (array), ``add``/``mul`` (n x n arrays of names),
``zero``/``one`` (names). Automaton file: ``algebra`` (builtin name or inline
algebra object), ``alphabet`` (array of symbols for word automata, mapping
symbol -> rank for tree automata), ``states`` (strings or integers),
``initial``/``final`` or ``final`` alone for trees (mappings state -> element
label, keyed by the state's name as text; omissions mean zero),
``transitions`` (array of {from, symbol, to, weight}; omissions mean zero;
``from`` is a state name for words, an array of state names for trees).
"""

from __future__ import annotations

import json
import os

from .algebra import FiniteTableAlgebra, MalformedTableError, WeightAlgebra, _is_int, builtin, validate_axioms


class FileFormatError(ValueError):
    def __init__(self, source, message):
        super().__init__(f"{source}: {message}")
        self.source = source


def _expect(ok: bool, source, message: str):
    if not ok:
        raise FileFormatError(source, message)


def _require(obj, key, source):
    if key not in obj:
        raise FileFormatError(source, f"missing key {key!r}")
    return obj[key]


def _is_state(value) -> bool:
    return isinstance(value, str) or _is_int(value)


_MAX_NESTING = 100  # levels of arrays and objects; the formats nest at most 6


def _read_json(path: str, kind: str):
    """The JSON value in the ``kind`` file at ``path``; one nested more than
    ``_MAX_NESTING`` levels deep is refused, at any depth of the caller's stack."""
    try:
        with open(path, encoding="utf-8") as fh:  # RFC 8259: JSON text is UTF-8
            text = fh.read()
    except OSError as exc:
        raise FileFormatError(path, f"cannot read {kind} file: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise FileFormatError(path, f"{kind} file is not UTF-8 text") from None
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(path, f"invalid JSON at line {exc.lineno}") from None
    except ValueError:  # an integer longer than sys.get_int_max_str_digits()
        raise FileFormatError(path, "invalid JSON: a number has too many digits") from None
    except RecursionError:  # the parser ran out of stack first
        raise FileFormatError(path, "JSON nested too deeply") from None
    level = [value]
    for _ in range(_MAX_NESTING + 1):  # walked level by level, without recursion
        level = [x for x in level if isinstance(x, (list, dict))]
        if not level:
            return value
        level = [v for x in level for v in (x.values() if isinstance(x, dict) else x)]
    raise FileFormatError(path, "JSON nested too deeply")


def algebra_from_dict(obj: dict, source: str = "<algebra>", allow_invalid: bool = False) -> FiniteTableAlgebra:
    _expect(isinstance(obj, dict), source, "an algebra is a JSON object")
    names = _require(obj, "names", source)
    add_names = _require(obj, "add", source)
    mul_names = _require(obj, "mul", source)
    zero = _require(obj, "zero", source)
    one = _require(obj, "one", source)
    name = obj.get("name", source)
    _expect(isinstance(name, str), source, "'name' must be a string")
    _expect(isinstance(names, list) and all(isinstance(x, str) for x in names),
            source, "'names' must be an array of element names")
    for label, rows in (("add", add_names), ("mul", mul_names)):
        _expect(isinstance(rows, list) and all(isinstance(row, list) for row in rows),
                source, f"{label!r} must be an array of rows")
    index = {x: i for i, x in enumerate(names)}

    def table(rows, label):
        out = []
        for i, row in enumerate(rows):
            for v in row:
                _expect(isinstance(v, str) and v in index,
                        source, f"{label} table row {i} uses unknown element {v!r}")
            out.append([index[v] for v in row])
        return out

    for x in (zero, one):
        _expect(isinstance(x, str) and x in index, source, f"unknown element {x!r} for zero/one")
    try:
        alg = FiniteTableAlgebra(
            name, names, table(add_names, "add"), table(mul_names, "mul"), index[zero], index[one]
        )
    except MalformedTableError as exc:
        raise FileFormatError(source, str(exc)) from None
    if not allow_invalid:
        report = validate_axioms(alg)
        if not report.ok:
            first = report.failures()[0]
            raise FileFormatError(
                source,
                f"axioms fail: {first.axiom} at ({', '.join(first.witness_labels)})"
                " (use --allow-invalid to load anyway)",
            )
    return alg


def algebra_to_dict(alg: FiniteTableAlgebra) -> dict:
    return {
        "name": alg.name,
        "names": list(alg.names),
        "add": [[alg.names[v] for v in row] for row in alg.add_table],
        "mul": [[alg.names[v] for v in row] for row in alg.mul_table],
        "zero": alg.names[alg.zero],
        "one": alg.names[alg.one],
    }


def load_algebra(source: str, allow_invalid: bool = False) -> WeightAlgebra:
    """Resolve an algebra from a JSON file path or a builtin name; an existing
    file wins over a builtin of the same name."""
    if not os.path.isfile(source):
        try:
            return builtin(source)
        except LookupError as builtin_error:
            raise FileFormatError(
                source, f"not a readable algebra file, and {builtin_error}"
            ) from None
    return algebra_from_dict(_read_json(source, "algebra"), source=source, allow_invalid=allow_invalid)


def automaton_from_dict(obj: dict, source: str = "<automaton>", allow_invalid: bool = False):
    _expect(isinstance(obj, dict), source, "an automaton is a JSON object")
    algebra = _require(obj, "algebra", source)
    _expect(isinstance(algebra, (str, dict)), source,
            "'algebra' must be a builtin name or an algebra object")
    if isinstance(algebra, dict):
        alg = algebra_from_dict(algebra, f"{source} algebra", allow_invalid)
    else:
        alg = load_algebra(algebra, allow_invalid=allow_invalid)
    alphabet = _require(obj, "alphabet", source)
    _expect(isinstance(alphabet, (list, dict)) and all(isinstance(a, str) and a for a in alphabet),
            source, "'alphabet' must be an array of symbols (word automaton)"
            " or an object mapping symbols to ranks (tree automaton)")
    states = _require(obj, "states", source)
    _expect(isinstance(states, list) and all(_is_state(q) for q in states),
            source, "'states' must be an array of state names (strings or integers)")
    # JSON object keys spell every state name as text
    by_key = {str(q): q for q in states}
    _expect(len(by_key) == len(states), source, "state names must be distinct")
    transitions = obj.get("transitions", [])
    _expect(isinstance(transitions, list) and all(isinstance(tr, dict) for tr in transitions),
            source, "'transitions' must be an array of objects")

    def weight(value, where):
        try:
            return alg.parse(value)
        except (TypeError, ValueError) as exc:
            raise FileFormatError(where, str(exc)) from None

    def state_weights(key):
        entries = obj.get(key, {})
        _expect(isinstance(entries, dict), source, f"{key!r} must be an object mapping states to weights")
        return {by_key.get(q, q): weight(w, f"{source} {key} {q!r}") for q, w in entries.items()}

    tree = isinstance(alphabet, dict)
    quads = []
    for i, tr in enumerate(transitions):
        where = f"{source} transition {i}"
        if tree:
            src = tr.get("from", [])
            src = tuple(src) if isinstance(src, list) else (src,)
        else:
            src = _require(tr, "from", where)
        symbol = _require(tr, "symbol", where)
        _expect(isinstance(symbol, str), where, f"symbol {symbol!r} must be a string")
        quads.append((src, symbol, _require(tr, "to", where),
                      weight(_require(tr, "weight", where), where)))
    final = state_weights("final")
    initial = {} if tree else state_weights("initial")
    # only the module of the automaton's kind is loaded
    try:
        if tree:
            from .trees import RankedAlphabet, TreeAutomaton
            return TreeAutomaton(alg, RankedAlphabet(alphabet), states, quads, final)
        from .words import WordAutomaton
        return WordAutomaton(alg, alphabet, states, initial, final, quads)
    except ValueError as exc:
        raise FileFormatError(source, str(exc)) from None


def automaton_to_dict(automaton) -> dict:
    alg = automaton.algebra
    tree = automaton.kind == "tree"

    def weights(vector) -> dict:
        return {
            s: alg.describe(w) for s, w in zip(automaton.states, vector) if w != alg.zero
        }

    obj: dict = {}
    obj["algebra"] = (
        algebra_to_dict(alg) if isinstance(alg, FiniteTableAlgebra) else alg.name
    )
    obj["states"] = list(automaton.states)
    if tree:
        obj["alphabet"] = automaton.alphabet.to_dict()
        obj["final"] = weights(automaton.root_weights)
    else:
        obj["alphabet"] = list(automaton.alphabet)
        obj["initial"] = weights(automaton.initial)
        obj["final"] = weights(automaton.final)
    obj["transitions"] = [
        {"from": list(src) if tree else src, "symbol": a, "to": dst, "weight": alg.describe(w)}
        for src, a, dst, w in automaton.stored_transitions()
    ]
    return obj


def load_automaton(path: str, allow_invalid: bool = False):
    return automaton_from_dict(_read_json(path, "automaton"), source=path, allow_invalid=allow_invalid)


def save_automaton(automaton, path: str):
    try:
        with open(path, "w") as fh:
            json.dump(automaton_to_dict(automaton), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise FileFormatError(path, f"cannot write automaton file: {exc.strerror}") from None

