import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest

import bimonoid_automata as ba
from bimonoid_automata import bridge, cli, fileio
from bimonoid_automata import harness as H
from bimonoid_automata import trees as T
from bimonoid_automata import words as W
from bimonoid_automata.algebra import Polynomial, Semantics

from conftest import bundled_carriers, literal_word_runs, natural_of


@pytest.fixture
def b4_file(tmp_path):
    path = tmp_path / "b4.json"
    path.write_text(json.dumps(fileio.algebra_to_dict(ba.b4())))
    return str(path)


@pytest.fixture
def probe_file(tmp_path):
    automaton = W.probe_automaton(ba.b4(), 2, 2, 2)
    path = tmp_path / "probe.json"
    fileio.save_automaton(automaton, str(path))
    return str(path)


@pytest.fixture
def tree_probe_file(tmp_path):
    alph = T.RankedAlphabet({"alpha": 0, "sigma": 2})
    automaton = T.branching_probe_automaton(ba.b4(), 2, 2, 3, 2, alph)
    path = tmp_path / "tree_probe.json"
    fileio.save_automaton(automaton, str(path))
    return str(path)


def test_algebra_file_round_trip(b4_file):
    alg = fileio.load_algebra(b4_file)
    original = ba.b4()
    assert alg.names == original.names
    assert alg.add_table == original.add_table
    assert alg.mul_table == original.mul_table


def test_loader_refuses_invalid_tables(tmp_path):
    obj = fileio.algebra_to_dict(ba.b4())
    obj["add"][2][3] = "1"  # break associativity/commutativity
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(fileio.FileFormatError) as exc:
        fileio.load_algebra(str(path))
    assert "axioms fail" in str(exc.value) and "broken.json" in str(exc.value)
    alg = fileio.load_algebra(str(path), allow_invalid=True)
    assert not ba.validate_axioms(alg).ok


def test_loader_reports_unknown_table_entries(tmp_path):
    obj = fileio.algebra_to_dict(ba.boole())
    obj["mul"][0][1] = "7"
    path = tmp_path / "badnames.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(fileio.FileFormatError) as exc:
        fileio.load_algebra(str(path))
    assert "unknown element" in str(exc.value)


def test_word_automaton_file_round_trip(probe_file):
    automaton = fileio.load_automaton(probe_file)
    assert isinstance(automaton, W.WordAutomaton)
    assert W.initial_semantics(automaton, ("gamma",)) == 2
    again = fileio.automaton_from_dict(fileio.automaton_to_dict(automaton))
    assert again.transitions == automaton.transitions
    assert again.initial == automaton.initial


def test_tree_automaton_file_round_trip(tree_probe_file):
    automaton = fileio.load_automaton(tree_probe_file)
    assert isinstance(automaton, T.TreeAutomaton)
    xi = T.doubled_probe_tree(automaton.alphabet)
    alg = automaton.algebra
    expected = alg.mul(alg.mul(2, alg.add(2, 3)), 2)
    assert T.initial_semantics(automaton, xi) == expected
    again = fileio.automaton_from_dict(fileio.automaton_to_dict(automaton))
    assert list(again.stored_transitions()) == list(automaton.stored_transitions())


def test_integer_state_names_are_names_not_indices(tmp_path):
    # states [1, 0]: the state named 0 sits at index 1, and JSON object keys
    # spell state names as text
    word_obj = {
        "algebra": "B4",
        "alphabet": ["a", "b"],
        "states": [1, 0],
        "initial": {"1": "1", "0": "2"},
        "final": {"0": "1"},
        "transitions": [
            {"from": 1, "symbol": "a", "to": 0, "weight": "2"},
            {"from": 1, "symbol": "a", "to": 1, "weight": "1"},
            {"from": 0, "symbol": "a", "to": 1, "weight": "2"},
            {"from": 0, "symbol": "b", "to": 0, "weight": "3"},
        ],
    }
    tree_obj = {
        "algebra": "B4",
        "alphabet": {"e": 0, "a": 1, "b": 1},
        "states": [1, 0],
        "final": {"0": "1"},
        "transitions": [
            {"from": [], "symbol": "e", "to": 1, "weight": "1"},
            {"from": [], "symbol": "e", "to": 0, "weight": "2"},
        ] + [dict(tr, **{"from": [tr["from"]]}) for tr in word_obj["transitions"]],
    }
    loaded = []
    for name, obj in (("word.json", word_obj), ("tree.json", tree_obj)):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        loaded.append(fileio.load_automaton(str(path)))
    word_aut, tree_aut = loaded

    assert word_aut.initial == (1, 2) and word_aut.final == (0, 1)
    assert word_aut.transitions["a"][0][1] == 2  # from state 1 (index 0) to state 0 (index 1)
    assert tree_aut.delta((0,), "a", 1) == 2
    assert tree_aut.delta((), "e", 1) == 2 and tree_aut.root_weights == (0, 1)

    # stored transitions carry state names, in symbol, source, target order
    word_transitions = [(1, "a", 1, 1), (1, "a", 0, 2), (0, "a", 1, 2), (0, "b", 0, 3)]
    assert list(word_aut.stored_transitions()) == word_transitions
    assert list(tree_aut.stored_transitions()) == [
        ((p,), a, q, w) for p, a, q, w in word_transitions
    ] + [((), "e", 1, 1), ((), "e", 0, 2)]
    rebuilt = W.WordAutomaton(
        word_aut.algebra, word_aut.alphabet, word_aut.states, word_aut.initial,
        word_aut.final, word_aut.stored_transitions(),
    )
    assert rebuilt.transitions == word_aut.transitions
    # saved files list exactly these transitions, in this order
    word_dicts = [{"from": p, "symbol": a, "to": q, "weight": str(w)} for p, a, q, w in word_transitions]
    assert fileio.automaton_to_dict(word_aut)["transitions"] == word_dicts
    assert fileio.automaton_to_dict(tree_aut)["transitions"] == [
        dict(tr, **{"from": [tr["from"]]}) for tr in word_dicts
    ] + [{"from": [], "symbol": "e", "to": 1, "weight": "1"},
         {"from": [], "symbol": "e", "to": 0, "weight": "2"}]

    converted = bridge.wsa_to_wta(word_aut)
    assert list(converted.stored_transitions()) == list(tree_aut.stored_transitions())
    back = bridge.string_wta_to_wsa(tree_aut)
    assert back.states == (1, 0)
    assert (back.initial, back.final) == (word_aut.initial, word_aut.final)
    assert list(back.stored_transitions()) == word_transitions
    for word in W.all_words(word_aut.alphabet, 3):
        t = bridge.word_to_tree(word)
        for semantics in (Semantics.RUN, Semantics.INIT):
            expected = W.evaluate(word_aut, word, semantics)
            assert T.evaluate(converted, t, semantics) == expected
            assert T.evaluate(tree_aut, t, semantics) == expected


def test_missing_keys_and_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(fileio.FileFormatError):
        fileio.load_automaton(str(path))
    path2 = tmp_path / "incomplete.json"
    path2.write_text(json.dumps({"algebra": "Boole"}))
    with pytest.raises(fileio.FileFormatError) as exc:
        fileio.load_automaton(str(path2))
    assert "alphabet" in str(exc.value)


def test_words_parse_forms(probe_file):
    automaton = fileio.load_automaton(probe_file)
    assert W.parse("gamma", automaton.alphabet) == ("gamma",)
    assert W.parse("gamma gamma", automaton.alphabet) == ("gamma", "gamma")
    assert W.parse("gamma,gamma", automaton.alphabet) == ("gamma", "gamma")
    assert W.parse("", automaton.alphabet) == ()
    with pytest.raises(ValueError):
        W.parse("delta", automaton.alphabet)
    chars = W.WordAutomaton(ba.boole(), ("a", "b"), ("q",), (1,), (1,), [])
    assert W.parse("abba", chars.alphabet) == ("a", "b", "b", "a")


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_eval_and_support(probe_file, capsys):
    code, out, _ = run_cli(
        ["eval", "--automaton", probe_file, "--input", "gamma", "--semantics", "init"], capsys
    )
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(
        ["eval", "--automaton", probe_file, "--input", "gamma", "--semantics", "run"], capsys
    )
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(
        ["support", "--automaton", probe_file, "--input", "gamma", "--semantics", "init"], capsys
    )
    assert code == 0 and out.strip() == "true"


def test_cli_eval_tree(tree_probe_file, capsys):
    code, out, _ = run_cli(
        [
            "eval",
            "--automaton",
            tree_probe_file,
            "--input",
            "sigma(alpha, sigma(alpha, alpha))",
            "--semantics",
            "init",
        ],
        capsys,
    )
    assert code == 0 and out.strip() == "0"  # 2*(2+3)*2 = 2*3*2 = 2*2 = 0 in B4


def test_cli_props_json(capsys):
    code, out, _ = run_cli(["props", "--algebra", "pentagon", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["algebra"] == "PentagonN5"
    assert data["properties"]["strongly-zero-sum-free"]["holds"] is True
    assert data["properties"]["right-distributive"]["holds"] is False


INFINITE_CARRIER_ERROR = "error: cannot enumerate the infinite carrier of NatPlusMin\n"


# props and check both tabulate the algebra, whose elements() refuses an
# infinite carrier, so both report it with the same line
def test_cli_props_rejects_infinite(capsys):
    assert run_cli(["props", "--algebra", "NatPlusMin"], capsys) == (2, "", INFINITE_CARRIER_ERROR)


def test_cli_check_rejects_infinite_algebra(capsys):
    argv = ["check", "supports-words", "--algebra", "NatPlusMin"]
    assert run_cli(argv, capsys) == (2, "", INFINITE_CARRIER_ERROR)


def test_cli_check_predicted_counterexample_exits_zero(capsys):
    code, out, _ = run_cli(
        ["check", "supports-words", "--algebra", "B4", "--trials", "5"], capsys
    )
    assert code == 0
    assert "counterexample" in out and "init-only" in out


def test_cli_check_consistent_exits_zero(capsys):
    code, out, _ = run_cli(
        ["check", "supports-trees", "--algebra", "pentagon", "--trials", "3"], capsys
    )
    assert code == 0 and "consistent" in out


def test_cli_check_unexpected_counterexample_exits_one(tmp_path, capsys):
    z2 = {
        "names": ["0", "1"],
        "add": [["0", "1"], ["1", "0"]],
        "mul": [["0", "0"], ["0", "1"]],
        "zero": "0",
        "one": "1",
    }
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(z2))
    code, out, _ = run_cli(
        ["check", "supports-words", "--algebra", str(path), "--trials", "3"], capsys
    )
    assert code == 1
    assert "NOT AS PREDICTED" in out


def test_cli_images_trees_probes_the_right_law(tmp_path, capsys):
    # right-distributivity fails at (1, a, b) and left-distributivity holds,
    # so only a probe of the right law shows the differing images
    algebra = {
        "names": ["0", "1", "a", "b"], "zero": "0", "one": "1",
        "add": [["0", "1", "a", "b"], ["1", "1", "1", "1"], ["a", "1", "a", "1"], ["b", "1", "1", "b"]],
        "mul": [["0", "0", "0", "0"], ["0", "1", "a", "b"], ["0", "a", "0", "a"], ["0", "b", "0", "b"]],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(algebra))
    code, out, _ = run_cli(["check", "images-trees", "--algebra", str(path), "--format", "json"], capsys)
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "counterexample" and report["as_predicted"]
    assert report["hypothesis"]["failing-law"] == "right-distributive"
    assert report["witness"]["run"] != report["witness"]["init"]


def test_cli_usage_errors_exit_two(probe_file, capsys):
    code, _, err = run_cli(["props", "--algebra", "nosuch"], capsys)
    assert code == 2 and "nosuch" in err and "PentagonN5" in err
    code, _, err = run_cli(
        ["eval", "--automaton", probe_file, "--input", "delta"], capsys
    )
    assert code == 2 and "delta" in err
    code, _, err = run_cli(["eval", "--automaton", "missing.json", "--input", "x"], capsys)
    assert code == 2 and "missing.json" in err


_WORD_FILE = {
    "algebra": "Boole",
    "alphabet": ["a"],
    "states": ["p", "q"],
    "initial": {"p": "1"},
    "final": {"q": "1"},
    "transitions": [{"from": "p", "symbol": "a", "to": "q", "weight": "1"}],
}


_MALFORMED_FILES = {
    "states-number": {"states": 5},
    "states-string": {"states": "pq"},
    "final-array": {"final": []},
    "initial-string": {"initial": "p"},
    "transition-number": {"transitions": [5]},
    "symbol-array": {"transitions": [{"from": "p", "symbol": ["a"], "to": "q", "weight": "1"}]},
    "word-from-array": {"transitions": [{"from": ["p"], "symbol": "a", "to": "q", "weight": "1"}]},
    "alphabet-string": {"alphabet": "ab"},
    "alphabet-empty-symbol": {"alphabet": ["a", ""]},
    "algebra-number": {"algebra": 5},
    "weight-array": {"algebra": "NatPlusMin", "final": {"q": [1]}},
    "inline-algebra-names": {"algebra": {"names": 5, "add": [], "mul": [], "zero": "0", "one": "1"}},
    "states-same-key": {"states": [1, "1"], "initial": {"1": "1"}, "final": {"1": "1"},
                        "transitions": []},
    "file-number": 5,
    "inline-algebra-duplicate-name": {"algebra": {"names": ["0", "0"], "add": [["0", "0"], ["0", "0"]],
                                                  "mul": [["0", "0"], ["0", "0"]], "zero": "0", "one": "0"}},
    "inline-algebra-missing-row": {"algebra": {"names": ["0", "1"], "add": [["0", "1"]],
                                               "mul": [["0", "0"], ["0", "1"]], "zero": "0", "one": "1"}},
    "inline-algebra-short-row": {"algebra": {"names": ["0", "1"], "add": [["0", "1"], ["1"]],
                                             "mul": [["0", "0"], ["0", "1"]], "zero": "0", "one": "1"}},
    "inline-algebra-name-object": {"algebra": {"name": {"x": [1, 2]}, "names": ["0", "1"],
                                               "add": [["0", "1"], ["1", "1"]],
                                               "mul": [["0", "0"], ["0", "1"]], "zero": "0", "one": "1"}},
    # a string is the file's text: json cannot write an integer this long
    "integer-too-long": '{"algebra": "NatPlusMin", "states": [' + "1" * 5000 + "]}",
    "alphabet-empty-array": {"alphabet": []},
    "alphabet-repeated": {"alphabet": ["a", "a"]},
    "tree-alphabet-empty-object": {"alphabet": {}},
    # _WORD_FILE's initial weights: a tree automaton has none to read them into
    "tree-initial": {"alphabet": {"a": 0}, "transitions": []},
    "poly-monome-negative": {"algebra": "PolyMonome", "final": {"q": [-1]}},
    "poly-monome-dangling-exponent": {"algebra": "PolyMonome", "final": {"q": "2x^"}},
    # bytes are the file's content: a UTF-16 byte order mark is no UTF-8 text
    "not-utf-8": b"\xff\xfe{}",
}
_MALFORMED_ALPHABETS = {
    "word-alphabet-empty": ("supports-words", "--word-alphabet", ""),
    "word-alphabet-inner": ("supports-words", "--word-alphabet", "a,,b"),
    "word-alphabet-trailing": ("supports-words", "--word-alphabet", "a,"),
    "tree-alphabet-repeated": ("supports-trees", "--tree-alphabet", "alpha:0,sigma:2,sigma:3"),
    "tree-alphabet-inner": ("supports-trees", "--tree-alphabet", "alpha:0,,sigma:2"),
    "tree-alphabet-trailing": ("supports-trees", "--tree-alphabet", "alpha:0,sigma:2,"),
    "tree-alphabet-no-rank": ("supports-trees", "--tree-alphabet", "alpha"),
    "tree-alphabet-rank-not-a-number": ("supports-trees", "--tree-alphabet", "alpha:x"),
}
# The whole stderr of some cases, {path} standing for the file's path.
_MALFORMED_MESSAGES = {
    "inline-algebra-duplicate-name": "{path} algebra: duplicate element names",
    "inline-algebra-missing-row": "{path} algebra: add table has 1 rows, expected 2",
    "inline-algebra-short-row": "{path} algebra: add table row 1 has 1 entries",
    "inline-algebra-name-object": "{path} algebra: 'name' must be a string",
    "alphabet-empty-array": "{path}: alphabet must be nonempty",
    "alphabet-repeated": "{path}: duplicate alphabet symbols",
    "tree-alphabet-empty-object": "{path}: alphabet must be nonempty",
    "tree-initial": "{path}: a tree automaton has no 'initial' weights;"
                    " give its leaf weights as nullary transitions",
    "poly-monome-negative": "{path} final 'q': coefficients must be nonnegative",
    "poly-monome-dangling-exponent": "{path} final 'q': cannot parse polynomial term '2x^'",
    "not-utf-8": "{path}: automaton file is not UTF-8 text",
    "tree-alphabet-inner": "--tree-alphabet 'alpha:0,,sigma:2' has an empty entry;"
                           " give symbol:rank entries separated by commas",
    "tree-alphabet-trailing": "--tree-alphabet 'alpha:0,sigma:2,' has an empty entry;"
                              " give symbol:rank entries separated by commas",
    "tree-alphabet-no-rank": "alphabet entry 'alpha' must look like symbol:rank",
    "tree-alphabet-rank-not-a-number": "--tree-alphabet 'alpha:x' has the entry 'alpha:x', whose rank"
                                       " is not a natural number",
}


@pytest.mark.parametrize(
    "name, patch, alphabet",
    [pytest.param(name, patch, None, id=name) for name, patch in _MALFORMED_FILES.items()]
    + [pytest.param(name, None, option, id=name) for name, option in _MALFORMED_ALPHABETS.items()],
)
def test_cli_malformed_input_exits_two(tmp_path, capsys, name, patch, alphabet):
    path = tmp_path / "malformed.json"
    if patch is None:
        target, option, text = alphabet
        argv = ["check", target, "--algebra", "B4", option, text]
    else:
        if not isinstance(patch, (str, bytes)):
            patch = json.dumps({**_WORD_FILE, **patch} if isinstance(patch, dict) else patch)
        path.write_bytes(patch if isinstance(patch, bytes) else patch.encode())
        argv = ["eval", "--automaton", str(path), "--input", "a"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and err.startswith("error: ")
    if patch is not None:
        assert str(path) in err
        with pytest.raises(fileio.FileFormatError):
            fileio.load_automaton(str(path))
    if name in _MALFORMED_MESSAGES:
        assert err == f"error: {_MALFORMED_MESSAGES[name].format(path=path)}\n"


@pytest.mark.parametrize("text", ["a, a", "a,b,a", " a , a"])
def test_cli_word_alphabet_refuses_a_repeated_symbol(capsys, text):
    code, out, err = run_cli(["check", "supports-words", "--algebra", "B4", "--word-alphabet", text], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --word-alphabet {text!r} repeats the symbol 'a'\n"


def test_cli_word_alphabet_strips_its_symbols(capsys):
    # spaces around a symbol are no part of it, as in --tree-alphabet: the
    # probe's witness is the word "a", which words.parse reads back
    runs = [run_cli(["check", "supports-words", "--algebra", "B4", "--word-alphabet", text,
                     "--trials", "2", "--format", "json"], capsys) for text in (" a, b", "a,b")]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 0 and json.loads(out)["witness"]["input"] == "a"


_TWO_ELEMENTS = {"names": ["0", "1"], "add": [["0", "1"], ["1", "1"]], "mul": [["0", "0"], ["0", "1"]],
                 "zero": "0", "one": "1"}


@pytest.mark.parametrize("text, message", [
    (json.dumps({"names": ["0", "0"], "add": [["0", "0"], ["0", "0"]], "mul": [["0", "0"], ["0", "0"]],
                 "zero": "0", "one": "0"}), "duplicate element names"),
    (json.dumps({**_TWO_ELEMENTS, "add": [["0", "1"]]}), "add table has 1 rows, expected 2"),
    (json.dumps({**_TWO_ELEMENTS, "mul": [["0", "0"], ["0"]]}), "mul table row 1 has 1 entries"),
    (json.dumps({**_TWO_ELEMENTS, "name": {"x": [1, 2]}}), "'name' must be a string"),
    (json.dumps({**_TWO_ELEMENTS, "names": "N"}).replace('"N"', "1" * 5000),
     "invalid JSON: a number has too many digits"),
    (b"\xff\xfe{}", "algebra file is not UTF-8 text"),
], ids=["duplicate-name", "missing-row", "short-row", "name-object", "integer-too-long", "not-utf-8"])
def test_cli_props_names_a_malformed_algebra_file(text, message, tmp_path, capsys):
    path = tmp_path / "algebra.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run_cli(["props", "--algebra", str(path), "--format", "json"], capsys)
    if message.startswith("invalid JSON") and not hasattr(sys, "set_int_max_str_digits"):
        message = "'names' must be an array of element names"  # before 3.10.7 any integer is read
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")
    with pytest.raises(fileio.FileFormatError):
        fileio.load_algebra(str(path))


@pytest.mark.parametrize("argv, message", [
    (["props", "--algebra", "TruncFun(0)"], "TruncFun needs m >= 1"),
    (["props", "--algebra", "NatPlusPlus[0]"], "cap must be >= 1"),
    (["convert", "--automaton", "WORD", "--direction", "tree-to-word"], "WORD does not contain a tree automaton"),
    (["convert", "--automaton", "TREE", "--direction", "word-to-tree"], "TREE does not contain a word automaton"),
    (["image", "--automaton", "TREE", "--max-size", "0"], "max_size must be >= 1"),
    (["image", "--automaton", "WORD", "--max-len", "-1"], "max_len must be >= 0"),
], ids=["trunc-fun-0", "nat-plus-plus-0", "convert-word-as-tree", "convert-tree-as-word",
        "image-max-size-0", "image-max-len-negative"])
def test_cli_refuses_out_of_range_arguments(argv, message, probe_file, tree_probe_file, capsys):
    files = {"WORD": probe_file, "TREE": tree_probe_file}
    for key, path in files.items():
        message = message.replace(key, path)
    code, out, err = run_cli([files.get(a, a) for a in argv], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


_TRUNC_FUN_9 = "cannot tabulate TruncFun(9): it has more than 4096 elements"


@pytest.mark.parametrize("argv, message", [
    (["props", "--algebra", "TruncFun(9)"], _TRUNC_FUN_9),
    (["check", "supports-words", "--algebra", "TruncFun(9)"], _TRUNC_FUN_9),
    (["props", "--algebra", "NatPlusPlus[99999]"],
     "NatPlusPlus[99999] has 100001 elements; a table holds at most 4096"),
], ids=["props", "check", "nat-plus-plus-props"])
def test_cli_refuses_a_carrier_too_large_to_tabulate(argv, message):
    # TruncFun(9) has 10^9 elements, and listing them takes all the memory
    # there is, as do the two 10^5 x 10^5 tables of NatPlusPlus[99999]: the
    # command runs in a child capped at 1 GB of address space
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")}
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "bimonoid_automata", *argv], capture_output=True, text=True,
                            env=env, timeout=10, preexec_fn=cap_memory)
    assert time.perf_counter() - start < 2
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")


def test_cli_convert_round_trip(probe_file, tmp_path, capsys):
    out_path = str(tmp_path / "as_tree.json")
    code, _, _ = run_cli(
        ["convert", "--automaton", probe_file, "--direction", "word-to-tree",
         "--output", out_path], capsys
    )
    assert code == 0
    converted = fileio.load_automaton(out_path)
    assert isinstance(converted, T.TreeAutomaton)
    back_path = str(tmp_path / "back.json")
    code, _, _ = run_cli(
        ["convert", "--automaton", out_path, "--direction", "tree-to-word",
         "--output", back_path], capsys
    )
    assert code == 0
    back = fileio.load_automaton(back_path)
    original = fileio.load_automaton(probe_file)
    assert back.transitions == original.transitions
    assert back.initial == original.initial and back.final == original.final


@pytest.mark.parametrize("target", ["missing-dir/out.json", "."], ids=["missing-directory", "directory"])
def test_cli_convert_to_an_unwritable_output_exits_two(probe_file, tmp_path, monkeypatch, capsys, target):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        ["convert", "--automaton", probe_file, "--direction", "word-to-tree", "--output", target], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {target}: cannot write automaton file: ")


def test_cli_convert_has_no_format_option(probe_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["convert", "--automaton", probe_file, "--direction", "word-to-tree",
                  "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_cli_check_and_image_defaults_are_the_config_defaults(monkeypatch, capsys, probe_file, tree_probe_file):
    # with no sweep option given, cmd_check builds TheoremCheckConfig's defaults
    built = []
    real = H.check_theorem
    monkeypatch.setattr(H, "check_theorem", lambda name, config: built.append(config) or real(name, config))
    code, _, _ = run_cli(["check", "supports-words", "--algebra", "B4"], capsys)
    assert code == 0
    [config] = built
    assert {**vars(config), "algebra": None} == vars(H.TheoremCheckConfig(algebra=None))
    # image with no bound prints what it prints with the config's bound given
    for path, bound in ((probe_file, ["--max-len", str(config.max_word_len)]),
                        (tree_probe_file, ["--max-size", str(config.max_tree_size)])):
        default = run_cli(["image", "--automaton", path], capsys)
        assert default[0] == 0 and default == run_cli(["image", "--automaton", path, *bound], capsys)


@pytest.mark.parametrize("argv", [
    ["check", "images-trees", "--algebra", "pentagon", "--tree-alphabet", "alpha:0,gamma:1",
     "--seed", "7", "--trials", "1"],
    ["check", "images-words", "--algebra", "B4", "--max-len", "2"],
    ["check", "images-words", "--algebra", "B4", "--word-alphabet", "x"],
    ["check", "images-trees", "--algebra", "B4", "--states", "2"],
    ["image", "--automaton", "WORD", "--max-size", "3"],
    ["image", "--automaton", "TREE", "--max-len", "2"],
    ["image", "--automaton", "WORD", "--max-size", "7"],
    ["image", "--automaton", "TREE", "--max-len", "4"],
    ["check", "supports-words", "--algebra", "B4", "--tree-alphabet", "x:0", "--trials", "2"],
    ["check", "supports-words", "--algebra", "B4", "--max-size", "3", "--trials", "2"],
    ["check", "supports-trees", "--algebra", "B4", "--word-alphabet", "zz", "--trials", "2"],
    ["check", "supports-trees", "--algebra", "B4", "--max-len", "9", "--trials", "2"],
], ids=["images-trees-sweep", "images-words-max-len", "images-words-alphabet",
        "images-trees-states", "image-word-max-size", "image-tree-max-len",
        "image-word-max-size-at-its-default", "image-tree-max-len-at-its-default",
        "supports-words-tree-alphabet", "supports-words-max-size",
        "supports-trees-word-alphabet", "supports-trees-max-len"])
def test_cli_rejects_options_it_would_ignore(argv, probe_file, tree_probe_file, capsys):
    def refused_by_the_parser(argv):
        # a check target's parser declares only the options its target reads
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, "") and f"unrecognized arguments: {argv[4]}" in err

    files = {"WORD": probe_file, "TREE": tree_probe_file}
    if argv[0] == "check":
        refused_by_the_parser(argv)
    else:
        code, out, err = run_cli([files.get(a, a) for a in argv], capsys)
        assert code == 2 and out == "" and err.startswith("error: ")
    # an option is refused at its default value too
    refused_by_the_parser(["check", "images-words", "--algebra", "B4", "--seed", "42"])


@pytest.mark.parametrize("depth", [1000, 100_000])
@pytest.mark.parametrize("shape", ["array", "object"])
@pytest.mark.parametrize("command", ["eval", "props"])
def test_cli_deeply_nested_json_exits_two(tmp_path, capsys, command, shape, depth):
    # json.load recurses once per level; past the recursion limit the file is
    # refused like any other malformed one
    opening, leaf, closing = ("[", "", "]") if shape == "array" else ('{"a":', "0", "}")
    path = tmp_path / "deep.json"
    path.write_text(opening * depth + leaf + closing * depth)
    if command == "eval":
        argv = ["eval", "--automaton", str(path), "--input", "a"]
    else:
        argv = ["props", "--algebra", str(path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and err == f"error: {path}: JSON nested too deeply\n"


def test_json_nesting_is_refused_at_the_same_bound_from_any_stack_depth(tmp_path):
    # a fixed bound of 100 levels decides, not the room left on the caller's
    # stack: json.load parses 150 levels from 300 frames down, and the file is
    # refused all the same; 100 levels get past the bound to the next check
    def message(text, frames):
        if frames:
            return message(text, frames - 1)
        path.write_text(text)
        with pytest.raises(fileio.FileFormatError) as info:
            fileio.load_automaton(str(path))
        return str(info.value)

    path = tmp_path / "deep.json"
    for depth, expected in [(150, "JSON nested too deeply"), (100, "an automaton is a JSON object")]:
        text = "[" * depth + "]" * depth
        assert message(text, 0) == message(text, 300) == f"{path}: {expected}"


def test_cli_caps_a_long_error_line(tmp_path, capsys):
    # the loader echoes the offending weight, here a 2,000-character label
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"algebra": "B4", "alphabet": ["a"], "states": ["q"], "initial": {"q": "1"},
                                "final": {"q": "x" * 2000}, "transitions": []}))
    code, out, err = run_cli(["eval", "--automaton", str(path), "--input", "a"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} final 'q': 'xxx")
    assert err.endswith("…\n") and len(err) <= 320


@pytest.mark.parametrize("algebra, weight, value", [
    ("NatPlusPlus[3]", 2, "2"),  # names zero, 0, 1, 2, 3: read as an index, 2 was the element 1
    ("PentagonN5", 1, "1"),      # names 0, p, q, r, 1: the top, not p
    ("B3prime", 1, None),        # names 0', 1', 2': no element is named 1
])
def test_cli_reads_an_integer_table_weight_by_its_name(algebra, weight, value, tmp_path, capsys):
    alg = ba.builtin(algebra)
    path = tmp_path / "automaton.json"
    path.write_text(json.dumps({
        "algebra": algebra, "alphabet": ["a"], "states": ["p"],
        "initial": {"p": weight}, "final": {"p": alg.describe(alg.one)},
    }))
    code, out, err = run_cli(["eval", "--automaton", str(path), "--input", ""], capsys)
    if value is None:
        assert (code, out) == (2, "") and err.startswith(f"error: {path} initial 'p': '1' is not an element")
    else:
        assert (code, out) == (0, f"{value}\n")


@pytest.mark.parametrize("text, message", [
    ("sigma(alpha,alpha", "unexpected end of tree text 'sigma(alpha,alpha'"),
    ("sigma(alpha alpha)", "expected ')', found 'alpha' in 'sigma(alpha alpha)'"),
    ("sigma(,alpha)", "expected a symbol, found ',' in 'sigma(,alpha)'"),
    ("alpha#", "cannot tokenize tree text at '#'"),
])
def test_cli_eval_refuses_malformed_tree_text(tree_probe_file, text, message, capsys):
    code, out, err = run_cli(["eval", "--automaton", tree_probe_file, "--input", text], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cli_eval_reads_tree_text_with_trailing_whitespace(tree_probe_file, capsys):
    assert T.parse("sigma(alpha,alpha)  ") == T.parse("sigma(alpha,alpha)")
    argv = ["eval", "--automaton", tree_probe_file, "--semantics", "run", "--input"]
    assert run_cli([*argv, "sigma(alpha,alpha)  "], capsys) == run_cli([*argv, "sigma(alpha,alpha)"], capsys)


def test_cli_missing_automaton_file_exits_two(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    code, _, err = run_cli(["eval", "--automaton", path, "--input", "a"], capsys)
    assert code == 2
    assert err.startswith(f"error: {path}: cannot read automaton file: ")


def test_cli_convert_with_custom_end_marker(probe_file, tmp_path, capsys):
    out_path = str(tmp_path / "marked.json")
    code, _, _ = run_cli(
        ["convert", "--automaton", probe_file, "--direction", "word-to-tree",
         "--end-marker", "bottom", "--output", out_path], capsys
    )
    assert code == 0
    converted = fileio.load_automaton(out_path)
    assert converted.alphabet.rank("bottom") == 0


def test_cli_convert_refuses_an_empty_end_marker(probe_file, tmp_path, capsys):
    # a file with an empty symbol would be written, then refused by every load
    out_path = tmp_path / "marked.json"
    code, _, err = run_cli(
        ["convert", "--automaton", probe_file, "--direction", "word-to-tree",
         "--end-marker", "", "--output", str(out_path)], capsys
    )
    assert code == 2 and err.startswith("error: ") and "nonempty" in err
    assert not out_path.exists()


def test_cli_profile_and_image(probe_file, capsys):
    code, out, _ = run_cli(
        ["profile", "--automaton", probe_file, "--input", "gamma", "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["run"]["muls"] == 18 and data["init"]["muls"] == 12
    code, out, _ = run_cli(
        ["image", "--automaton", probe_file, "--max-len", "2", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["images"]["run"] == ["0"]
    assert data["images"]["init"] == ["0", "2"]


def test_algebra_file_wins_over_builtin_name(tmp_path, monkeypatch, capsys):
    # a file named like a builtin is read, not shadowed by the builtin
    monkeypatch.chdir(tmp_path)
    (tmp_path / "B4").write_text(json.dumps(fileio.algebra_to_dict(ba.boole())))
    assert fileio.load_algebra("B4").names == ("0", "1")
    code, out, _ = run_cli(["props", "--algebra", "B4", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["algebra"] == "Boole"
    assert data["properties"]["strongly-zero-sum-free"]["holds"] is True
    assert fileio.load_algebra("B3prime").name == "B3prime"


def test_cli_eval_works_over_infinite_algebras(tmp_path, capsys):
    # tropical-style weights: run/init evaluation needs no enumeration
    automaton = {
        "algebra": "NatPlusMin",
        "alphabet": ["a"],
        "states": ["s", "t"],
        "initial": {"s": 2},
        "final": {"t": 5},
        "transitions": [
            {"from": "s", "symbol": "a", "to": "t", "weight": 3},
            {"from": "s", "symbol": "a", "to": "s", "weight": "inf"},
        ],
    }
    path = tmp_path / "tropical.json"
    path.write_text(json.dumps(automaton))
    code, out, _ = run_cli(
        ["eval", "--automaton", str(path), "--input", "a", "--semantics", "init"], capsys
    )
    # add=+, mul=min, omitted weights are 0: h(a) = (2, 2), init = min(2,0) + min(2,5) = 2
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(
        ["support", "--automaton", str(path), "--input", "a", "--semantics", "run"], capsys
    )
    assert code == 0 and out.strip() == "true"


def test_cli_eval_prints_a_natural_of_any_length(tmp_path, capsys):
    # every weight of a^n is inf but the initial ones, so both semantics
    # are 2^(n+1): past str()'s 4,300 digits at n = 16,609 (5,001 digits)
    automaton = {
        "algebra": "NatPlusMin",
        "alphabet": ["a"],
        "states": ["s", "t"],
        "initial": {"s": 1, "t": 1},
        "final": {"s": "inf", "t": "inf"},
        "transitions": [{"from": p, "symbol": "a", "to": q, "weight": "inf"} for p in "st" for q in "st"],
    }
    path = tmp_path / "doubling.json"
    path.write_text(json.dumps(automaton))
    n = 16609
    for semantics in ("run", "init"):
        argv = ["eval", "--automaton", str(path), "--input", "a" * n, "--semantics", semantics]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and len(out.strip()) == 5001 and natural_of(out.strip()) == 2 ** (n + 1)
        code, out, _ = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0 and natural_of(json.loads(out)["value"]) == 2 ** (n + 1)


def test_cli_allow_invalid_flag(tmp_path, capsys):
    obj = fileio.algebra_to_dict(ba.b4())
    obj["add"][2][3] = "1"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(["props", "--algebra", str(path)], capsys)
    assert code == 2 and "axioms fail" in err
    code, out, _ = run_cli(["props", "--algebra", str(path), "--allow-invalid"], capsys)
    assert code == 0


def test_cli_run_value_over_an_invalid_table_is_the_literal_one(tmp_path, capsys):
    # + is neither commutative nor associative (1+a = 1, a+1 = 0), found by
    # drawing the {1, a} entries of 3-element tables with random.Random(26):
    # on aa the runs in lexicographic order sum to 1, while the counted runs,
    # grouped by weight, sum to 0
    automaton = {
        "algebra": {"names": ["0", "1", "a"], "zero": "0", "one": "1",
                    "add": [["0", "1", "a"], ["1", "a", "1"], ["a", "0", "1"]],
                    "mul": [["0", "0", "0"], ["0", "1", "a"], ["0", "a", "1"]]},
        "alphabet": ["a"], "states": ["p", "q"],
        "initial": {"p": "1"}, "final": {"p": "a", "q": "1"},
        "transitions": [{"from": "p", "symbol": "a", "to": "p", "weight": "a"},
                        {"from": "p", "symbol": "a", "to": "q", "weight": "1"},
                        {"from": "q", "symbol": "a", "to": "p", "weight": "1"}],
    }
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(automaton))
    loaded = fileio.load_automaton(str(path), allow_invalid=True)
    word = ("a", "a")
    assert W.run_semantics(loaded, word) == literal_word_runs(loaded, word) == 1
    assert W.run_semantics(loaded, word, prune=True) == 0
    args = ["--automaton", str(path), "--input", "aa", "--semantics", "run", "--allow-invalid"]
    assert run_cli(["eval", *args], capsys)[:2] == (0, "1\n")
    assert run_cli(["support", *args], capsys)[:2] == (0, "true\n")


def test_cli_props_survives_hierarchy_breaking_table(tmp_path, capsys):
    # constant-zero mul with sum-free add: "strongly" holds vacuously while
    # plain zero-sum-freeness fails, contradicting an implication that only
    # holds for genuine strong bimonoids; the CLI must fail cleanly
    obj = {
        "names": ["0", "1"],
        "add": [["1", "1"], ["1", "1"]],
        "mul": [["0", "0"], ["0", "0"]],
        "zero": "0",
        "one": "1",
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(["props", "--algebra", str(path), "--allow-invalid"], capsys)
    assert code == 2 and "axioms" in err


def test_cli_check_survives_hypothesis_failing_without_a_half(tmp_path, capsys):
    # add is not commutative (1+2 = 1, 2+1 = 2): strong zero-sum-freeness
    # fails at (2, 1, 2) as (2+1)*2 = 0 but 1*2 != 0, yet neither half
    # condition fails, which the strong-bimonoid axioms rule out
    obj = {
        "names": ["0", "1", "2"],
        "add": [["0", "1", "2"], ["1", "1", "1"], ["2", "2", "2"]],
        "mul": [["0", "0", "0"], ["0", "1", "2"], ["0", "2", "0"]],
        "zero": "0",
        "one": "1",
    }
    path = tmp_path / "noncommutative.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(
        ["check", "supports-words", "--algebra", str(path), "--allow-invalid"], capsys
    )
    assert code == 2 and "axioms" in err


# + is not commutative (1+a = 1, a+1 = a), which --allow-invalid lets
# through: strong zero-sum-freeness fails at (a, 1, a), as (a+1)*a = 0 but
# 1*a != 0, and its tree form at (1, a, 1, a), yet neither hypothesis has a
# failing half, which the axioms rule out
_NONCOMMUTATIVE_SUM = {"names": ["0", "1", "a"], "zero": "0", "one": "1",
                       "add": [["0", "1", "a"], ["1", "1", "1"], ["a", "a", "a"]],
                       "mul": [["0", "0", "0"], ["0", "1", "a"], ["0", "a", "0"]]}


@pytest.mark.parametrize("target", ["supports-words", "supports-trees"])
def test_cli_check_reports_a_ladder_with_no_failing_half(tmp_path, capsys, target):
    path = tmp_path / "noncommutative.json"
    path.write_text(json.dumps(_NONCOMMUTATIVE_SUM))
    code, out, err = run_cli(["check", target, "--algebra", str(path), "--allow-invalid"], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: a support hypothesis fails but neither of its halves does"
                   " (the loaded tables violate the axioms)\n")


def test_cli_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    # exit code 1 means an unexpected counterexample; a fault in the program
    # exits 3 with the traceback on stderr
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_props", broken)
    code, _, err = run_cli(["props", "--algebra", "B4"], capsys)
    assert code == cli.INTERNAL_ERROR == 3
    assert "internal error:" in err and "RuntimeError" in err and "Traceback" in err


def test_cli_eval_on_a_deep_term(tmp_path, capsys):
    # gamma^n(alpha) over Boole with a parity automaton: the value is 1
    # exactly when n is even; 3,000 deep exceeded the recursion limit before
    alphabet = T.RankedAlphabet({"alpha": 0, "gamma": 1})
    automaton = T.TreeAutomaton(
        ba.boole(), alphabet, ("even", "odd"),
        [((), "alpha", "even", 1), (("even",), "gamma", "odd", 1), (("odd",), "gamma", "even", 1)],
        {"even": 1},
    )
    path = str(tmp_path / "parity.json")
    fileio.save_automaton(automaton, path)
    for depth, value in ((3000, "1"), (3001, "0")):
        term = "gamma(" * depth + "alpha" + ")" * depth
        for semantics in ("init", "run"):
            code, out, _ = run_cli(
                ["eval", "--automaton", path, "--input", term, "--semantics", semantics], capsys
            )
            assert code == 0 and out.strip() == value


def test_cli_profile_on_a_deep_spine(tmp_path, capsys):
    # the literal run weight walks an explicit stack: before, 1,500 deep
    # exited 3 with a RecursionError. With one state there is one run: a mul
    # per gamma node, then the root weight; init does the same muls
    alphabet = T.RankedAlphabet({"alpha": 0, "gamma": 1})
    automaton = T.TreeAutomaton(
        ba.pentagon(), alphabet, ("p",), [((), "alpha", "p", 2), (("p",), "gamma", "p", 3)], (4,)
    )
    path = str(tmp_path / "spine.json")
    fileio.save_automaton(automaton, path)
    depth = 1500
    term = "gamma(" * depth + "alpha" + ")" * depth
    code, out, _ = run_cli(["profile", "--automaton", path, "--input", term, "--format", "json"], capsys)
    assert code == 0
    d = json.loads(out)
    closed_form = {"adds": 0, "muls": depth + 1}
    assert d["size"] == depth + 1 and d["run"] == d["init"] == closed_form
    assert d["predicted"]["runs_enumerated"] == 1
    assert d["run_value"] == d["init_value"]


@pytest.mark.parametrize("algebra, weight", [
    ("NatPlusMin", 1.5), ("NatPlusMin", -0.5), ("NatPlusMin", True),
    ("NatPlusPlus", 1.5), ("NatPlusPlus", False),
    ("TruncFun(2)", [0, True, 2]), ("TruncFun(2)", [0, 1.5, 2]),
    ("PolyMonome", True), ("PolyMonome", [1.5]),
])
def test_cli_refuses_weights_that_are_not_naturals(algebra, weight, tmp_path, capsys):
    # int() read 1.5 as 1, -0.5 as 0 and true as 1, and a TruncFun element
    # [0,true,2] printed as [0,True,2], which no command loads back
    path = tmp_path / "automaton.json"
    path.write_text(json.dumps({
        "algebra": algebra, "alphabet": ["a"], "states": ["p"],
        "initial": {"p": weight},
    }))
    code, out, err = run_cli(["eval", "--automaton", str(path), "--input", ""], capsys)
    assert (code, out) == (2, "") and "initial 'p'" in err


def test_cli_refuses_a_poly_monome_degree_above_the_bound(tmp_path, capsys):
    # the dense coefficient list of x^100000000 would take gigabytes
    path = tmp_path / "automaton.json"
    path.write_text(json.dumps({
        "algebra": "PolyMonome", "alphabet": ["a"], "states": ["p"],
        "initial": {"p": "x^100000000"},
    }))
    start = time.perf_counter()
    code, out, err = run_cli(["eval", "--automaton", str(path), "--input", ""], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "") and "degree above 65536" in err
    alg = ba.poly_monome()
    top = alg.MAX_DEGREE
    assert alg.parse(f"x^{top}") == Polynomial((0,) * top + (1,))
    with pytest.raises(ValueError, match="degree above"):
        alg.parse(f"1+x^{top + 1}")


@pytest.mark.parametrize("alg, samples", bundled_carriers(), ids=lambda x: getattr(x, "name", ""))
def test_saved_automata_load_and_evaluate_alike_on_every_bundled_carrier(alg, samples, tmp_path, capsys):
    # each sample is an initial weight and a transition weight, so the file
    # holds every label describe writes for them
    k = len(samples)
    states = [f"q{i}" for i in range(k)]
    automaton = W.WordAutomaton(
        alg, ("a",), states, dict(zip(states, samples)), {q: alg.one for q in states},
        [(states[i], "a", states[(i + 1) % k], samples[(i + 1) % k]) for i in range(k)],
    )
    path = str(tmp_path / "automaton.json")
    fileio.save_automaton(automaton, path)
    loaded = fileio.load_automaton(path)
    assert loaded.initial == automaton.initial and loaded.final == automaton.final
    assert list(loaded.stored_transitions()) == list(automaton.stored_transitions())
    for word in ("", "a", "a a a"):
        for semantics in Semantics:
            expected = alg.describe(W.evaluate(automaton, tuple(word.split()), semantics, prune=True))
            argv = ["eval", "--automaton", path, "--input", word, "--semantics", semantics.value]
            assert run_cli(argv, capsys) == (0, expected + "\n", ""), (alg.name, word, semantics)


class _ClosedStdout:
    """A stdout whose reader has gone: every write fails as on a closed pipe."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_cli_closed_stdout_exits_quietly_with_141():
    err = io.StringIO()
    with contextlib.redirect_stdout(_ClosedStdout()), contextlib.redirect_stderr(err):
        code = cli.main(["props", "--algebra", "TruncFun(3)", "--format", "json"])
    assert (code, err.getvalue()) == (cli.BROKEN_PIPE, "") and cli.BROKEN_PIPE == 141


def test_cli_on_a_closed_pipe_writes_nothing_to_stderr_at_shutdown():
    # the pipe's read end is closed before the command starts, so its first
    # write or its final flush fails, whichever output it has
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")}
    try:
        for argv in (["props", "--algebra", "B4"], ["props", "--algebra", "TruncFun(3)", "--format", "json"]):
            result = subprocess.run(
                [sys.executable, "-m", "bimonoid_automata", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env,
            )
            assert (result.returncode, result.stderr) == (141, b""), argv
    finally:
        os.close(write_end)
