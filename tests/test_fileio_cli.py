import json

import pytest

import bimonoid_automata as ba
from bimonoid_automata import bridge, cli, fileio
from bimonoid_automata import harness as H
from bimonoid_automata import trees as T
from bimonoid_automata import words as W
from bimonoid_automata.algebra import Semantics


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
    assert alg.equal(T.initial_semantics(automaton, xi), expected)
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
    assert word_aut.matrix("a")[0][1] == 2  # from state 1 (index 0) to state 0 (index 1)
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


def test_parse_word_input_forms(probe_file):
    automaton = fileio.load_automaton(probe_file)
    assert fileio.parse_word_input(automaton, "gamma") == ("gamma",)
    assert fileio.parse_word_input(automaton, "gamma gamma") == ("gamma", "gamma")
    assert fileio.parse_word_input(automaton, "gamma,gamma") == ("gamma", "gamma")
    assert fileio.parse_word_input(automaton, "") == ()
    with pytest.raises(ValueError):
        fileio.parse_word_input(automaton, "delta")
    chars = W.WordAutomaton(ba.boole(), ("a", "b"), ("q",), (1,), (1,), [])
    assert fileio.parse_word_input(chars, "abba") == ("a", "b", "b", "a")


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


def test_cli_props_rejects_infinite(capsys):
    code, _, err = run_cli(["props", "--algebra", "NatPlusMin"], capsys)
    assert code == 2 and "finite" in err


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
}
_EMPTY_WORD_SYMBOLS = {"word-alphabet-empty": "", "word-alphabet-inner": "a,,b", "word-alphabet-trailing": "a,"}


@pytest.mark.parametrize(
    "patch, word_alphabet",
    [pytest.param(patch, None, id=name) for name, patch in _MALFORMED_FILES.items()]
    + [pytest.param(None, text, id=name) for name, text in _EMPTY_WORD_SYMBOLS.items()],
)
def test_cli_malformed_input_exits_two(tmp_path, capsys, patch, word_alphabet):
    if patch is None:
        argv = ["check", "supports-words", "--algebra", "B4", "--word-alphabet", word_alphabet]
    else:
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({**_WORD_FILE, **patch} if isinstance(patch, dict) else patch))
        argv = ["eval", "--automaton", str(path), "--input", "a"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and err.startswith("error: ")


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


def test_cli_convert_has_no_format_option(probe_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["convert", "--automaton", probe_file, "--direction", "word-to-tree",
                  "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_cli_check_and_image_defaults_are_the_config_defaults(monkeypatch, capsys):
    # cmd_check builds its TheoremCheckConfig from the parsed defaults alone
    built = []
    real = H.check_support_theorem_words
    monkeypatch.setattr(H, "check_support_theorem_words", lambda config: built.append(config) or real(config))
    code, _, _ = run_cli(["check", "supports-words", "--algebra", "B4"], capsys)
    assert code == 0
    [config] = built
    assert {**vars(config), "algebra": None} == vars(H.TheoremCheckConfig(algebra=None))
    args = cli.build_parser().parse_args(["image", "--automaton", "a.json"])
    assert (args.max_len, args.max_size) == (config.max_word_len, config.max_tree_size)


@pytest.mark.parametrize("argv", [
    ["check", "images-trees", "--algebra", "pentagon", "--tree-alphabet", "alpha:0,gamma:1",
     "--seed", "7", "--trials", "1"],
    ["check", "images-words", "--algebra", "B4", "--max-len", "2"],
    ["check", "images-words", "--algebra", "B4", "--word-alphabet", "x"],
    ["check", "images-trees", "--algebra", "B4", "--states", "2"],
    ["image", "--automaton", "WORD", "--max-size", "3"],
    ["image", "--automaton", "TREE", "--max-len", "2"],
    ["check", "supports-words", "--algebra", "B4", "--tree-alphabet", "x:0", "--trials", "2"],
    ["check", "supports-words", "--algebra", "B4", "--max-size", "3", "--trials", "2"],
    ["check", "supports-trees", "--algebra", "B4", "--word-alphabet", "zz", "--trials", "2"],
    ["check", "supports-trees", "--algebra", "B4", "--max-len", "9", "--trials", "2"],
], ids=["images-trees-sweep", "images-words-max-len", "images-words-alphabet",
        "images-trees-states", "image-word-max-size", "image-tree-max-len",
        "supports-words-tree-alphabet", "supports-words-max-size",
        "supports-trees-word-alphabet", "supports-trees-max-len"])
def test_cli_rejects_options_it_would_ignore(argv, probe_file, tree_probe_file, capsys):
    files = {"WORD": probe_file, "TREE": tree_probe_file}
    code, out, err = run_cli([files.get(a, a) for a in argv], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")
    # an option given at its default value is accepted
    code, _, _ = run_cli(["check", "images-words", "--algebra", "B4", "--seed", "42"], capsys)
    assert code == 0


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


def test_cli_check_rejects_infinite_algebra(capsys):
    code, _, err = run_cli(["check", "supports-words", "--algebra", "NatPlusMin"], capsys)
    assert code == 2 and "infinite" in err


def test_cli_allow_invalid_flag(tmp_path, capsys):
    obj = fileio.algebra_to_dict(ba.b4())
    obj["add"][2][3] = "1"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(["props", "--algebra", str(path)], capsys)
    assert code == 2 and "axioms fail" in err
    code, out, _ = run_cli(["props", "--algebra", str(path), "--allow-invalid"], capsys)
    assert code == 0


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
