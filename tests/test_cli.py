import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from dynzeta import cli, jsonio
from dynzeta.cli import main
from dynzeta.exponents import (
    apply_spec,
    check_divisibility_properties,
    membership_test,
    preimage_structure,
)
from dynzeta.series import FixSource, time_change_fix
from dynzeta.jsonio import compile_result_from_json, spec_from_json
from oracles import divisor_sum_transform

SPEC_DIR = Path(__file__).resolve().parent.parent / "demos" / "specs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestRealizableCheck:
    def test_dold_failure_exits_1(self, capsys, tmp_path):
        seq = write_json(tmp_path / "seq.json", {"n": 6, "entries": ["0", "0", "0", "8", "0", "8"]})
        code, out, _ = run(capsys, "realizable-check", seq)
        assert code == 1
        payload = json.loads(out)
        assert payload == {"verdict": "fail", "failure": "dold", "index": 6, "value": "8"}

    def test_full_shift_prefix_passes(self, capsys, tmp_path):
        seq = write_json(tmp_path / "seq.json", {"entries": [str(2**n) for n in range(1, 17)]})
        code, out, _ = run(capsys, "realizable-check", seq)
        assert code == 0
        assert json.loads(out) == {"verdict": "pass"}

    def test_empty_entries_is_usage_error(self, capsys, tmp_path):
        seq = write_json(tmp_path / "seq.json", {"n": 0, "entries": []})
        code, out, err = run(capsys, "realizable-check", seq)
        assert code == 2
        assert out == ""
        assert "entries" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "realizable-check", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read" in err


class TestZeta:
    def test_zeta_from_fix_geometric(self, capsys):
        code, out, _ = run(capsys, "zeta-from-fix", "--source", "geometric:2", "--order", "5")
        assert code == 0
        assert json.loads(out) == {"order": 5, "coeffs": ["1", "2", "4", "8", "16", "32"]}

    def test_zeta_check_pass_and_fail(self, capsys, tmp_path):
        good = write_json(tmp_path / "good.json", {"order": 4, "coeffs": ["1", "2", "4", "8", "16"]})
        code, out, _ = run(capsys, "zeta-check", good)
        assert code == 0 and json.loads(out) == {"verdict": "pass"}

        bad = write_json(tmp_path / "bad.json", {"order": 3, "coeffs": ["2", "4", "8", "16"]})
        code, out, _ = run(capsys, "zeta-check", bad)
        assert code == 1
        assert json.loads(out)["reason"] == "constant_term_not_one"


class TestApply:
    def test_tower_map_on_orbit(self, capsys):
        code, out, _ = run(
            capsys, "apply", "--map", "nn", "--source", "reg:8", "--max-n", "6"
        )
        assert code == 0
        assert json.loads(out)["entries"] == ["0", "0", "0", "8", "0", "8"]

    def test_unknown_map_is_usage_error(self, capsys):
        code, _, err = run(capsys, "apply", "--map", "frobnicate", "--source", "reg:2", "--max-n", "3")
        assert code == 2
        assert "unknown map" in err


class TestWords:
    def test_eval_empty_word_range(self, capsys, tmp_path):
        word = write_json(tmp_path / "w.json", {"gens": []})
        code, out, _ = run(capsys, "word-eval", word, "--range", "1:5")
        assert code == 0
        assert json.loads(out)["values"] == ["1", "2", "3", "4", "5"]

    def test_eval_single_point(self, capsys, tmp_path):
        word = write_json(tmp_path / "w.json", {"gens": [{"kind": "g", "p": 2, "t": 0}]})
        code, out, _ = run(capsys, "word-eval", word, "--n", "5")
        assert code == 0
        assert json.loads(out)["values"] == ["10"]

    def test_normal_form_moves_caps_right(self, capsys, tmp_path):
        word = write_json(
            tmp_path / "w.json",
            {"gens": [{"kind": "h", "p": 2, "t": 0}, {"kind": "g", "p": 2, "t": 0}]},
        )
        code, out, _ = run(capsys, "word-normal-form", word)
        assert code == 0
        assert json.loads(out) == {
            "gens": [{"kind": "g", "p": 2, "t": 0}, {"kind": "h", "p": 2, "t": 1}]
        }

    def test_range_and_n_are_exclusive(self, capsys, tmp_path):
        word = write_json(tmp_path / "w.json", {"gens": []})
        code, _, err = run(capsys, "word-eval", word, "--n", "3", "--range", "1:2")
        assert code == 2
        assert "exactly one" in err


class TestSpecs:
    def test_validate_shipped_specs(self, capsys):
        for name in ("doubling", "squaring", "constant2", "identity"):
            code, out, _ = run(capsys, "spec-validate", str(SPEC_DIR / f"{name}.json"))
            assert code == 0
            assert json.loads(out) == {"valid": True}

    def test_validate_reports_violations(self, capsys, tmp_path):
        spec = write_json(
            tmp_path / "bad.json",
            {"primes": {"2": {"shape": "unbounded", "values": [0, 0, 2]}}},
        )
        code, out, _ = run(capsys, "spec-validate", spec)
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["violations"][0]["prime"] == 2
        assert payload["violations"][0]["index"] == 1

    def test_compile_doubling_word(self, capsys, tmp_path):
        out_file = tmp_path / "word.json"
        code, out, _ = run(
            capsys, "spec-compile", str(SPEC_DIR / "doubling.json"), "--out", str(out_file)
        )
        assert code == 0 and out == ""
        payload = json.loads(out_file.read_text())
        assert payload["agreement"] == {"2": 2}
        assert len(payload["word"]["gens"]) == 3

    @pytest.mark.parametrize("name", ["doubling", "squaring", "constant2", "identity"])
    def test_compile_then_eval_matches_apply_spec(self, capsys, tmp_path, name):
        spec_path = SPEC_DIR / f"{name}.json"
        spec = spec_from_json(json.loads(spec_path.read_text()))
        out_file = tmp_path / "compiled.json"
        code, _, _ = run(capsys, "spec-compile", str(spec_path), "--out", str(out_file))
        assert code == 0
        result = compile_result_from_json(json.loads(out_file.read_text()))

        code, out, _ = run(capsys, "word-eval", str(out_file), "--range", "1:200")
        assert code == 0
        values = [int(v) for v in json.loads(out)["values"]]
        for n in range(1, 201):
            if result.admits(n):
                assert values[n - 1] == apply_spec(spec, n), (name, n)


class TestMembershipAndStructure:
    def test_tower_map_witness(self, capsys):
        code, out, _ = run(
            capsys, "membership-test", "--map", "nn", "--max-k", "8", "--max-n", "6"
        )
        assert code == 1
        assert json.loads(out) == {
            "result": "witness", "k": 8, "failure": "dold", "index": 6, "value": "8",
        }

    def test_generator_map_no_violation(self, capsys):
        code, out, _ = run(
            capsys, "membership-test", "--map", "gen:g:2:0", "--max-k", "20", "--max-n", "200"
        )
        assert code == 0
        assert json.loads(out)["result"] == "no-violation"

    def test_successor_witness(self, capsys):
        code, out, _ = run(
            capsys, "membership-test", "--map", "succ", "--max-k", "3", "--max-n", "2"
        )
        assert code == 1
        assert json.loads(out)["k"] == 2

    def test_preimage_violation_names_its_witness(self, capsys):
        # n + 1 is even exactly for odd n: the preimage starts at 1 but misses 2
        code, out, _ = run(capsys, "preimage", "--map", "succ", "--k", "2", "--max-n", "10")
        assert code == 1
        assert json.loads(out) == {"outcome": "violation", "k": 2, "max_n": 10, "witness": 2}

    def test_preimage_progression(self, capsys):
        code, out, _ = run(
            capsys, "preimage", "--map", "gen:g:2:1", "--k", "4", "--max-n", "200"
        )
        assert code == 0
        assert json.loads(out) == {"outcome": "progression", "k": 4, "max_n": 200, "step": 2}

    def test_divisibility_check_failure_exits_1(self, capsys):
        code, out, _ = run(capsys, "divisibility-check", "--map", "nn", "--max-n", "6")
        assert code == 1
        assert json.loads(out)["coprime-lcm"]["counterexample"] == [2, 3]

    def test_relation_search_is_seeded(self, capsys):
        args = ["relation-search", "--seed", "11", "--count", "30", "--length", "5", "--max-n", "500"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


class TestDeterminism:
    def test_byte_identical_output(self, capsys, tmp_path):
        seq = write_json(tmp_path / "seq.json", {"entries": ["1", "1", "1"]})
        outputs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "realizable-check", seq)
            outputs.add(out)
        assert len(outputs) == 1

    def test_maps_with_parameters(self, capsys):
        code, out, _ = run(capsys, "apply", "--map", "mul:3", "--source", "constant:1", "--max-n", "4")
        assert code == 0
        assert json.loads(out)["entries"] == ["1", "1", "1", "1"]
        code, out, _ = run(capsys, "apply", "--map", "pow:2", "--source", "geometric:2", "--max-n", "3")
        assert code == 0
        assert json.loads(out)["entries"] == ["2", "16", "512"]


class TestParserBuiltOnce:
    def test_alternating_calls_match_fresh_calls(self, capsys, tmp_path):
        doubling = str(SPEC_DIR / "doubling.json")
        out_file = tmp_path / "out.json"
        calls = [
            ("spec-validate", doubling),
            ("membership-test", "--map", "nn", "--max-k", "8", "--max-n", "6"),
            ("preimage", "--map", "succ", "--k", "3"),  # usage error: --max-n missing
            ("apply", "--map", "nn", "--source", "reg:8", "--max-n", "6", "--out", str(out_file)),
            ("divisibility-check", "--map", f"spec:{doubling}", "--max-n", "30"),  # table ends at 8
            ("frobnicate",),
            ("apply", "--map", "frobnicate", "--source", "reg:2", "--max-n", "3"),
            ("membership-test", "--map", f"spec:{doubling}", "--max-k", "12", "--max-n", "7"),
            ("spec-compile", doubling, "--out", str(out_file)),
        ]

        def call(argv, fresh):
            if fresh:
                cli._build_parser.cache_clear()
            code, out, err = run(capsys, *argv)
            written = out_file.read_text() if out_file.exists() else None
            if written is not None:
                out_file.unlink()
            return code, out, err, written

        reused = [call(argv, fresh=False) for argv in calls * 2]
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        fresh = [call(argv, fresh=True) for argv in calls * 2]
        assert reused == fresh
        assert [r[0] for r in reused[: len(calls)]] == [0, 1, 2, 0, 2, 2, 2, 0, 0]
        for argv, (code, out, err, written) in zip(calls * 2, reused):
            if "--out" in argv:
                assert written is not None and out == ""
            else:
                assert written is None and (out == "") == (code == 2)
        assert "required" in reused[2][2]


ERROR_FILES = {
    "bad_spec": {"primes": {"2": {"shape": "unbounded", "values": [2, 1]}}},
    "short_spec": {"primes": {"2": {"shape": "unbounded", "values": [1, 2]}}},
    "table3": {"entries": ["1", "3", "4"]},
    "negative": {"entries": ["1", "-3", "4"]},
    "twice_spec": {"primes": {"2": {"shape": "bounded", "values": [1]},
                              " 2": {"shape": "bounded", "values": [2]}}},
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["spec-compile", "{bad_spec}"],
            "spec is not valid: prime 2: value 1 at index 1 drops below 2 at index 0",
        ),
        (
            ["apply", "--map", "spec:{short_spec}", "--source", "reg:1", "--max-n", "8"],
            "table for prime 2 covers exponents 0..1, asked for 2",
        ),
        (
            ["apply", "--map", "identity", "--source", "table:{table3}", "--max-n", "5"],
            "table source covers n = 1..3, asked for n = 4",
        ),
        (
            ["zeta-from-fix", "--source", "table:{table3}", "--order", "5"],
            "table source covers n = 1..3, asked for n = 4",
        ),
        (
            ["apply", "--map", "identity", "--source", "reg:0", "--max-n", "5"],
            "orbit length must be >= 1, got 0",
        ),
        (
            ["apply", "--map", "identity", "--source", "reg:2", "--max-n", "0"],
            "length must be >= 1",
        ),
        (["zeta-from-fix", "--source", "geometric:2", "--order", "-1"], "order must be >= 0"),
        (
            ["realizable-check", "{negative}"],
            "sequence entry 2 is -3; expected a non-negative integer",
        ),
        (
            ["membership-test", "--map", "nn", "--max-k", "0", "--max-n", "5"],
            "max_k and max_n must be >= 1",
        ),
        (
            ["preimage", "--map", "nn", "--k", "7", "--max-n", "5"],
            "max_n = 5 must be at least k = 7",
        ),
        (["divisibility-check", "--map", "nn", "--max-n", "0"], "max_n must be >= 1"),
        (
            ["membership-test", "--map", "gen:g:4:1", "--max-k", "3", "--max-n", "5"],
            "4 is not prime",
        ),
        (
            ["membership-test", "--map", "gen:x:2:1", "--max-k", "3", "--max-n", "5"],
            "unknown generator kind 'x'",
        ),
        (["spec-compile", "{twice_spec}"], "prime 2 is keyed twice in 'primes'"),
        (
            # a strong pseudoprime to every prime base up to 37
            ["preimage", "--map", "gen:g:318665857834031151167461:0", "--k", "2", "--max-n", "10"],
            "318665857834031151167461 is not prime",
        ),
        (
            # psi_13, a strong pseudoprime to every prime base up to 41
            ["preimage", "--map", "gen:g:3317044064679887385961981:0", "--k", "2", "--max-n", "10"],
            "3317044064679887385961981 is not prime",
        ),
        # mul:C is factored when parsed: the library's own errors still come first
        (
            ["apply", "--map", "mul:6", "--source", "reg:2", "--max-n", "0"],
            "length must be >= 1",
        ),
        (
            ["membership-test", "--map", "mul:6", "--max-k", "0", "--max-n", "10"],
            "max_k and max_n must be >= 1",
        ),
    ],
)
def test_library_errors_exit_2_with_their_message(capsys, tmp_path, argv, message):
    # errors raised below the CLI reach stderr through main's one handler,
    # message unchanged, and nothing reaches stdout
    paths = {name: write_json(tmp_path / f"{name}.json", obj) for name, obj in ERROR_FILES.items()}
    argv = [arg.format_map(paths) for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# (C = (10**12 + 39) * (10**12 + 61)): its division by the primes <= max-n
# takes time linear in max-n
BIG_MUL = "mul:1000000000100000000002379"
NUMBER_CHECKS = [
    (["apply", "--source", "reg:2", "--max-n", "0"],
     lambda: time_change_fix(lambda n: n, FixSource.single_orbit(2), 0)),
    (["membership-test", "--max-k", "0", "--max-n", "1000000000000"],
     lambda: membership_test(lambda n: n, 0, 10**12)),
    (["preimage", "--k", "0", "--max-n", "1000000000000"],
     lambda: preimage_structure(lambda n: n, 0, 10**12)),
    (["preimage", "--k", "7", "--max-n", "5"], lambda: preimage_structure(lambda n: n, 7, 5)),
    (["divisibility-check", "--max-n", "0"], lambda: check_divisibility_properties(lambda n: n, 0)),
]


def library_message(call):
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


@pytest.mark.parametrize("argv, call", NUMBER_CHECKS)
def test_numbers_are_checked_before_mul_is_factored(capsys, monkeypatch, argv, call):
    # with the factoring broken, a request whose numbers fail exits 2 with
    # the library's message, as its map is never parsed
    def broken(c, max_n):
        raise AssertionError("mul:C was factored")

    monkeypatch.setattr(cli, "_mul_map", broken)
    argv = [argv[0], "--map", BIG_MUL, *argv[1:]]
    assert run(capsys, *argv) == (2, "", f"error: {library_message(call)}\n")


@pytest.mark.parametrize("argv, call", NUMBER_CHECKS)
@pytest.mark.parametrize("bad_map", ["mul:x", "bogus", "gen:g:4:1", "spec:missing.json"])
def test_a_bad_number_is_reported_before_a_bad_map(capsys, argv, call, bad_map):
    argv = [argv[0], "--map", bad_map, *argv[1:]]
    assert run(capsys, *argv) == (2, "", f"error: {library_message(call)}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["realizable-check", "{not_json}"],
         "{not_json} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (["apply", "--map", "gen:g:2", "--source", "reg:1", "--max-n", "3"],
         "expected gen:KIND:P:T, got 'gen:g:2'"),
        (["apply", "--map", "identity", "--source", "foo:1", "--max-n", "3"],
         "unknown source 'foo:1'"),
        (["word-eval", "{word}", "--range", "3"], "--range wants A:B, got '3'"),
        (["word-eval", "{word}", "--range", "5:3"], "empty range '5:3'"),
        (["zeta-from-fix", "--source", "geometric:2", "--order", "3", "--out", "{missing}"],
         "cannot write {missing}: [Errno 2] No such file or directory: '{missing}'"),
        (["zeta-from-fix", "--source", "geometric:2", "--order", "3", "--out", "{dir}"],
         "cannot write {dir}: [Errno 21] Is a directory: '{dir}'"),
    ],
)
def test_usage_errors_exit_2_with_their_message(capsys, tmp_path, argv, message):
    not_json = tmp_path / "not.json"
    not_json.write_text("nope")
    paths = {
        "not_json": str(not_json),
        "word": write_json(tmp_path / "word.json", {"gens": []}),
        "missing": str(tmp_path / "missing" / "out.json"),
        "dir": str(tmp_path),
    }
    argv = [arg.format_map(paths) for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message.format_map(paths)}\n")


def test_internal_errors_exit_3_with_one_line(capsys, monkeypatch):
    # an exception that is not a ValueError is the library breaking, not bad
    # input: exit 3, its type and message on one stderr line, no traceback
    def broken(args):
        return 1 // 0

    monkeypatch.setattr(cli, "cmd_zeta_from_fix", broken)
    # the cached parser holds the handlers it was built with
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert run(capsys, "zeta-from-fix", "--source", "geometric:2", "--order", "3") == (
        3, "", "internal error: ZeroDivisionError: integer division or modulo by zero\n"
    )


@pytest.mark.parametrize(
    "argv, text, key",
    [
        (
            ["spec-compile", "{file}"],
            '{"primes": {"2": {"shape": "bounded", "values": [5]},'
            ' "2": {"shape": "bounded", "values": [1]}}, "default": "identity"}',
            "2",
        ),
        (
            ["word-eval", "{file}", "--n", "3"],
            '{"word": {"gens": [{"kind": "g", "p": 3, "t": 1}]}, "agreement": {"3": 1},'
            ' "word": {"gens": []}}',
            "word",
        ),
        (
            ["realizable-check", "{file}"],
            '{"n": 2, "entries": ["1", "3"], "entries": ["1", "1"]}',
            "entries",
        ),
    ],
    ids=["spec", "compile-result", "sequence"],
)
def test_repeated_keys_exit_2_naming_the_file_and_key(capsys, tmp_path, argv, text, key):
    # json.load keeps the last of two equal keys, so without the check each
    # file here is read as a different, valid request and exits 0
    path = tmp_path / "repeated.json"
    path.write_text(text)
    argv = [arg.format(file=path) for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {path} repeats the key {key!r} in one object\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["realizable-check", "{file}"],
        ["zeta-check", "{file}"],
        ["word-eval", "{file}", "--n", "3"],
        ["word-normal-form", "{file}"],
        ["spec-validate", "{file}"],
        ["spec-compile", "{file}"],
        ["apply", "--map", "word:{file}", "--source", "reg:1", "--max-n", "3"],
        ["apply", "--map", "spec:{file}", "--source", "reg:1", "--max-n", "3"],
        ["zeta-from-fix", "--source", "table:{file}", "--order", "3"],
    ],
    ids=lambda argv: argv[0] if "{file}" in argv[1] else argv[2].split(":")[0],
)
def test_deeply_nested_json_exits_2_with_one_line(capsys, tmp_path, argv):
    # json.load recurses once per level: past the recursion limit the file
    # is malformed input, not the library breaking (exit 3)
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    argv = [arg.format(file=path) for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {path} nests its JSON too deeply to read\n")


# -- a long count file is read as exact decimals: both paths give one answer --

ARABIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
ENCODINGS = {
    "string": str,
    "number": lambda v: v if abs(v) < 10**18 else str(v),
    "plus": lambda v: f"+{v}",
    "spaced": lambda v: f" {v}\n",
    "underscored": lambda v: f"{str(v)[:1]}_{str(v)[1:]}" if len(str(v)) > 1 else str(v),
    "arabic": lambda v: str(v).translate(ARABIC_DIGITS),
    "leading-zeros": lambda v: f"00{v}",
}


def run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def realizable_check_both_ways(path, entries) -> tuple[int, str, str]:
    """realizable-check on a file of these entries, as ints, as exact
    decimals, and as the file padded past the switch; the three must agree."""
    text = json.dumps({"n": len(entries), "entries": entries})
    path.write_text(text)
    with patch.object(jsonio, "_DECIMAL_BYTES_PER_ENTRY", 10**12):
        as_ints = run_quiet("realizable-check", str(path))
    with patch.object(jsonio, "_DECIMAL_BYTES_PER_ENTRY", 0):
        as_decimals = run_quiet("realizable-check", str(path))
    path.write_text(text + " " * (jsonio._DECIMAL_BYTES_PER_ENTRY + 1) * len(entries))
    padded = run_quiet("realizable-check", str(path))
    assert as_ints == as_decimals == padded
    return as_ints


def expected_check(entries) -> tuple[int, str, str] | None:
    """The oracle's answer for entries int() reads, else None."""
    try:
        values = [e if isinstance(e, int) else int(e, 10) for e in entries]
    except ValueError:
        return None
    for i, v in enumerate(values, start=1):
        if v < 0:
            return 2, "", f"error: sequence entry {i} is {v}; expected a non-negative integer\n"
    for n, b in enumerate(divisor_sum_transform(values), start=1):
        if b < 0 or b % n:
            payload = {"verdict": "fail", "failure": "sign" if b < 0 else "dold",
                       "index": n, "value": str(b)}
            return 1, json.dumps(payload, indent=2) + "\n", ""
    return 0, json.dumps({"verdict": "pass"}, indent=2) + "\n", ""


@st.composite
def count_files(draw):
    """Entries a_n = sum over d | n of d * O_d, maybe made to fail the sign
    condition (or go negative) or the Dold congruence at one index, each
    written in one of int()'s forms."""
    n = draw(st.integers(min_value=1, max_value=12))
    digits = draw(st.sampled_from([1, 30, 1200]))
    orbits = [draw(st.integers(min_value=0, max_value=10**digits)) for _ in range(n)]
    values = [sum(d * orbits[d - 1] for d in range(1, m + 1) if m % d == 0) for m in range(1, n + 1)]
    change = draw(st.sampled_from(["none", "sign", "dold", "zeros"]))
    if change == "zeros":
        values = [0] * n
    elif change != "none" and n > 1:
        j = draw(st.integers(min_value=2, max_value=n))
        values[j - 1] += 1 if change == "dold" else -(j * orbits[j - 1] + 1)
    return [ENCODINGS[draw(st.sampled_from(sorted(ENCODINGS)))](v) for v in values]


@settings(max_examples=60, deadline=None)
@given(count_files())
def test_long_count_files_read_as_decimals_give_the_same_bytes(entries):
    with tempfile.TemporaryDirectory() as tmp:
        result = realizable_check_both_ways(Path(tmp) / "counts.json", entries)
    expected = expected_check(entries)
    if expected is not None:
        assert result == expected
    else:
        assert result[0] == 2 and "is not a decimal integer" in result[2]


X = 6 * 10**4299  # 4300 digits, divisible by 6


@pytest.mark.parametrize(
    "entries, message",
    [
        (["9" * 4300], None),
        (["7" * 4300, "7" * 4300, "+5", " 7\n", "1_000", "٣"], None),
        (["9" * 4300, "9" * 4301], "error: entry 2 is not a decimal integer: '999"),
        (["9" * 4300, "-3"], "error: sequence entry 2 is -3; expected a non-negative integer"),
        (["9" * 4300, "1 2"], "error: entry 2 is not a decimal integer: '1 2'"),
        # b_6 = -2 X has 4301 digits, one past the limit on writing it
        (["0", str(X), str(X), str(X), "0", "0"], "error: Exceeds the limit (4300 digits)"),
    ],
    ids=["4300-digits", "int-forms", "4301-digits", "negative", "inner-space", "long-value"],
)
def test_edge_counts_give_the_same_bytes_both_ways(tmp_path, entries, message):
    result = realizable_check_both_ways(tmp_path / "counts.json", entries)
    if message is None:
        assert result == expected_check(entries)
    else:
        code, out, err = result
        assert (code, out) == (2, "")
        assert err.startswith(message) and err.count("\n") == 1 and len(err) < 300
