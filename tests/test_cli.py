import io
import json
import contextlib
import re
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import diffmonads as dm
from diffmonads import cli, syntax
from diffmonads.cli import main
from diffmonads.errors import TooLarge


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_derive_words():
    code, out, _ = run_cli("derive", "--theory", "zinbiel", "x1.x2")
    assert code == 0
    assert out.strip() == "dx1.x2"


def test_derive_power_series():
    code, out, _ = run_cli("derive", "--theory", "power", "--cap", "4",
                           "x1*x2")
    assert code == 0
    assert out.strip() == "x1*dx2 + x2*dx1"


def test_compose_divided_structure_constant():
    code, out, _ = run_cli("compose", "--theory", "divided", "--field", "Q",
                           "x1^[2]", "/", "x1^[2]*x2^[1]")
    assert code == 0
    assert out.strip() == "6*x1^[4]*x2^[2]"


def test_compose_multi_component(tmp_path):
    path = tmp_path / "inner.json"
    path.write_text(json.dumps({"arity": 1, "components": ["x1", "x1^2"]}))
    code, out, _ = run_cli("compose", "--theory", "power", "--cap", "3",
                           "x1*x2", "/", f"@{path}")
    assert code == 0
    assert out.strip() == "x1^3"


def test_mul_and_dpow_and_convert():
    code, out, _ = run_cli("mul", "--theory", "zinbiel", "x1", "x2")
    assert code == 0 and out.strip() == "x1.x2 + x2.x1"
    code, out, _ = run_cli("dpow", "--theory", "divided", "x1^[2]", "3")
    assert code == 0 and out.strip() == "15*x1^[6]"
    code, out, _ = run_cli("convert", "x1^[1]*x2^[1]")
    assert code == 0 and out.strip() == "x1.x2 + x2.x1"


def test_field_flag():
    code, out, _ = run_cli("compose", "--theory", "divided", "--field", "F2",
                           "x1^[2]", "/", "x1^[2]*x2^[1]")
    assert code == 0 and out.strip() == "0"


def test_json_output():
    code, out, _ = run_cli("derive", "--theory", "zinbiel", "--json", "x1.x2")
    assert code == 0
    data = json.loads(out)
    assert data == {"result": "dx1.x2", "arity": 4, "base_arity": 2}


def test_parse_error_maps_to_exit_2():
    code, out, err = run_cli("derive", "--theory", "zinbiel", "x1..x2")
    assert code == 2
    assert "error:" in err


def test_usage_error_maps_to_exit_2():
    code, _, _ = run_cli("dpow", "--theory", "zinbiel", "x1", "2")
    assert code == 2
    code, _, _ = run_cli("mul", "--theory", "trivial", "x1", "x1")
    assert code == 2
    code, _, _ = run_cli("nonsense")
    assert code == 2


def test_check_exit_codes(monkeypatch):
    code, out, _ = run_cli("check", "--theory", "trivial", "--trials", "5")
    assert code == 0
    assert "all axioms pass" in out

    from diffmonads import cdc

    def failing(axiom, theory, cfg, trials):
        report = cdc.AxiomReport(axiom, trials)
        report.failures.append(cdc.Failure(1, {"t": "x1"}, "x1", "0"))
        return report

    monkeypatch.setattr(cdc, "run_axiom", failing)
    code, out, _ = run_cli("check", "--theory", "trivial", "--trials", "5")
    assert code == 1


def test_ctrl_c_exits_2_without_a_traceback(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "derive", (interrupted, "interrupted"))
    assert run_cli("derive", "x1") == (2, "", "")


@pytest.mark.parametrize("field", [dm.rationals(), dm.prime_field(5)],
                         ids=repr)
def test_a_size_bound_inside_check_names_its_axiom_and_seed(field):
    """At cap 20 a product of monad.assoc passes the size bound: the error
    names the axiom and the trial seed, and run_trial replays it."""
    code, out, err = run_cli("check", "--theory", "power", "--cap", "20",
                             "--field", repr(field))
    assert (code, out) == (2, "")
    m = re.fullmatch(r"error: monad\.assoc trial seed (\d+): products "
                     r"expand over \d+ term products\n", err)
    assert m, err
    from diffmonads import cdc

    theory = dm.make_theory("power", field, 20)
    with pytest.raises(TooLarge, match="products expand over"):
        cdc.run_trial("monad.assoc", theory, dm.GenConfig(seed=42),
                      int(m.group(1)))


def test_check_json_deterministic_across_runs_and_jobs():
    args = ("check", "--theory", "power", "--field", "F5", "--cap", "4",
            "--seed", "42", "--trials", "10", "--json")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    code3, out3, _ = run_cli(*args, "--jobs", "3")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert {r["axiom"] for r in payload["reports"]} == set(dm.cdc.axiom_ids())
    assert all("millis" not in r for r in payload["reports"])


def test_check_timing_flag_adds_millis():
    code, out, _ = run_cli("check", "--theory", "trivial", "--trials", "3",
                           "--json", "--timing")
    assert code == 0
    payload = json.loads(out)
    assert all("millis" in r for r in payload["reports"])


@pytest.mark.parametrize("argv", [
    ("integrate", "x1"),
    ("check", "--theory", "trivial", "--trials", "1", "--arity", "2"),
    ("dpow", "--cap", "4", "x1", "2"),
    ("derive", "--theory", "zinbiel", "--cap", "3", "x1"),
])
def test_options_and_commands_that_would_not_act_exit_2(argv):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err


def test_cap_acts_on_the_power_theory_only():
    assert not [name for name in dir(dm) if "integra" in name]
    # the default theory is power: --cap is taken and bounds the degree
    assert run_cli("derive", "--cap", "5", "x1^5")[:2] == (0, "5*x1^4*dx1\n")
    assert run_cli("derive", "x1^6")[0] == 0
    assert run_cli("derive", "--cap", "4", "x1^5") == \
        (2, "", "error: degree 5 exceeds cap 4\n")
    assert run_cli("derive", "x1^7") == \
        (2, "", "error: degree 7 exceeds cap 6\n")
    code, _, err = run_cli("mul", "--theory", "poly", "--cap", "6", "x1", "x2")
    assert (code, err) == (2, "error: the poly theory takes no --cap\n")
    # dpow and convert hide --cap, so it is named, not taken for an operand
    for argv in (("dpow", "--cap", "4", "x1", "2"),
                 ("convert", "--cap", "4", "x1")):
        assert run_cli(*argv) == \
            (2, "", "error: the divided theory takes no --cap\n")


def test_arity_inference_reads_every_variable_token():
    code, out, err = run_cli("derive", "x0")
    assert (code, out) == (2, "")
    assert err.startswith("error: variable number 0 outside base block")
    code, out, err = run_cli("derive", "3")
    assert (code, out) == (2, "")
    assert err == "error: no variables found; cannot infer the arity\n"
    # a dual token under an inferred arity lies past it
    code, _, err = run_cli("derive", "--theory", "zinbiel", "dx1")
    assert code == 2 and "exceeds arity 1" in err


def test_docstring_lists_the_commands():
    listed = re.search(r"Commands: ([\w, ]+)\.", cli.__doc__).group(1)
    sub = next(a for a in cli.build_parser()._actions
               if a.dest == "command")
    assert listed.split(", ") == list(sub.choices) == list(cli._COMMANDS)


def test_unknown_prime_field_exits_2():
    code, _, err = run_cli("derive", "--theory", "power", "--field", "F4",
                           "x1*x2")
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("--theory", "poly", "--", "1/0*x1"), "zero denominator (at position 2)"),
    (("--field", "F5", "--", "1/5*x1"),
     "denominator 5 is zero in F5 (at position 2)"),
    (("--field", "F5", "--", "x2 - 2/15*x1"),
     "denominator 15 is zero in F5 (at position 7)"),
])
def test_a_vanishing_denominator_exits_2_at_its_position(argv, message):
    assert run_cli("derive", *argv) == (2, "", f"error: {message}\n")


def test_a_divided_power_product_past_the_degree_limit_exits_2():
    assert run_cli("mul", "--theory", "divided", "x1^[40000]",
                   "x1^[40000]") == \
        (2, "", "error: divided power product exceeds the degree limit "
                "65535\n")


def test_zeroth_divided_power_exits_2():
    code, _, err = run_cli("dpow", "--", "x1^[2] + x2", "0")
    assert code == 2
    assert err.startswith("error:")


def test_missing_morphism_file_exits_2(tmp_path):
    code, _, err = run_cli("compose", "--theory", "power",
                           f"@{tmp_path / 'missing.json'}", "/", "x1")
    assert code == 2
    assert err.startswith("error:")


def test_morphism_file_without_components_exits_2(tmp_path):
    path = tmp_path / "no_components.json"
    path.write_text(json.dumps({"arity": 1}))
    code, _, err = run_cli("compose", "--theory", "power", f"@{path}", "/",
                           "x1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("top", [[1, 2], "x1", 3],
                         ids=["list", "string", "number"])
def test_morphism_file_must_hold_a_json_object(tmp_path, top):
    path = tmp_path / "l.json"
    path.write_text(json.dumps(top))
    code, out, err = run_cli("compose", "x1", "/", f"@{path}")
    assert (code, out) == (2, "")
    assert err == (f'error: {path}: expected a JSON object with "arity" and '
                   '"components"\n')


def test_deeply_nested_morphism_file_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli("compose", "x1", "/", f"@{path}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read a morphism from {path}: ")
    assert err.count("\n") == 1


def test_unbounded_divided_power_exits_2_quickly():
    import time

    started = time.perf_counter()
    code, _, err = run_cli("dpow", "x1+x2+x3+x4+x5+x6", "40")
    assert code == 2
    assert "compositions" in err
    assert time.perf_counter() - started < 1.0


def test_high_powers_compose_without_recursion():
    code, out, err = run_cli("compose", "--theory", "power", "--cap", "5000",
                             "x1^2000", "/", "x1")
    assert (code, out.strip(), err) == (0, "x1^2000", "")
    code, out, err = run_cli("compose", "--theory", "poly", "x1^3000", "/",
                             "x1")
    assert (code, out.strip(), err) == (0, "x1^3000", "")


def test_long_word_product_exits_2_quickly():
    word = ".".join(f"x{i % 3 + 1}" for i in range(24))
    started = time.perf_counter()
    code, _, err = run_cli("mul", "--theory", "zinbiel", word, word)
    assert code == 2
    assert err.startswith("error:") and "interleavings" in err
    assert time.perf_counter() - started < 1.0


def test_long_word_half_shuffle_without_recursion():
    word = ".".join(["x1"] * 1500)
    code, out, err = run_cli("mul", "--theory", "zinbiel", word, "x2")
    assert (code, err) == (0, "")
    # x2 lands at each of the 1501 positions once
    assert len(out.split(" + ")) == 1501


@pytest.mark.parametrize("argv", [
    ("--theory", "power", "--cap", "3000", "x1^3000", "/", "x1+x2"),
    ("--theory", "poly", "x1^3000", "/", "x1+x2"),
    ("--theory", "divided", "x1^[400]*x2^[400]", "/", "x1+x2", "x1+x2"),
])
def test_large_substitution_exits_2_quickly(argv):
    started = time.perf_counter()
    code, out, err = run_cli("compose", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "term products" in err
    assert time.perf_counter() - started < 1.0


# Each of the two substituted words is a half-shuffle of two 10-letter words,
# 92,378 interleavings; together they pass the one budget of the call.
ZIN_WORDS = ("x1.x2 + x2.x1", "/", ".".join(["x1"] * 10),
             ".".join(["x2"] * 10))
# 399 terms times 399 terms: 159,201 term products in one call.
TERMS_399 = {kind: " + ".join(f"x1{fmt.format(i)}*x2{fmt.format(j)}"
                              for i in range(1, 22) for j in range(1, 20))
             for kind, fmt in (("poly", "^{}"), ("divided", "^[{}]"))}


def test_word_substitution_shares_one_budget():
    started = time.perf_counter()
    code, out, err = run_cli("compose", "--theory", "zinbiel", *ZIN_WORDS)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "interleavings" in err
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("kind", ["poly", "divided"])
def test_large_product_exits_2_quickly(kind):
    started = time.perf_counter()
    code, out, err = run_cli("mul", "--theory", kind, TERMS_399[kind],
                             TERMS_399[kind])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "term products" in err
    assert time.perf_counter() - started < 1.0


def test_large_conversion_exits_2_quickly():
    started = time.perf_counter()
    code, _, err = run_cli("convert", "x1^[12]*x2^[12]")
    assert code == 2
    assert err.startswith("error:") and "words" in err
    assert time.perf_counter() - started < 1.0
    code, out, _ = run_cli("convert", "x1^[9]*x2^[9]")
    assert code == 0 and len(out.split(" + ")) == 48620
    code, out, _ = run_cli("convert", "x1^[3000]")
    assert code == 0 and out.strip() == ".".join(["x1"] * 3000)


@pytest.mark.parametrize("argv", [
    ("derive", "--theory", "power", "x99999"),
    ("derive", "--theory", "divided", "x99999"),
    ("mul", "--theory", "poly", "x99999", "x1"),
    ("derive", "--theory", "power", "--arity", "300000", "x1"),
    ("derive", "--theory", "divided", "x999999"),
])
def test_too_many_variables_exit_2_quickly(argv):
    started = time.perf_counter()
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "variables exceed" in err
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("number", ["99999999", "99999999999999999999"])
@pytest.mark.parametrize("theory", ["power", "divided"])
def test_huge_variable_numbers_exit_2_before_a_key_is_built(theory, number):
    code, out, err = run_cli("derive", "--theory", theory, f"x{number}")
    assert (code, out) == (2, "")
    assert err == (f"error: {number} variables exceed the limit 1024 of "
                   "packed monomials\n")


@pytest.mark.parametrize("theory", ["power", "divided"])
def test_the_arity_limit_has_one_error_text(theory):
    """Past the limit, building an element and parsing one say the same."""
    with pytest.raises(TooLarge) as built:
        dm.make_theory(theory, dm.rationals()).zero(1025)
    code, out, err = run_cli("derive", "--theory", theory, "x1025")
    assert (code, out, err) == (2, "", f"error: {built.value}\n")
    assert err == "error: 1025 variables exceed the limit 1024 of packed " \
        "monomials\n"


@pytest.mark.parametrize("argv", [
    ("derive", "--theory", "poly", "--", "x\u0661"),  # Arabic-Indic one
    ("derive", "--theory", "poly", "--", "2\u0662*x1"),  # Arabic-Indic two
    ("derive", "--field", "F\u0665", "x1"),  # Arabic-Indic five
    ("derive", "--", "x\uff11"),  # fullwidth one
    ("derive", "--", "x1\u3000+ x2"),  # ideographic space
], ids=["digit-variable", "digit-coefficient", "digit-field",
        "fullwidth-digit", "ideographic-space"])
def test_non_ascii_digits_and_spaces_exit_2(argv):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_a_huge_variable_number_allocates_little():
    tracemalloc.start()
    try:
        code, _, _ = run_cli("derive", "x99999999")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 4 << 20  # a key over the arity would take 200 MB


def test_words_take_any_number_of_variables():
    code, out, err = run_cli("derive", "--theory", "zinbiel", "x99999.x1")
    assert (code, out.strip(), err) == (0, "dx99999.x1", "")


def test_divided_power_of_a_short_sum_is_quick():
    started = time.perf_counter()
    code, out, err = run_cli("dpow", "x1+x2", "3000")
    assert (code, err) == (0, "")
    terms = out.strip().split(" + ")
    assert len(terms) == 3001 and terms[0] == "x1^[1]*x2^[2999]"
    assert time.perf_counter() - started < 1.0


def test_composition_with_a_short_sum_is_quick():
    # (x1+x2)^[2] * (x1+x2)^[3000] = C(3002, 2) * (x1+x2)^[3002]
    started = time.perf_counter()
    code, out, err = run_cli("compose", "--theory", "divided",
                             "x1^[2]*x2^[3000]", "/", "x1+x2", "x1+x2")
    assert (code, err) == (0, "")
    terms = out.strip().split(" + ")
    assert len(terms) == 3003
    assert all(t.startswith("4504501*") for t in terms)
    assert time.perf_counter() - started < 1.0


def test_variable_number_past_the_digit_limit_exits_2():
    for argv in (("derive", "x" + "1" * 5000),
                 ("derive", "--arity", "2", "x" + "1" * 5000)):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "number too long" in err


def test_compose_with_declared_arity_0_exits_2(tmp_path):
    code, out, err = run_cli("compose", "--arity", "0", "x1", "/", "x1")
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    path = tmp_path / "outer.json"
    path.write_text(json.dumps({"arity": 0, "components": ["x1"]}))
    code, out, err = run_cli("compose", "--theory", "poly", f"@{path}", "/",
                             "x1")
    assert (code, out) == (2, "")
    assert "needs 0 inner components" in err


@pytest.mark.parametrize("argv", [
    ("derive", "--theory", "poly", "--arity", "-1", "3"),
    ("mul", "--theory", "poly", "--arity", "-2", "3", "4"),
    ("compose", "--theory", "poly", "--arity", "-1", "x1", "/", "3"),
    ("derive", "--theory", "power", "--arity", "-1", "x1"),
    ("compose", "--theory", "power", "--arity", "-1", "x1", "/", "x1"),
])
def test_negative_arity_exits_2(argv):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err == f"error: --arity must be at least 0, got {argv[4]}\n"


@pytest.mark.parametrize("arity", [2.9, True, "2", -1, None])
def test_morphism_file_arity_must_be_a_json_integer(tmp_path, arity):
    path = tmp_path / "outer.json"
    path.write_text(json.dumps({"arity": arity, "components": ["x1"]}))
    code, out, err = run_cli("compose", "--theory", "poly", f"@{path}", "/",
                             "x1", "x2")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: arity must be an integer >= 0\n"


def test_compose_with_disagreeing_declared_arities_exits_2(tmp_path):
    f1, f2 = tmp_path / "f1.json", tmp_path / "f2.json"
    f1.write_text(json.dumps({"arity": 1, "components": ["x1*x1"]}))
    f2.write_text(json.dumps({"arity": 2, "components": ["x1*x2"]}))
    code, out, err = run_cli("compose", "--theory", "poly", f"@{f1}",
                             f"@{f2}", "/", "x1", "x2")
    assert (code, out) == (2, "")
    assert "declares arity 2, but 1 is declared too" in err
    code, out, err = run_cli("compose", "--theory", "poly", "--arity", "2",
                             "x1", "/", f"@{f1}")
    assert (code, out) == (2, "")
    assert "declares arity 1, but 2 is declared too" in err
    code, out, err = run_cli("compose", "--theory", "poly", "--arity", "1",
                             "x1*x2", "/", f"@{f1}", "x1")
    assert (code, out.strip(), err) == (0, "x1^3", "")


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_check_needs_at_least_one_trial(trials):
    code, out, err = run_cli("check", "--theory", "trivial", "--trials",
                             trials)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_check_needs_at_least_one_job(jobs):
    code, out, err = run_cli("check", "--theory", "trivial", "--trials", "1",
                             "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("value", ["\u0662", "\uff12", " 2 "],
                         ids=["arabic-indic", "fullwidth", "blanks"])
@pytest.mark.parametrize("argv", [
    ("derive", "--cap", "{}", "x1"),
    ("derive", "--arity", "{}", "x1"),
    ("check", "--theory", "trivial", "--seed", "{}"),
    ("check", "--theory", "trivial", "--trials", "{}"),
    ("check", "--theory", "trivial", "--jobs", "{}"),
    ("dpow", "--", "x1^[1]", "{}"),
], ids=["cap", "arity", "seed", "trials", "jobs", "n"])
def test_integer_options_take_ascii_digits_only(argv, value):
    code, out, err = run_cli(*(value if a == "{}" else a for a in argv))
    assert (code, out) == (2, "")
    assert err.endswith(f"invalid int value: {value!r}\n")
    assert "Traceback" not in err


def test_integer_options_take_a_sign_and_leading_zeros():
    assert run_cli("dpow", "--", "x1^[1]", "+002") == (0, "x1^[2]\n", "")


@pytest.mark.parametrize("argv, operands", [
    (("derive", "x1*x2"), ["x1*x2"]),
    (("mul", "--theory", "zinbiel", "x1", "x2.x1"), ["x1", "x2.x1"]),
    (("compose", "x1*x2", "/", "x1", "x1^2"), ["x1", "x1^2", "x1*x2"]),
    (("dpow", "x1^[1]", "2"), ["x1^[1]"]),
    (("convert", "x1^[2]"), ["x1^[2]"]),
], ids=["derive", "mul", "compose", "dpow", "convert"])
def test_each_operand_is_tokenized_once(monkeypatch, argv, operands):
    seen = []
    tokenize = syntax._tokenize
    monkeypatch.setattr(syntax, "_tokenize",
                        lambda text: seen.append(text) or tokenize(text))
    assert run_cli(*argv)[0] == 0
    assert seen == operands


def test_an_operand_that_does_not_tokenize_is_named_before_the_arity():
    assert run_cli("derive", "1 $") == \
        (2, "", "error: unexpected character '$' (at position 2)\n")
    # the inner morphism is read first
    assert run_cli("compose", "x1 $", "/", "1 %") == \
        (2, "", "error: unexpected character '%' (at position 2)\n")


# -- fuzz: any argv from a small grammar exits 0, 1 or 2 ----------------------

_MALFORMED = ("x0", "x1^", "x1^[2", "x1..x2", "1/0", "+", "x1^0", "3*",
              "x1*3", "dx", "@missing.json", "/", "--cap", "-3", "#", "")


@st.composite
def _expression(draw):
    """Sums of small terms in any notation, one high power of a variable
    (exponents up to 3000), or a word of up to 24 letters."""
    shape = draw(st.sampled_from(("small", "big", "word")))
    var = st.integers(1, 3).map(lambda k: f"x{k}")
    if shape == "word":
        return ".".join(draw(st.lists(var, min_size=1, max_size=24)))
    if shape == "big":
        e = draw(st.integers(1, 3000))
        return draw(var) + draw(st.sampled_from((f"^{e}", f"^[{e}]")))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [draw(var) + draw(st.sampled_from(
            ("", "^2", "^3", "^[1]", "^[2]", ".x1", ".x2.x3")))
            for _ in range(draw(st.integers(1, 2)))]
        coeff = draw(st.sampled_from(("", "2*", "3/2*", "-1*")))
        terms.append(coeff + "*".join(factors))
    return " + ".join(terms)


@st.composite
def _argv(draw):
    """Options where they act; about 1 in 8 argvs also gets them where they
    do not (--cap off the power theory, --arity on check)."""
    command = draw(st.sampled_from(
        ("derive", "compose", "mul", "dpow", "convert", "check")))
    argv = [command]
    theory = None
    if draw(st.booleans()):
        theory = draw(st.sampled_from(list(dm.THEORIES)))
        argv += ["--theory", theory]
    argv += ["--field", draw(st.sampled_from(("Q", "F2", "F5", "F4")))]
    misplaced = draw(st.integers(0, 7)) == 0
    power = (theory or ("divided" if command in ("dpow", "convert")
                        else "power")) == "power"
    if (power or misplaced) and draw(st.booleans()):
        argv += ["--cap", str(draw(st.sampled_from((-1, 0, 1, 2, 4, 5000))))]
    if (command != "check" or misplaced) and draw(st.booleans()):
        argv += ["--arity", str(draw(st.integers(-2, 4)))]
    if command == "check":
        argv += ["--trials", str(draw(st.integers(-1, 2))),
                 "--seed", str(draw(st.integers(0, 10 ** 6)))]
        operands = []
    elif command == "compose":
        operands = [draw(_expression()), "/"] + \
            [draw(_expression()) for _ in range(draw(st.integers(1, 2)))]
    elif command == "mul":
        operands = [draw(_expression()), draw(_expression())]
    elif command == "dpow":
        operands = [draw(_expression()),
                    str(draw(st.sampled_from((-1, 0, 1, 2, 3, 40))))]
    else:
        operands = [draw(_expression())]
    if draw(st.integers(0, 3)) == 0:
        operands.insert(draw(st.integers(0, len(operands))),
                        draw(st.sampled_from(_MALFORMED)))
    return argv + ["--"] + operands


@settings(max_examples=100, deadline=None)
@given(_argv())
@example(["dpow", "--field", "Q", "--", "x1^[69]", "40"])  # 4500 digits
@example(["convert", "--", "x1^[2000]"])
@example(["derive", "--theory", "poly", "--", "1" * 5000 + "*x1"])
@example(["derive", "--", "x" + "1" * 5000])
@example(["derive", "--theory", "poly", "--arity", "-1", "--", "3"])
def test_fuzzed_argv_exits_0_1_or_2(argv):
    code, _, err = run_cli(*argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
