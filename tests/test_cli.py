"""Parsers, canonical printers, file formats, and subcommands."""

import copy
import functools
import io
import json
import operator
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidconn import cli
from rigidconn.adk import Certificate, Moebius, ReplayMismatch, TwoSpecialPoints, replay_certificate
from rigidconn.cli import (
    EXIT_INPUT,
    EXIT_NOT_RIGID,
    EXIT_OK,
    EXIT_UNDECIDED,
    INPUT_ERRORS,
    MAX_LEVEL,
    MAX_POLE_ORDER,
    MAX_RAMIFICATION,
    MAX_RANK,
    ParseError,
    SemanticError,
    coeff_str,
    execute_command,
    parse_certificate,
    parse_coeff,
    parse_loc,
    parse_polar,
    parse_problem,
    parse_rational,
    polar_str,
    print_certificate,
    print_problem,
)
import rigidconn
from rigidconn.cyclo import CycloError, CycloNum, UndecidedSign
from rigidconn.enumerate import EnumerationError
from rigidconn.errors import RigidconnError
from rigidconn.formal import INF, FormalError, FormalType, Location, Problem, RegularPart
from rigidconn.linalg import LinAlgError
from rigidconn.puiseux import PolarPart, PuiseuxError
from rigidconn.radicals import RadicalError, cadd, ceq, cneg, croot
from rigidconn.transforms import RankOneData, TransformsError, twist_global

from helpers import F, fourpoint, hypergeometric, kloosterman, problems_equal


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = execute_command(argv, out, err)
    return code, out.getvalue(), err.getvalue()


# --- expression grammar ---------------------------------------------------


def test_parse_coeff_rationals_and_roots_of_unity():
    assert parse_coeff("3/4") == CycloNum.from_rational(F(3, 4))
    assert parse_coeff("z(6)^2") == CycloNum.zeta(6) ** 2
    assert parse_coeff("1/2 - 1/2*z(6)") == (
        CycloNum.from_rational(F(1, 2)) - CycloNum.from_rational(F(1, 2)) * CycloNum.zeta(6)
    )
    assert parse_coeff("-z(4)") == -CycloNum.zeta(4)
    assert parse_coeff("z(12)^-5") == CycloNum.zeta(12) ** 7
    assert parse_coeff("- -(1 + 2)*3/4") == CycloNum.from_rational(F(9, 4))


def test_parse_coeff_radicals():
    got = parse_coeff("2*rt(2,2)")
    want = croot(CycloNum.from_rational(2), 2)
    assert ceq(got, cadd(want, want))
    assert ceq(parse_coeff("4*rt(2,2)^-1"), got)


def test_coeff_roundtrip():
    for text in ("3/4", "1/2 - 1/2*z(6)", "z(12)^5", "-2"):
        a = parse_coeff(text)
        assert parse_coeff(coeff_str(a)) == a
        assert coeff_str(parse_coeff(coeff_str(a))) == coeff_str(a)


def test_parse_polar():
    phi = parse_polar("1*t^(-1/2)")
    assert phi == PolarPart.make(2, [(1, CycloNum.one())])
    assert parse_polar("0").is_zero()
    two = parse_polar("2*t^(-2/1) - 1*t^(-1/1)")
    assert two == PolarPart.unramified({2: CycloNum.from_rational(2), 1: CycloNum.from_rational(-1)})


def test_parse_polar_merges_like_terms():
    assert parse_polar("t^(-1) - t^(-1)") == PolarPart.zero()
    assert parse_polar("t^(-1) + t^(-1)") == parse_polar("2*t^(-1)")
    assert parse_polar("t^(-1/2) + z(3)*t^(-2) - t^(-1/2)") == parse_polar("z(3)*t^(-2)")


def test_polar_roundtrip_with_radical_coefficient():
    phi = PolarPart.make(3, [(1, croot(CycloNum.from_rational(2), 2))])
    assert parse_polar(polar_str(phi)) == phi


def test_polar_roundtrip_with_multi_term_coefficients():
    z3, z5 = CycloNum.zeta(3), CycloNum.zeta(5)
    two = CycloNum.from_rational(2)
    coeffs = [
        -CycloNum.from_rational(F(1, 4)) - CycloNum.from_rational(F(1, 4)) * z3,
        1 + z5**2,
        cadd(croot(two, 2), -z3),
        croot(two - z5, 3),
        cadd(croot(two + z5, 2), 1),
    ]
    for c in coeffs:
        phi = PolarPart.make(2, [(3, c), (1, cneg(c))])
        text = polar_str(phi)
        assert parse_polar(text) == phi
        assert polar_str(parse_polar(text)) == text
    assert parse_coeff("-(1 - z(3))*(2 + z(5))") == -(1 - z3) * (two + z5)


def test_parse_coeff_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_coeff("1/2 + + 3")
    assert e.value.line == 1 and e.value.column > 0


# (parser, text, line, column, message); a case's id is text-line-column
ERROR_POSITIONS = [
    (parse_coeff, "1 + + 2", 1, 5, "expected a coefficient atom, got '+'"),
    (parse_coeff, "rt(2,2", 1, 7, "expected ')', got 'eof'"),
    (parse_coeff, "z(6)^", 1, 6, "expected an integer, got 'eof'"),
    (parse_coeff, "\n\n  z(3) $", 3, 8, "unexpected character '$'"),
    # the resource caps
    (parse_coeff, "1 + z(361)", 1, 5, "root-of-unity order must be in 1..360"),
    (parse_coeff, "z(0)", 1, 1, "root-of-unity order must be in 1..360"),
    (parse_coeff, "z(3)^-361", 1, 6, "exponent -361 is outside -360..360"),
    (parse_coeff, "2*rt(3, 361)", 1, 3, "root index 361 times cyclotomic level 1 exceeds 360"),
    (parse_coeff, "rt(z(360), 60)", 1, 1, "root index 60 times cyclotomic level 360 exceeds 360"),
    (parse_coeff, "rt(rt(z(120), 3), 2)", 1, 1, "root index 2 times cyclotomic level 360 exceeds 360"),
    (parse_coeff, "rt(-1, 360)", 1, 1, "cyclotomic level 720 exceeds 360"),
    (parse_coeff, "z(20) + z(27)", 1, 9, "cyclotomic level 540 exceeds 360"),
    (parse_coeff, "(z(20))*z(27)", 1, 9, "cyclotomic level 540 exceeds 360"),
    (parse_polar, "t^(-1/10000)", 1, 1, "ramification 10000 exceeds 60"),
    (parse_polar, " z(3)*t^(-1/7) + t^(-1/11)", 1, 2, "ramification 77 exceeds 60"),
    (parse_polar, "z(20)*t^(-1) + z(27)*t^(-2)", 1, 16, "cyclotomic level 540 exceeds 360"),
    (parse_polar, "t^(-2001/2)", 1, 1, "pole order 2001 exceeds 120"),
    (parse_polar, "t^(-1) + 2*t^(-242/2)", 1, 1, "pole order 121 exceeds 120"),
]


@pytest.mark.parametrize(
    "parse, text, line, column, message",
    ERROR_POSITIONS,
    ids=[f"{text}-{line}-{column}" for _, text, line, column, _ in ERROR_POSITIONS],
)
def test_parse_error_positions(parse, text, line, column, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.column, e.value.message) == (line, column, message)


def test_parse_rational():
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("0") == 0
    for text in ("0.5", "1e3", "+1/2", "1/0", "1_000", "1/-2", "--1", ""):
        with pytest.raises(ParseError):
            parse_rational(text)


def test_parser_accepts_values_up_to_its_caps():
    assert parse_coeff(f"z({MAX_LEVEL})") == CycloNum.zeta(MAX_LEVEL)
    assert parse_coeff(f"z(3)^-{MAX_LEVEL}") == CycloNum.one()
    assert ceq(parse_coeff(f"rt(2, {MAX_LEVEL})"), croot(CycloNum.from_rational(2), MAX_LEVEL))
    assert ceq(parse_coeff(f"rt(z(6), {MAX_LEVEL // 6})"), croot(CycloNum.zeta(6), MAX_LEVEL // 6))
    assert parse_coeff("rt(-1, 180)") == CycloNum.zeta(MAX_LEVEL)
    assert parse_coeff("z(8)*z(9) + z(5)") == CycloNum.zeta(8) * CycloNum.zeta(9) + CycloNum.zeta(5)
    assert parse_polar(f"t^(-1/{MAX_RAMIFICATION})").ram == MAX_RAMIFICATION
    assert parse_polar(f"t^(-{MAX_POLE_ORDER}/7) + t^(-1)").terms[0][0] == MAX_POLE_ORDER
    assert parse_polar(f"t^(-{2 * MAX_POLE_ORDER}/2)").terms == ((MAX_POLE_ORDER, 1),)


def _rank_document(phi: str, blocks: list) -> dict:
    """Two points, 0 and 1, each with one factor; no point at infinity."""
    point = {"factors": [{"phi": phi, "reg": [{"exp": "1/2", "blocks": blocks}]}]}
    return {"version": 1, "N": 2, "points": [{"loc": "0", **point}, {"loc": "1", **point}]}


@pytest.mark.parametrize(
    "phi, blocks", [("0", [MAX_RANK]), ("0", [1] * MAX_RANK), (f"t^(-1/{MAX_RANK})", [1])]
)
def test_problem_rank_up_to_the_cap_is_read(phi, blocks):
    assert parse_problem(json.dumps(_rank_document(phi, blocks))).rank() == MAX_RANK


@pytest.mark.parametrize(
    "phi, blocks", [("0", [MAX_RANK + 1]), ("0", [1] * (MAX_RANK + 1)), (f"t^(-1/{MAX_RANK + 1})", [1])]
)
def test_problem_rank_above_the_cap_exits_2(phi, blocks, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_rank_document(phi, blocks)), encoding="utf-8")
    for argv in (["rig", str(path)], ["fourier", str(path)], ["mc", str(path), "--chi", "1/2"], ["reduce", str(path)]):
        code, out, err = run(argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: rank {MAX_RANK + 1} at 0 exceeds {MAX_RANK}\n"


def test_printers_refuse_what_the_grammar_rejects():
    for value in (CycloNum.zeta(504), cadd(CycloNum.zeta(20), CycloNum.zeta(27))):
        with pytest.raises(SemanticError, match="cyclotomic level"):
            coeff_str(value)
    with pytest.raises(SemanticError, match="cyclotomic level 540"):
        polar_str(PolarPart.make(1, [(1, CycloNum.zeta(20)), (2, CycloNum.zeta(27))]))
    with pytest.raises(SemanticError, match="ramification 61"):
        polar_str(PolarPart.make(61, [(1, CycloNum.one())]))
    with pytest.raises(SemanticError, match="pole order 121"):
        polar_str(PolarPart.make(2, [(121, CycloNum.one())]))
    with pytest.raises(SemanticError, match=f"rank {MAX_RANK + 1} exceeds the grammar cap {MAX_RANK}"):
        print_problem(Problem.make(2, [(INF, FormalType.regular(RegularPart.single(F(1, 2), MAX_RANK + 1)))]))
    with pytest.raises(SemanticError, match="root index times cyclotomic level"):
        coeff_str(croot(CycloNum.from_rational(2), MAX_LEVEL + 1))


# Token strings over the grammar's alphabet: a sum of products of atoms,
# each product perhaps ending in a t-power, then up to two tokens inserted
# or deleted.  Integers stay small and root-of-unity orders divide 60, so
# every product stays at a low level; radicals are whole atoms over
# rationals, so the radical tower only gains the primes 2 and 3.
_ATOMS = ["0", "2", "12", "60", "3/4", "z(3)", "z(4)^3", "z(12)^-5", "(1 - z(5))", "-z(6)"]
_ATOMS += ["rt(2,2)", "rt(-3, 3)", "rt(3/4,2)", "rt(12,3)^2", "rt(6, 2)^-1"]
_T_POWERS = ["t^(-1)", "t^(-3/2)", "t^(-2/6)"]
_TOKENS = ["0", "1", "5", "60", *"+-*/^(),", "z", "t", "rt", "z(3)", "t^(-1)", "rt(2", "rt(0,2)"]


@st.composite
def _token_strings(draw):
    toks = ["-"] if draw(st.booleans()) else []
    for i in range(draw(st.integers(1, 3))):
        if i:
            toks.append(draw(st.sampled_from("+-")))
        product = draw(st.lists(st.sampled_from(_ATOMS), max_size=3))
        tail = draw(st.sampled_from([None] * 3 + _T_POWERS))
        toks += " * ".join(product + [tail] if tail else product or ["1"]).split(" ")
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(toks)))
        if i < len(toks) and draw(st.booleans()):
            del toks[i]
        else:
            toks.insert(i, draw(st.sampled_from(_TOKENS)))
    return " ".join(toks)


@settings(max_examples=300, deadline=None)
@given(_token_strings())
def test_grammar_fuzz(text):
    for parse, show, same in (
        (parse_coeff, coeff_str, ceq),
        (parse_polar, polar_str, operator.eq),
        (parse_rational, str, operator.eq),
    ):
        try:
            value = parse(text)
        except INPUT_ERRORS:
            continue
        printed = show(value)
        again = parse(printed)
        assert same(again, value)
        assert show(again) == printed


def test_loc_roundtrip():
    assert parse_loc("inf") == INF
    assert parse_loc("-1") == Location.of(-1)


# --- problem files --------------------------------------------------------


def test_problem_roundtrip_byte_identical():
    for P in (hypergeometric(), kloosterman(), fourpoint()):
        text = print_problem(P)
        Q = parse_problem(text)
        assert problems_equal(P, Q)
        assert print_problem(Q) == text


def test_problem_unknown_field_rejected():
    d = json.loads(print_problem(kloosterman()))
    d["color"] = "blue"
    with pytest.raises(SemanticError):
        parse_problem(json.dumps(d))


def test_problem_rank_mismatch_rejected():
    d = json.loads(print_problem(kloosterman()))
    d["points"][0]["factors"][0]["reg"][0]["blocks"] = [3]
    with pytest.raises(SemanticError):
        parse_problem(json.dumps(d))


def test_problem_bad_json_is_parse_error():
    with pytest.raises(ParseError):
        parse_problem("{not json")


# --- subcommands ----------------------------------------------------------


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, P in (
        ("hyper", hypergeometric()),
        ("kloos", kloosterman()),
        ("four", fourpoint()),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(print_problem(P), encoding="utf-8")
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_cmd_rig(files):
    code, out, _ = run(["rig", files["hyper"]])
    assert code == EXIT_OK and out.strip().endswith("2")
    code, out, _ = run(["rig", files["four"]])
    assert code == EXIT_OK and out.strip().endswith("0")


def test_cmd_reduce_and_replay(files):
    cert_path = str(files["dir"] / "cert.json")
    code, out, _ = run(["reduce", files["hyper"], "--cert", cert_path])
    assert code == EXIT_OK
    code, out, _ = run(["replay", cert_path])
    assert code == EXIT_OK
    assert problems_equal(parse_problem(out), hypergeometric())


def test_cmd_reduce_not_rigid(files):
    code, out, _ = run(["reduce", files["four"]])
    assert code == EXIT_NOT_RIGID


def test_cmd_twist_at_an_unlisted_location(files):
    # the point 2 is not listed: the twist acts on the trivial type there
    twist = files["dir"] / "twist.json"
    twist.write_text(json.dumps({"points": [{"loc": "2", "phi": "t^(-1)", "shift": "1/2"}]}), encoding="utf-8")
    code, out, _ = run(["twist", files["hyper"], str(twist)])
    assert code == EXIT_OK
    L = RankOneData.make([(2, PolarPart.unramified({1: 1}), F(1, 2))])
    assert parse_problem(out) == twist_global(hypergeometric(), L)
    assert parse_problem(out).at(Location.of(2)) != FormalType.trivial(2)


def test_cmd_reduce_certificate_parses_back(tmp_path):
    # the Moebius step that moves z(7) and z(9) to 0 and infinity brings
    # in values at level 63
    d = json.loads(print_problem(kloosterman()))
    d["points"][0]["loc"], d["points"][1]["loc"] = "z(7)", "z(9)"
    problem, cert = tmp_path / "p.json", tmp_path / "cert.json"
    problem.write_text(json.dumps(d), encoding="utf-8")
    code, _, _ = run(["reduce", str(problem), "--cert", str(cert)])
    assert code == EXIT_OK
    text = cert.read_text(encoding="utf-8")
    assert "z(63)" in text
    assert print_certificate(parse_certificate(text)) == text


def test_cmd_reduce_refuses_a_certificate_above_the_caps(files, tmp_path, monkeypatch):
    # locations at z(7), z(8) and z(9) can give a Moebius step at level 504
    k = CycloNum.zeta(7) * CycloNum.zeta(8) * CycloNum.zeta(9)
    P = hypergeometric()
    monkeypatch.setattr(cli, "run_adk", lambda *a: Certificate((Moebius((k, 0, 0, 1), 2),), P, P))
    cert = tmp_path / "cert.json"
    code, out, err = run(["reduce", files["hyper"], "--cert", str(cert)])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: cannot print a value whose cyclotomic level 504 exceeds the grammar cap 360\n"
    assert not cert.exists()


def test_cmd_fourier(files):
    code, out, _ = run(["fourier", files["kloos"]])
    assert code == EXIT_OK
    parse_problem(out)  # output is a valid problem file


def test_cmd_fourier_failed_series_check_exits_2(files, fresh_mc_memo, monkeypatch):
    from rigidconn import puiseux

    power = puiseux.binomial_pow
    # (1 + h)^(1/m) now comes one order short of what the legs read
    monkeypatch.setattr(puiseux, "binomial_pow", lambda h, e, order: power(h, e, order - 1))
    code, out, err = run(["fourier", files["kloos"]])
    assert code == EXIT_INPUT and out == ""
    assert err == "error: series under-resolved: w^0 read, certified below w^0 only\n"


def test_cmd_mc(files):
    from rigidconn.transforms import mc_rank_prediction

    code, out, _ = run(["mc", files["hyper"], "--chi", "1/6"])
    assert code == EXIT_OK
    assert parse_problem(out).rank() == mc_rank_prediction(hypergeometric(), F(1, 6))
    code, _, err = run(["mc", files["hyper"], "--chi", "0/1"])
    assert code == EXIT_INPUT
    code, _, err = run(["mc", files["hyper"], "--chi", "1"])
    assert code == EXIT_INPUT
    for chi in ("0.5", "+1/6", "1e-1"):
        code, out, err = run(["mc", files["hyper"], "--chi", chi])
        assert code == EXIT_INPUT and out == "" and err.startswith("error: ")


def test_cmd_mc_with_an_integral_chi_exponent_names_it(files):
    code, out, err = run(["mc", files["hyper"], "--chi", "0"])
    assert (code, out) == (2, "")
    assert err == "error: the exponent of chi must not be an integer, got 0\n"


def test_cmd_missing_file():
    code, _, err = run(["rig", "/nonexistent/problem.json"])
    assert code == EXIT_INPUT and err


def test_cmd_enumerate(tmp_path):
    code, out, _ = run(
        ["enumerate", "--points", "0,1,inf", "--order", "2", "--rank", "1"]
    )
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.splitlines() if l.strip()]
    assert len(lines) == 4
    assert all(l["verdict"] == "certified" for l in lines)


def test_cmd_enumerate_gives_a_raising_candidate_an_error_line():
    # reducible rank-2 data make the middle convolution raise; each such
    # candidate gets its own line and the stream goes on to the end
    code, out, err = run(["enumerate", "--points", "0,1,inf", "--order", "3", "--rank", "2"])
    assert code == EXIT_OK and err == ""
    lines = [json.loads(l) for l in out.splitlines()]
    errors = [l for l in lines if l["verdict"] == "error"]
    assert len(lines) == 243 and len(errors) == 36
    assert all(l["rig_index"] == 2 and l["error"] == "vanishing data exceed the ambient rank" for l in errors)
    assert all("error" not in l for l in lines if l["verdict"] != "error")


@pytest.mark.parametrize("order, rank", [(1, 0), (0, 1)])
def test_cmd_enumerate_rejects_nonpositive_bounds(order, rank):
    # CI also runs this file under python -O, where order 0 used to reach
    # the partition code
    code, out, err = run(["enumerate", "--points", "0,1,inf", "--order", str(order), "--rank", str(rank)])
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: enumeration needs rank >= 1 and order >= 1, got rank {rank}, order {order}\n"


def test_cmd_stokes_arcs(files):
    code, out, _ = run(["stokes-arcs", files["kloos"], "--point", "inf"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["cover"] == 2
    assert all(p["full_circle"] == (p["psi"] == p["phi"]) for p in report["pairs"])


def test_cmd_stokes_arcs_at_an_unlisted_location(files):
    # the type there reads as trivial, but it is not a singular point
    code, out, err = run(["stokes-arcs", files["kloos"], "--point", "1"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: no singular point at '1'\n"


def test_undecided_sign_exits_3(files, monkeypatch):
    # UndecidedSign derives from the error root too, and is caught first
    def undecided(*args):
        raise UndecidedSign("angle of a coefficient whose interval contains 0")

    monkeypatch.setattr(cli, "order_arcs", undecided)
    code, out, err = run(["stokes-arcs", files["kloos"], "--point", "inf"])
    assert (code, out) == (EXIT_UNDECIDED, "")
    assert err == "precision exhausted: angle of a coefficient whose interval contains 0\n"


def test_every_library_error_has_one_root():
    assert INPUT_ERRORS == (RigidconnError, OSError)
    bases = [CycloError, RadicalError, PuiseuxError, FormalError, LinAlgError, TransformsError]
    bases += [EnumerationError, ParseError, SemanticError, TwoSpecialPoints, ReplayMismatch]
    assert all(issubclass(b, RigidconnError) for b in bases)


def test_certificate_roundtrip():
    from rigidconn.adk import run_adk

    cert = run_adk(hypergeometric())
    text = print_certificate(cert)
    C = parse_certificate(text)
    assert print_certificate(C) == text


def test_determinism(files):
    a = run(["rig", files["hyper"]])
    b = run(["rig", files["hyper"]])
    assert a == b


# --- malformed input ------------------------------------------------------


def _set(path, value):
    """Edit of the Kloosterman document: set (or with value None, drop)
    the field at the given key path."""

    def edit(d):
        for k in path[:-1]:
            d = d[k]
        if value is None:
            del d[path[-1]]
        else:
            d[path[-1]] = value

    return edit


MALFORMED = {
    "missing_loc": _set(["points", 0, "loc"], None),
    "points_not_array": _set(["points"], 5),
    "zero_exponent_numerator": _set(["points", 1, "factors", 0, "phi"], "t^(-0)"),
    "root_of_zero": _set(["points", 0, "loc"], "rt(0,2)"),
    "radical_loc": _set(["points", 0, "loc"], "rt(2,2)"),
    "float_exponent": _set(["points", 0, "factors", 0, "reg", 0, "exp"], 0.5),
    "boolean_N": _set(["N"], True),
    "boolean_version": _set(["version"], True),
    "loc_nested_parentheses": _set(["points", 0, "loc"], "(" * 3000 + "1" + ")" * 3000),
    "loc_unary_minus": _set(["points", 0, "loc"], "-" * 3000 + "1"),
    "loc_long_integer": _set(["points", 0, "loc"], "1 + " + "7" * 5000),
    "exp_decimal": _set(["points", 0, "factors", 0, "reg", 0, "exp"], "0.5"),
    "exp_exponent": _set(["points", 0, "factors", 0, "reg", 0, "exp"], "1e10000000"),
    "exp_leading_plus": _set(["points", 0, "factors", 0, "reg", 0, "exp"], "+1/2"),
    "phi_ramification": _set(["points", 1, "factors", 0, "phi"], "t^(-1/10000)"),
    "phi_pole_order": _set(["points", 1, "factors", 0, "phi"], "t^(-2001/2)"),
    "loc_root_order": _set(["points", 0, "loc"], "z(30000001)"),
    "loc_root_index": _set(["points", 0, "loc"], "rt(2, 100000)"),
    "loc_root_of_a_root_of_unity": _set(["points", 0, "loc"], "rt(z(360), 60)"),
    "loc_root_power": _set(["points", 0, "loc"], "rt(2, 2)^1000000000"),
    "loc_level_product": _set(["points", 0, "loc"], "z(359)*z(353)"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_problem_exits_2(name, tmp_path):
    d = json.loads(print_problem(kloosterman()))
    MALFORMED[name](d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(["rig", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INPUT
    assert out == "" and err.startswith("error: ")


def test_parse_error_names_the_problem_field(tmp_path):
    d = json.loads(print_problem(kloosterman()))
    MALFORMED["exp_decimal"](d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    code, out, err = run(["rig", str(path)])
    assert code == EXIT_INPUT and out == ""
    assert err == "error: points[0].factors[0].reg[0].exp: line 1, column 2: unexpected character '.'\n"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "cert, path, value, where",
    [
        ("cert_kloos0", ["steps", 0, "coeffs", 1], "1/0", "steps[0].coeffs[1]: line 1, column 4: zero denominator"),
        ("cert_kloos", ["terminal", "points", 0, "factors", 0, "reg", 0, "exp"], "1/4x", "terminal.points[0].factors[0].reg[0].exp: line 1, column 4: trailing input"),
        ("cert_hyper", ["steps", 0, "chi_exponent"], "1/2x", "steps[0].chi_exponent: line 1, column 4: trailing input"),
        ("cert_hyper", ["origin", "points", 2, "factors", 0, "phi"], "t^(-1", "origin.points[2].factors[0].phi: line 1, column 6: expected ')', got 'eof'"),
    ],
)
def test_parse_error_names_the_certificate_field(cert, path, value, where, tmp_path):
    d = json.loads((GOLDEN / f"{cert}.json").read_text(encoding="utf-8"))
    _set(path, value)(d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d), encoding="utf-8")
    code, out, err = run(["replay", str(bad)])
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: {where}\n"


@pytest.mark.parametrize(
    "step, message",
    [
        ({"kind": "shear", "predicted_rank": 1}, "unknown step kind 'shear'"),
        ({"kind": ["mc"], "predicted_rank": 1}, "unknown step kind ['mc']"),
        ({"kind": "fourier", "predicted_rank": 0}, "predicted_rank must be a positive integer"),
        ({"kind": "fourier", "chi_exponent": "1/2", "predicted_rank": 1}, "unknown fields ['chi_exponent'] in fourier step"),
        ({"kind": "moebius", "coeffs": ["1", "0", "1"], "predicted_rank": 1}, "moebius step needs 4 coefficients"),
        (
            {"kind": "moebius", "coeffs": ["rt(2,2)", "1/2", "-z(3)", "2"], "predicted_rank": 2},
            "moebius coefficients must be cyclotomic",
        ),
        (
            {"kind": "moebius", "coeffs": ["1", "1", "1", "1"], "predicted_rank": 2},
            "moebius coefficients must have ad - bc != 0",
        ),
        # no step kind adds an apparent point: the reduction never lists a trivial one
        ({"kind": "add_apparent", "loc": "1", "predicted_rank": 2}, "unknown step kind 'add_apparent'"),
    ],
)
def test_malformed_step_exits_2(step, message, tmp_path):
    d = json.loads((GOLDEN / "cert_hyper.json").read_text(encoding="utf-8"))
    d["steps"].insert(0, step)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d), encoding="utf-8")
    code, out, err = run(["replay", str(bad)])
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: {message}\n"


def test_parse_error_names_the_twist_step_field():
    points = [{"loc": "0", "phi": "0", "shift": "1/2"}, {"loc": "inf", "phi": "t^(-1", "shift": "0"}]
    twist = {"kind": "twist", "points": points, "predicted_rank": 1}
    d = json.loads((GOLDEN / "cert_hyper.json").read_text(encoding="utf-8"))
    d["steps"].insert(0, twist)
    with pytest.raises(ParseError) as e:
        parse_certificate(json.dumps(d))
    assert e.value.where == "steps[0].points[1].phi"
    assert str(e.value) == "steps[0].points[1].phi: line 1, column 6: expected ')', got 'eof'"


@pytest.mark.parametrize(
    "text",
    ["[" * 100000, '{"version": 1, "N": ' + "1" * 5000 + ', "points": []}'],
    ids=["deep_nesting", "long_integer"],
)
def test_json_loader_errors_exit_2(text, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(["rig", str(path)])
    assert code == EXIT_INPUT
    assert out == "" and err.startswith("error: ")


# --- whole documents ------------------------------------------------------

_DOCUMENTS = {
    name: json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    for name in ("hyper", "kloos", "four", "cert_hyper", "cert_kloos", "cert_kloos0")
}


def _paths(doc, path=()):
    """(key path, value) of every value below a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


@st.composite
def _mutated_documents(draw):
    """A golden problem or certificate with one to three edits: a field
    or array entry dropped, a scalar swapped for a grammar-fuzz token
    string, or an integer changed."""
    name = draw(st.sampled_from(sorted(_DOCUMENTS)))
    doc = copy.deepcopy(_DOCUMENTS[name])
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["drop", "token", "integer"]))
        wanted = {"drop": object, "token": (str, int), "integer": int}[how]
        paths = [p for p, v in _paths(doc) if isinstance(v, wanted)]
        if not paths:
            continue
        *head, key = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, head, doc)
        if how == "drop":
            del parent[key]
        elif how == "token":
            parent[key] = draw(_token_strings())
        else:
            parent[key] = draw(st.integers(-1, 6))
    return name, json.dumps(doc)


@settings(max_examples=200, deadline=None)
@given(_mutated_documents())
def test_document_fuzz(case):
    name, text = case
    is_cert = name.startswith("cert")
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        Path(path).write_text(text, encoding="utf-8")
        code, _, _ = run(["replay" if is_cert else "reduce", path])
    assert code in (EXIT_OK, EXIT_NOT_RIGID, EXIT_INPUT, EXIT_UNDECIDED)
    if is_cert and code != EXIT_OK:
        try:
            C = parse_certificate(text)
        except INPUT_ERRORS:
            return
        with pytest.raises(ReplayMismatch):
            replay_certificate(C)


# --- python -m rigidconn.cli ---------------------------------------------


def _module_cli(*args):
    src = str(Path(rigidconn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "rigidconn.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_module_entry_point(files):
    res = _module_cli("--help")
    assert res.returncode == 0 and "usage: rigidconn" in res.stdout
    res = _module_cli("rig", files["hyper"])
    assert res.returncode == EXIT_OK and res.stdout == "rig_index = 2\n"
