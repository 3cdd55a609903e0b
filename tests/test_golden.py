"""Byte-for-byte CLI output on the helper problems.

Every case runs one subcommand through ``execute_command`` and compares
its exit code and stdout with a file under ``tests/golden/``.  The input
problem files are themselves golden: they must equal ``print_problem``
of the corresponding ``helpers`` constructor.  Two hand-written inputs
add what the helpers lack: ``kloos0.json`` (a ramified finite point, so
the reduction starts with a Moebius step) and ``stokes.json`` (leading
differences with a non-rational angle, whose arc endpoints are printed
as a certified center and radius, and a radical coefficient over a
positive rational radicand, whose endpoints stay exact fractions).
"""

import io
import json
from pathlib import Path

import pytest

from rigidconn.adk import normalize_problem
from rigidconn.cli import execute_command, loc_str, polar_str, print_problem, problem_from_dict

from helpers import fourpoint, hypergeometric, kloosterman

GOLDEN = Path(__file__).parent / "golden"

PROBLEMS = {"hyper": hypergeometric, "kloos": kloosterman, "four": fourpoint}

# (case name, argv with {name} standing for golden/<name>.json, exit code)
CASES = [
    ("rig_hyper", ["rig", "{hyper}"], 0),
    ("rig_kloos", ["rig", "{kloos}"], 0),
    ("rig_four", ["rig", "{four}"], 0),
    ("reduce_json_hyper", ["--json", "reduce", "{hyper}"], 0),
    ("reduce_json_kloos", ["--json", "reduce", "{kloos}"], 0),
    ("reduce_json_four", ["--json", "reduce", "{four}"], 1),
    ("reduce_json_kloos0", ["--json", "reduce", "{kloos0}"], 0),
    ("fourier_hyper", ["fourier", "{hyper}"], 0),
    ("fourier_kloos", ["fourier", "{kloos}"], 0),
    ("mc_hyper", ["mc", "{hyper}", "--chi", "1/6"], 0),
    ("twist_hyper", ["twist", "{hyper}", "{twist_hyper}"], 0),
    ("twist_kloos", ["twist", "{kloos}", "{twist_kloos}"], 0),
    ("stokes_arcs_kloos", ["stokes-arcs", "{kloos}", "--point", "inf"], 0),
    ("stokes_arcs_hyper", ["stokes-arcs", "{hyper}", "--point", "inf"], 0),
    ("stokes_arcs_mixed", ["stokes-arcs", "{stokes}", "--point", "inf"], 0),
    ("replay_hyper", ["replay", "{cert_hyper}"], 0),
    ("replay_kloos", ["replay", "{cert_kloos}"], 0),
    ("replay_kloos0", ["replay", "{cert_kloos0}"], 0),
    ("enumerate", ["enumerate", "--points", "0,1,inf", "--order", "2", "--rank", "1"], 0),
]


def _argv(template):
    return [a.format_map({k: str(p) for k, p in _inputs().items()}) for a in template]


def _inputs():
    return {p.stem: p for p in GOLDEN.glob("*.json")}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = execute_command(argv, out, err)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_golden_input_problems(name):
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert print_problem(PROBLEMS[name]()) == want


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code):
    got_code, got = _run(_argv(argv))
    assert got_code == code
    assert got == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["hyper", "kloos", "kloos0"])
def test_golden_certificate(name, tmp_path):
    cert = tmp_path / "cert.json"
    code, _ = _run(["reduce", str(GOLDEN / f"{name}.json"), "--cert", str(cert)])
    assert code == 0
    want = (GOLDEN / f"cert_{name}.json").read_text(encoding="utf-8")
    assert cert.read_text(encoding="utf-8") == want


# The Kloosterman problem with its points 0 and inf moved elsewhere: the
# Moebius step takes the ramified factor back to infinity, and its
# leading coefficient picks up a square root of the move's derivative.
MOVED_KLOOS = [
    ("1", "z(3)", "-1*rt((-2/3 - 1/3*z(3)), 2)*t^(-1/2)"),
    ("z(4)", "2", "-1*rt((2/5 + 1/5*z(4)), 2)*t^(-1/2)"),
    ("3 + z(4)", "-1", "-1*rt((-4/17 + 1/17*z(4)), 2)*t^(-1/2)"),
    (
        "2*z(5)",
        "z(8)",
        "-1*rt((1920/61681 + 964/61681*z(40) - 30/61681*z(40)^2 + 3840/61681*z(40)^3"
        " + 8/61681*z(40)^4 - 1024/61681*z(40)^5 + 7710/61681*z(40)^6 + 16/61681*z(40)^7"
        " - 128/61681*z(40)^8 + 16384/61681*z(40)^9 + 2/61681*z(40)^10 - 256/61681*z(40)^11"
        " + 30848/61681*z(40)^12 - 960/61681*z(40)^13 - 482/61681*z(40)^14 + 15/61681*z(40)^15), 2)*t^(-1/2)",
    ),
]


@pytest.mark.parametrize("zero, inf, want", MOVED_KLOOS, ids=[f"{a}|{b}" for a, b, _ in MOVED_KLOOS])
def test_moebius_transport_of_the_moved_kloosterman_problem(zero, inf, want):
    d = json.loads((GOLDEN / "kloos.json").read_text(encoding="utf-8"))
    d["points"][0]["loc"], d["points"][1]["loc"] = zero, inf
    P, _ = normalize_problem(problem_from_dict(d))
    got = {loc_str(loc): [polar_str(f.phi) for f in t.factors] for loc, t in P.points}
    assert got == {"0": ["0"], "inf": [want]}
