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
from pathlib import Path

import pytest

from rigidconn.cli import execute_command, print_problem

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
