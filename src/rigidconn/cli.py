"""Problem/certificate file formats and command-line dispatch.

Files are JSON with exact-string scalars only, all read by one grammar
(one tokenizer, one sum-of-products routine): rationals like "-3/4",
cyclotomic expressions like "1/2*z(6)^5 + 3" (z(N) is a primitive N-th
root of unity), polar parts like "t^(-3/2) + 1/2*z(4)*t^(-1)", and
radical atoms rt(c, n) for an n-th root of c.  Malformed text raises
ParseError with its line and column.  The canonical printer round-trips
byte-identically with the parser.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import fields
from fractions import Fraction
from functools import reduce
from typing import get_args

from .adk import (
    Certificate,
    StepRecord,
    replay_certificate,
    run_adk,
)
from .cyclo import CycloNum, UndecidedSign, _join_terms, format_cyclo
from .enumerate import classify_candidate, enumerate_candidates
from .errors import RigidconnError
from .formal import (
    INF,
    FormalError,
    FormalType,
    Location,
    Problem,
    RegularPart,
)
from .puiseux import PolarPart
from .radicals import RadicalCoeff, _terms_of, cadd, cmul, cneg, cpow, croot
from .rigidity import rig_index
from .stokes import FULL_CIRCLE, order_arcs
from .transforms import (
    RankOneData,
    fourier_global,
    middle_convolution,
    twist_global,
)


class ParseError(RigidconnError):
    """Malformed text: position (1-based line and column) and message; the
    position is None where the JSON decoder gives none.  In a document,
    where names the field that holds the text, as in points[0].loc."""

    def __init__(self, line: int | None, column: int | None, message: str, where: str = ""):
        text = message if line is None else f"line {line}, column {column}: {message}"
        super().__init__(f"{where}: {text}" if where else text)
        self.line = line
        self.column = column
        self.message = message
        self.where = where

    def within(self, field: str) -> "ParseError":
        """This error, located one field further out."""
        return ParseError(self.line, self.column, self.message, f"{field}.{self.where}" if self.where else field)


class SemanticError(RigidconnError):
    pass


# -- the expression grammar ------------------------------------------
#
#   sum      = ["-"] product {("+" | "-") product}
#   product  = factor {"*" factor}                    in a coefficient
#            | {factor "*"} "t" "^" "(" "-" ratio ")"  in a polar part
#   factor   = "-" factor | "(" sum ")" | ratio
#            | "z" "(" int ")" [power] | "rt" "(" sum "," int ")" [power]
#   power    = "^" ["-"] int
#   ratio    = int ["/" int]
#   rational = ["-"] ratio
#
# A polar part is a sum in polar mode or "0"; exp, shift, chi_exponent
# and --chi are rationals.  Whitespace may separate any two tokens.
#
# Resource caps, far above what the goldens and the benchmark use, bound
# the work one constant can ask for (z(10000) alone takes seconds).  Each
# value built, operands of sums and products included, stays at level
# MAX_LEVEL or below; rt(c, n) with c at level L may bring in roots of
# unity of order 2*n*L, so n*L is capped before the root is taken.  The
# Fourier legs solve series to order p + q + 2 for a polar part with
# leading term a_q t^(-q/p), so q is capped too.  The rank of a point is
# capped before its type is built: the rigidity index pays the square of
# the block count, a reduction up to r - 1 steps, a ramified leg grows
# with p <= r, and a transform fills an unlisted point with r blocks.

MAX_LEVEL = 360  # cyclotomic level; n in z(n), n*L in rt(c, n), |e| in ^e
MAX_RAMIFICATION = 60  # p of a polar part sum a_j t^(-j/p)
MAX_POLE_ORDER = 120  # q of its leading term a_q t^(-q/p), in normal form
MAX_RANK = 12  # rank of the formal type at each point of a problem

_TOKEN = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z]+)|(?P<sym>[-+*/^(),])|(?P<bad>\S))")


class _Tokens:
    """The tokens of one text as (group, text, offset), ending in an "eof"
    token with empty text; line and column are worked out only for an
    error."""

    def __init__(self, text: str):
        self.text = text
        self.toks = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)) for m in _TOKEN.finditer(text)]
        self.toks.append(("eof", "", len(text)))
        self.pos = 0
        for group, s, offset in self.toks:
            if group == "bad":
                raise self.error(f"unexpected character {s!r}", offset)

    def peek(self) -> str:
        return self.toks[self.pos][1]

    def accept(self, s: str) -> bool:
        if self.toks[self.pos][1] == s:
            self.pos += 1
            return True
        return False

    def expect(self, s: str):
        if not self.accept(s):
            raise self.error(f"expected {s!r}, got {self.peek() or 'eof'!r}")

    def integer(self) -> int:
        group, s, offset = self.toks[self.pos]
        if group != "int":
            raise self.error(f"expected an integer, got {s or 'eof'!r}")
        self.pos += 1
        try:
            return int(s)
        except ValueError:  # beyond the digit limit of int()
            raise self.error(f"integer of {len(s)} digits is too long", offset) from None

    def error(self, message: str, offset: int | None = None) -> ParseError:
        if offset is None:
            offset = self.toks[self.pos][2]
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(line, offset - self.text.rfind("\n", 0, offset), message)

    def capped(self, level: int, offset: int) -> int:
        if level > MAX_LEVEL:
            raise self.error(f"cyclotomic level {level} exceeds {MAX_LEVEL}", offset)
        return level


def _level(a) -> int:
    return math.lcm(*(c.level for _, c in _terms_of(a)))


def _ratio(tk: _Tokens) -> Fraction:
    num = tk.integer()
    if not tk.accept("/"):
        return Fraction(num)
    den = tk.integer()
    if den == 0:
        raise tk.error("zero denominator")
    return Fraction(num, den)


def _rational(tk: _Tokens) -> Fraction:
    return -_ratio(tk) if tk.accept("-") else _ratio(tk)


def _power(tk: _Tokens) -> int:
    if not tk.accept("^"):
        return 1
    offset = tk.toks[tk.pos][2]
    e = -tk.integer() if tk.accept("-") else tk.integer()
    if abs(e) > MAX_LEVEL:
        raise tk.error(f"exponent {e} is outside -{MAX_LEVEL}..{MAX_LEVEL}", offset)
    return e


def _factor(tk: _Tokens):
    group, s, offset = tk.toks[tk.pos]
    if group == "int":
        return CycloNum.from_rational(_ratio(tk))
    tk.pos += 1
    if s == "-":
        return cneg(_factor(tk))
    if s == "(":
        val = _coeff(tk)
        tk.expect(")")
        return val
    if s == "z":
        tk.expect("(")
        n = tk.integer()
        if not 1 <= n <= MAX_LEVEL:
            raise tk.error(f"root-of-unity order must be in 1..{MAX_LEVEL}", offset)
        tk.expect(")")
        return CycloNum.zeta(n, _power(tk) % n)
    if s == "rt":
        tk.expect("(")
        base = _coeff(tk)
        tk.expect(",")
        n = tk.integer()
        if n < 1:
            raise tk.error("root index must be positive", offset)
        level = _level(base)
        if n * level > MAX_LEVEL:
            raise tk.error(f"root index {n} times cyclotomic level {level} exceeds {MAX_LEVEL}", offset)
        tk.expect(")")
        val = croot(base, n)
        tk.capped(_level(val), offset)
        e = _power(tk)
        return val if e == 1 else cpow(val, e)
    raise tk.error(f"expected a coefficient atom, got {s or 'eof'!r}", offset)


def _product(tk: _Tokens, polar: bool):
    """A coefficient; in a polar part, the pair (j/p, coefficient) of a
    term coefficient*t^(-j/p), whose coefficient defaults to 1."""
    acc = None
    level = 1
    while not (polar and tk.peek() == "t"):
        offset = tk.toks[tk.pos][2]
        f = _factor(tk)
        level = tk.capped(math.lcm(level, _level(f)), offset)
        acc = f if acc is None else cmul(acc, f)
        if polar:
            tk.expect("*")
        elif not tk.accept("*"):
            return acc
    for s in "t^(-":
        tk.expect(s)
    e = _ratio(tk)
    if e == 0:
        raise tk.error("zero exponent numerator")
    tk.expect(")")
    return e, CycloNum.one() if acc is None else acc


def _sum(tk: _Tokens, polar: bool) -> list:
    """The signed products of a sum."""
    terms = []
    level = 1
    negate = tk.accept("-")
    while True:
        offset = tk.toks[tk.pos][2]
        term = _product(tk, polar)
        level = tk.capped(math.lcm(level, _level(term[1] if polar else term)), offset)
        if negate:
            term = (term[0], cneg(term[1])) if polar else cneg(term)
        terms.append(term)
        if tk.accept("+"):
            negate = False
        elif tk.accept("-"):
            negate = True
        else:
            return terms


def _coeff(tk: _Tokens):
    return reduce(cadd, _sum(tk, False))


def _polar(tk: _Tokens) -> PolarPart:
    if tk.accept("0"):
        return PolarPart.zero()
    offset = tk.toks[tk.pos][2]
    terms = _sum(tk, True)
    p = math.lcm(*(e.denominator for e, _ in terms))
    if p > MAX_RAMIFICATION:
        raise tk.error(f"ramification {p} exceeds {MAX_RAMIFICATION}", offset)
    phi = PolarPart.make(p, [(int(e * p), c) for e, c in terms])
    if phi.terms and phi.terms[0][0] > MAX_POLE_ORDER:
        raise tk.error(f"pole order {phi.terms[0][0]} exceeds {MAX_POLE_ORDER}", offset)
    return phi


def _parse(text: str, rule):
    tk = _Tokens(text)
    try:
        val = rule(tk)
    except RecursionError:
        raise tk.error("expression nested too deeply") from None
    if tk.peek():
        raise tk.error("trailing input")
    return val


def parse_coeff(text: str):
    return _parse(text, _coeff)


def parse_polar(text: str) -> PolarPart:
    return _parse(text, _polar)


def parse_rational(text: str) -> Fraction:
    """A signed rational [-]p[/q], as in exp, shift, chi_exponent and --chi."""
    return _parse(text, _rational)


# -- canonical printers ----------------------------------------------


def _factor_str(a) -> str:
    """coeff_str(a), in parentheses when a has several terms."""
    terms = len(a.terms) if isinstance(a, RadicalCoeff) else len(a.nums) - a.nums.count(0)
    s = coeff_str(a)
    return f"({s})" if terms > 1 else s


def _printable(what: str, size: int, cap: int):
    """Refuse to print what the grammar rejects: what prints, parses."""
    if size > cap:
        raise SemanticError(f"cannot print a value whose {what} {size} exceeds the grammar cap {cap}")


def coeff_str(a) -> str:
    _printable("cyclotomic level", _level(a), MAX_LEVEL)
    if not isinstance(a, RadicalCoeff):
        return format_cyclo(a)
    parts = []
    for mono, c in a.terms:
        atoms = [_factor_str(c)]
        for r, e in mono:
            _printable("root index times cyclotomic level", e.denominator * r.level, MAX_LEVEL)
            atom = f"rt({_factor_str(r)}, {e.denominator})"
            if e.numerator != 1:
                atom += f"^{e.numerator}"
            atoms.append(atom)
        parts.append("*".join(atoms))
    return _join_terms(parts)


def polar_str(phi: PolarPart) -> str:
    if phi.is_zero():
        return "0"
    _printable("cyclotomic level", math.lcm(*(_level(c) for _, c in phi.terms)), MAX_LEVEL)
    g = math.gcd(phi.ram, *(j for j, _ in phi.terms))
    _printable("ramification", phi.ram // g, MAX_RAMIFICATION)
    _printable("pole order", phi.terms[0][0] // g, MAX_POLE_ORDER)
    parts = []
    for j, c in phi.terms:
        e = Fraction(j, phi.ram)
        tpart = f"t^(-{e.numerator}/{e.denominator})" if e.denominator > 1 else f"t^(-{e.numerator})"
        cs = _factor_str(c)
        parts.append(tpart if cs == "1" else f"{cs}*{tpart}")
    return _join_terms(parts)


def loc_str(loc: Location) -> str:
    return "inf" if loc.is_inf else coeff_str(loc.value)


def parse_loc(text: str) -> Location:
    if text.strip() == "inf":
        return INF
    return Location.of(parse_coeff(text))


# -- problem / certificate documents ---------------------------------

_PROBLEM_VERSION = 1


def problem_to_dict(P: Problem) -> dict:
    _printable("rank", P.rank(), MAX_RANK)
    points = []
    for loc, t in P.points:
        factors = []
        for f in t.factors:
            reg = []
            for exp, size in f.reg.blocks:
                if reg and reg[-1]["exp"] == str(exp):
                    reg[-1]["blocks"].append(size)
                else:
                    reg.append({"exp": str(exp), "blocks": [size]})
            factors.append({"phi": polar_str(f.phi), "reg": reg})
        points.append({"loc": loc_str(loc), "factors": factors})
    return {"version": _PROBLEM_VERSION, "N": P.N, "points": points}


_JSON_TYPES = {dict: "a JSON object", list: "a JSON array", str: "a JSON string", int: "an integer"}


def _typed(value, kind: type, what: str):
    """value when it has the JSON type kind; a boolean is not an integer."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SemanticError(f"{what} must be {_JSON_TYPES[kind]}")
    return value


def _check_fields(d, allowed: set, where: str):
    extra = set(_typed(d, dict, where)) - allowed
    if extra:
        raise SemanticError(f"unknown fields {sorted(extra)} in {where}")


def _field(parse, d: dict, key: str, kind: type = str):
    """parse(d[key]), d[key] of the JSON type kind; a ParseError names
    the field."""
    value = _typed(d.get(key), kind, key)
    try:
        return parse(value)
    except ParseError as e:
        raise e.within(key) from None


def _each(parse, items, key: str, what: str = "") -> list:
    """[parse(x) for x in items], items the JSON array of field key; a
    ParseError names the field and the index."""
    out = []
    for i, x in enumerate(_typed(items, list, what or key)):
        try:
            out.append(parse(x))
        except ParseError as e:
            raise e.within(f"{key}[{i}]") from None
    return out


def _blocks(r) -> list:
    _check_fields(r, {"exp", "blocks"}, "regular part")
    exp = _field(parse_rational, r, "exp")
    sizes = _typed(r.get("blocks"), list, "blocks")
    if any(_typed(size, int, "a block size") < 1 for size in sizes):
        raise SemanticError("block sizes must be positive integers")
    return [(exp, size) for size in sizes]


def _exp_factor(f) -> tuple:
    """(phi, blocks) of a factor document."""
    _check_fields(f, {"phi", "reg"}, "factor")
    phi = _field(parse_polar, f, "phi")
    return phi, [b for bs in _each(_blocks, f.get("reg"), "reg") for b in bs]


def _point(pt) -> tuple:
    _check_fields(pt, {"loc", "factors"}, "point")
    loc = _field(parse_loc, pt, "loc")
    factors = _each(_exp_factor, pt.get("factors"), "factors")
    r = sum(phi.ram * size for phi, blocks in factors for _, size in blocks)
    if r > MAX_RANK:
        raise SemanticError(f"rank {r} at {loc_str(loc)} exceeds {MAX_RANK}")
    return loc, FormalType.make([(phi, RegularPart.make(blocks)) for phi, blocks in factors])


def problem_from_dict(d: dict) -> Problem:
    _typed(d, dict, "problem document")
    _check_fields(d, {"version", "N", "points"}, "problem")
    if _typed(d.get("version"), int, "version") != _PROBLEM_VERSION:
        raise SemanticError(f"unsupported version {d.get('version')!r}")
    N = _typed(d.get("N"), int, "N")
    if N < 1:
        raise SemanticError("N must be a positive integer")
    points = _each(_point, d.get("points", []), "points")
    try:
        return Problem.make(N, points)
    except FormalError as e:
        raise SemanticError(str(e)) from e


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, e.colno, e.msg) from e
    except RecursionError:
        raise ParseError(None, None, "JSON nested too deeply") from None
    except ValueError as e:  # an integer literal beyond the digit limit of int()
        raise ParseError(None, None, str(e)) from None


def parse_problem(text: str) -> Problem:
    return problem_from_dict(_load_json(text))


def print_problem(P: Problem) -> str:
    return json.dumps(problem_to_dict(P), indent=2) + "\n"


def _twist_point(pt) -> tuple:
    _check_fields(pt, {"loc", "phi", "shift"}, "twist point")
    return _field(parse_loc, pt, "loc"), _field(parse_polar, pt, "phi"), _field(parse_rational, pt, "shift")


def _twist_data(entries) -> RankOneData:
    """Rank-one twist data from a JSON array of {loc, phi, shift} points."""
    return RankOneData.make(_each(_twist_point, entries, "points", "twist points"))


def _moebius_coeffs(d: dict) -> tuple:
    coeffs = _each(lambda c: parse_coeff(_typed(c, str, "a coefficient")), d.get("coeffs"), "coeffs")
    if len(coeffs) != 4:
        raise SemanticError("moebius step needs 4 coefficients")
    if not all(isinstance(c, CycloNum) for c in coeffs):
        raise SemanticError("moebius coefficients must be cyclotomic")
    if coeffs[0] * coeffs[3] == coeffs[1] * coeffs[2]:
        raise SemanticError("moebius coefficients must have ad - bc != 0")
    return tuple(coeffs)


def _predicted_rank(d: dict) -> int:
    rank = _typed(d.get("predicted_rank"), int, "predicted_rank")
    if rank < 1:
        raise SemanticError("predicted_rank must be a positive integer")
    return rank


# Step record fields by name: (JSON printer of the value, parser of the
# value from the step document).
_STEP_FIELDS = {
    "coeffs": (lambda cs: [coeff_str(c) for c in cs], _moebius_coeffs),
    "points": (
        lambda L: [{"loc": loc_str(l), "phi": polar_str(psi), "shift": str(b)} for l, psi, b in L.points],
        lambda d: _twist_data(d.get("points")),
    ),
    "chi_exponent": (str, lambda d: _field(parse_rational, d, "chi_exponent")),
    "predicted_rank": (int, _predicted_rank),
}
_STEP_KINDS = {cls.kind: cls for cls in get_args(StepRecord)}


def step_to_dict(s: StepRecord) -> dict:
    return {"kind": s.kind, **{f.name: _STEP_FIELDS[f.name][0](getattr(s, f.name)) for f in fields(s)}}


def step_from_dict(d: dict) -> StepRecord:
    kind = _typed(d, dict, "step").get("kind")
    rank = _predicted_rank(d)
    cls = _STEP_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SemanticError(f"unknown step kind {kind!r}")
    names = [f.name for f in fields(cls)]
    _check_fields(d, {"kind", *names}, f"{kind} step")
    return cls(**{n: _STEP_FIELDS[n][1](d) for n in names if n != "predicted_rank"}, predicted_rank=rank)


def certificate_to_dict(C: Certificate) -> dict:
    return {
        "version": _PROBLEM_VERSION,
        "steps": [step_to_dict(s) for s in C.steps],
        "terminal": problem_to_dict(C.terminal),
        "origin": problem_to_dict(C.origin),
    }


def certificate_from_dict(d: dict) -> Certificate:
    _typed(d, dict, "certificate document")
    _check_fields(d, {"version", "steps", "terminal", "origin"}, "certificate")
    if _typed(d.get("version"), int, "version") != _PROBLEM_VERSION:
        raise SemanticError(f"unsupported version {d.get('version')!r}")
    steps = tuple(_each(step_from_dict, d.get("steps", []), "steps"))
    return Certificate(steps, _field(problem_from_dict, d, "terminal", dict), _field(problem_from_dict, d, "origin", dict))


def parse_certificate(text: str) -> Certificate:
    return certificate_from_dict(_load_json(text))


def print_certificate(C: Certificate) -> str:
    return json.dumps(certificate_to_dict(C), indent=2) + "\n"


# -- command dispatch ------------------------------------------------

EXIT_OK = 0
EXIT_NOT_RIGID = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3

# What execute_command reports as an input error: exit 2, one error line.
# UndecidedSign is caught first and exits 3.
INPUT_ERRORS = (RigidconnError, OSError)


def _load_problem(path: str) -> Problem:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _arc_endpoint_json(x):
    """An exact endpoint as its fraction; an interval as the float nearest
    its midpoint and a radius, rounded up, that bounds the distance from
    that float to every point of the interval."""
    if isinstance(x, Fraction):
        return str(x)
    center = float(x.mid)
    return {"center": center, "radius": math.nextafter(float(abs(x - center).b), math.inf)}


def _emit(out, args, human: str, machine: dict):
    if args.json:
        out.write(json.dumps(machine) + "\n")
    else:
        out.write(human + "\n")


def _cmd_rig(args, out) -> int:
    P = _load_problem(args.file)
    r = rig_index(P)
    _emit(out, args, f"rig_index = {r}", {"rig_index": r})
    return EXIT_OK


def _cmd_reduce(args, out) -> int:
    P = _load_problem(args.file)
    res = run_adk(P)
    if isinstance(res, Certificate):
        kinds = [s.kind for s in res.steps]
        if args.cert:
            text = print_certificate(res)  # may refuse; then no file is written
            with open(args.cert, "w", encoding="utf-8") as fh:
                fh.write(text)
        _emit(
            out,
            args,
            f"rigid: reduced to rank 1 in {len(res.steps)} steps ({', '.join(kinds) or 'none'})",
            {"verdict": "rigid", "steps": [step_to_dict(s) for s in res.steps]},
        )
        return EXIT_OK
    _emit(
        out,
        args,
        f"NotRigid ({res.reason})",
        {"verdict": "not_rigid", "reason": res.reason, "stuck_at_rig2": res.stuck_at_rig2},
    )
    return EXIT_NOT_RIGID


def _cmd_fourier(args, out) -> int:
    P = _load_problem(args.file)
    out.write(print_problem(fourier_global(P)))
    return EXIT_OK


def _cmd_mc(args, out) -> int:
    gamma = parse_rational(args.chi)
    if gamma % 1 == 0:
        raise SemanticError(f"the exponent of chi must not be an integer, got {args.chi}")
    P = _load_problem(args.file)
    out.write(print_problem(middle_convolution(P, gamma)))
    return EXIT_OK


def _cmd_twist(args, out) -> int:
    P = _load_problem(args.file)
    with open(args.twistfile, encoding="utf-8") as fh:
        d = _load_json(fh.read())
    _check_fields(d, {"points"}, "twist file")
    out.write(print_problem(twist_global(P, _twist_data(d.get("points", [])))))
    return EXIT_OK


def _cmd_enumerate(args, out) -> int:
    locations = [parse_loc(s) for s in args.points.split(",") if s.strip()]
    pool = []
    if args.phi:
        with open(args.phi, encoding="utf-8") as fh:
            entries = _load_json(fh.read())
        if not isinstance(entries, list):
            raise SemanticError("polar pool file must be a JSON array of polar expressions")
        pool = [parse_polar(_typed(s, str, "a polar expression")) for s in entries]
    for P in enumerate_candidates(locations, pool, args.order, args.rank):
        try:
            rig, verdict, _ = classify_candidate(P)
            line = {"rig_index": rig, "verdict": verdict}
        except RigidconnError as e:
            # one candidate's failure is its verdict; the stream goes on
            line = {"rig_index": rig_index(P), "verdict": "error", "error": str(e)}
        out.write(json.dumps({"problem": problem_to_dict(P), **line}) + "\n")
    return EXIT_OK


def _cmd_stokes_arcs(args, out) -> int:
    P = _load_problem(args.file)
    loc = parse_loc(args.point)
    if loc not in P.locations():
        raise SemanticError(f"no singular point at {args.point!r}")
    phis = [f.phi for f in P.at(loc).factors]
    p = math.lcm(*(q.ram for q in phis))
    report = []
    for psi in phis:
        for phi in phis:
            le, strict = order_arcs(psi, phi, p)
            # strict is empty where le is the full circle
            report.append({
                "psi": polar_str(psi),
                "phi": polar_str(phi),
                "full_circle": le is FULL_CIRCLE,
                "strict": [{"start": _arc_endpoint_json(a.start), "end": _arc_endpoint_json(a.end)} for a in strict],
            })
    out.write(json.dumps({"cover": p, "pairs": report}, indent=2) + "\n")
    return EXIT_OK


def _cmd_replay(args, out) -> int:
    with open(args.cert, encoding="utf-8") as fh:
        C = parse_certificate(fh.read())
    P = replay_certificate(C)
    out.write(print_problem(P))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rigidconn")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rig", help="print the rigidity index")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_rig)

    p = sub.add_parser("reduce", help="run the reduction loop")
    p.add_argument("file")
    p.add_argument("--cert", help="write the certificate here")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("fourier", help="global Fourier transform")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_fourier)

    p = sub.add_parser("mc", help="middle convolution")
    p.add_argument("file")
    p.add_argument("--chi", required=True, help="character exponent p/q")
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("twist", help="tensor by a rank-one datum")
    p.add_argument("file")
    p.add_argument("twistfile")
    p.set_defaults(fn=_cmd_twist)

    p = sub.add_parser("enumerate", help="enumerate and certify candidates")
    p.add_argument("--points", required=True, help="comma-separated locations")
    p.add_argument("--phi", help="JSON array of polar-part expressions")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("stokes-arcs", help="order arcs at one point")
    p.add_argument("file")
    p.add_argument("--point", required=True)
    p.set_defaults(fn=_cmd_stokes_arcs)

    p = sub.add_parser("replay", help="replay a certificate")
    p.add_argument("cert")
    p.set_defaults(fn=_cmd_replay)
    return ap


def execute_command(argv, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args, out)
    except UndecidedSign as e:
        err.write(f"precision exhausted: {e}\n")
        return EXIT_UNDECIDED
    except INPUT_ERRORS as e:
        err.write(f"error: {e}\n")
        return EXIT_INPUT


def main():
    sys.exit(execute_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
