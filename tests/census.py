"""The census: every rig = 2 candidate of the five census slices taken to
a verdict, and every certificate printed, parsed back and replayed.

Run from the repository root:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/census.py [--check FILE]

It prints one line per slice (rig = 2 candidates, certificates,
certificates that replay onto their candidate, NotRigid verdicts and
raises) and one sha256 over the printed certificates, the verdict reprs,
the replay mismatch messages and the exception messages, in enumeration
order.  With ``--check FILE`` it compares that report with FILE (see
``tests/golden/census.txt``) and exits 1 on any difference.  pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import sys

from rigidconn.adk import NotRigid, ReplayMismatch, replay_certificate, run_adk
from rigidconn.cli import parse_certificate, print_certificate
from rigidconn.enumerate import enumerate_candidates
from rigidconn.errors import RigidconnError
from rigidconn.rigidity import rig_index

from helpers import CENSUS_SLICES, problems_equal


def _outcome(P) -> tuple[tuple[str, ...], str]:
    """(the counts it adds to, record) of one rig = 2 candidate."""
    try:
        res = run_adk(P)
    except RigidconnError as e:
        return ("raises",), f"{type(e).__name__}: {e}"
    if isinstance(res, NotRigid):
        return ("not_rigid",), repr(res)
    text = print_certificate(res)
    try:
        back = replay_certificate(parse_certificate(text))
    except ReplayMismatch as e:
        return ("certificates",), f"{text}ReplayMismatch: {e}"
    if not problems_equal(back, P):
        return ("certificates",), f"{text}replayed onto another problem"
    return ("certificates", "replayed"), text


def census() -> str:
    digest = hashlib.sha256()
    lines = []
    for name, locs, pool, N, r in CENSUS_SLICES:
        counts = dict.fromkeys(["rig2", "certificates", "replayed", "not_rigid", "raises"], 0)
        for P in enumerate_candidates(locs, pool, N, r):
            if rig_index(P) != 2:
                continue
            kinds, record = _outcome(P)
            for k in ("rig2", *kinds):
                counts[k] += 1
            digest.update(record.encode("utf-8") + b"\n")
        lines.append(name + " " + " ".join(f"{k}={v}" for k, v in counts.items()))
    lines.append(f"sha256 {digest.hexdigest()}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", metavar="FILE", help="expected report; exit 1 if the census differs")
    args = ap.parse_args(argv)
    got = census()
    sys.stdout.write(got)
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            want = fh.read()
        if got != want:
            sys.stdout.writelines(difflib.unified_diff(want.splitlines(True), got.splitlines(True), args.check, "census"))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
