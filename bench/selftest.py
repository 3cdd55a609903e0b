"""Self-test of the benchmark itself (not of rigidconn):

    python3 bench/selftest.py

- the same seed yields identical inputs;
- two seeds yield the same shape list and the same operations per round;
- installing and removing the trace wrappers leaves every rigidconn
  module attribute (and the CycloNum class dictionary) the original
  object, and while installed the wrappers sit at every import site;
- manifest.json records the workloads, the shape list each runs and the
  certify slice inventory.
"""

from __future__ import annotations

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)


def _round_ops(w, inputs) -> int:
    """Operations in the first round of inputs, without running them."""
    first = inputs[: len(w.shapes)]
    if w.name == "certify":
        return sum(1 for _ in workloads._certify_feed(first))
    return len(first)


def check_inputs(failures: list):
    for w in workloads.WORKLOADS.values():
        a, b = (repr(w.inputs(SEEDS[0])) for _ in range(2))
        if a != b:
            failures.append(f"{w.name}: seed {SEEDS[0]} gave different inputs on two calls")
        ins = [w.inputs(s) for s in SEEDS]
        if repr(ins[0]) == repr(ins[1]):
            failures.append(f"{w.name}: seeds {SEEDS} gave the same values")
        shapes = [[shape for shape, _ in i] for i in ins]
        if shapes[0] != shapes[1]:
            failures.append(f"{w.name}: shape lists differ between seeds")
        counts = [_round_ops(w, i) for i in ins]
        if counts[0] != counts[1]:
            failures.append(f"{w.name}: operations per round differ between seeds: {counts}")
        print(f"{w.name}: {len(ins[0])} inputs, {counts[0]} operations per round")


def check_wrappers(failures: list):
    from rigidconn import adk, transforms

    before = tracing.snapshot()
    orig = transforms.fourier_global
    tr = tracing.Tracer(max_spans=1)
    tr.install()
    try:
        if transforms.fourier_global is orig or adk.fourier_global is not transforms.fourier_global:
            failures.append("wrapper missing at an import site of transforms.fourier_global")
        changed = sum(1 for k, v in tracing.snapshot().items() if before.get(k) is not v)
        print(f"wrappers: {changed} attributes replaced while installed")
    finally:
        tr.uninstall()
    after = tracing.snapshot()
    if after.keys() != before.keys():
        failures.append("attribute set changed after uninstall")
    for key, obj in before.items():
        if after.get(key) is not obj:
            failures.append(f"{key} is not the original object after uninstall")


def check_manifest(failures: list):
    with open(os.path.join(BENCH, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["workloads"].keys() != workloads.WORKLOADS.keys():
        failures.append("manifest lists other workloads than workloads.py")
    for name, w in workloads.WORKLOADS.items():
        entry = manifest["workloads"].get(name, {})
        if name == "certify":
            keys = ("candidates", "rig2", "verdicts", "replayed")
            recorded = [{k: inv[k] for k in keys} for inv in entry.get("slice_inventory", [])]
            if recorded != workloads.CERTIFY_INVENTORY:
                failures.append("certify: manifest slice inventory differs from CERTIFY_INVENTORY")
        if entry.get("shapes") != json.loads(json.dumps(w.shapes)):
            failures.append(f"{name}: manifest shape list differs from the workload's")


def main() -> int:
    failures: list[str] = []
    check_inputs(failures)
    check_wrappers(failures)
    check_manifest(failures)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
