"""Golden manifest: the bytes that solve, verify, moments, homogeneity and mc
write on the shipped scenarios stay those of tests/golden_manifest.json.

Besides the code, the bytes follow numpy's version (the Generator stream of
mc, its SIMD loops), the machine, the libc (libm's exp and pow, and with
them glibc's FMA choice on mvsk) and the CPU features numpy dispatches on.
So the test compares only where all four match the file's, and anywhere
else skips, naming each key that differs. bsde stays out until its
regression no longer goes through BLAS: its bytes follow the OpenBLAS
kernel, which none of these keys pins. A change that moves bytes
regenerates the file with scripts/golden_manifest.py.
"""
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "golden_manifest", os.path.join(ROOT, "scripts", "golden_manifest.py"))
golden_manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_manifest)


def test_shipped_runs_write_the_golden_bytes(tmp_path):
    with open(golden_manifest.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    recorded, here = golden["environment"], golden_manifest.environment()
    differ = [f"{key} {here[key]} (recorded {recorded[key]})"
              for key in sorted(recorded) if here[key] != recorded[key]]
    if differ:
        pytest.skip("golden manifest recorded elsewhere: " + "; ".join(differ))
    runs = golden_manifest.record(str(tmp_path))
    assert sorted(runs) == sorted(golden["runs"])
    moved = {key: (golden["runs"][key], runs[key])
             for key in runs if runs[key] != golden["runs"][key]}
    assert not moved, f"runs whose exit code or bytes moved (recorded, now): {moved}"
