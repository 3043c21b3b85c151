#!/usr/bin/env python3
"""Regenerate tests/golden_manifest.json, the bytes that tests/test_golden.py
holds the CLI to.

Runs solve, verify, moments, homogeneity and mc on every shipped scenario,
in csv and json, at --paths 2000 and --seed 42, in process through
`eqmo.cli.main`, and records each run as its exit code and the sha256 of
its manifest.json, joined by a space. The file also records what those
bytes follow besides the code: numpy's version (its Generator stream and
SIMD loops), the machine, the libc (libm's exp and pow) and the CPU
features numpy dispatches on. bsde is left out: its regression goes through
BLAS, so its bytes follow the OpenBLAS kernel, which none of these keys
pins.

Usage: PYTHONPATH=src python scripts/golden_manifest.py
"""
import hashlib
import json
import os
import platform
import tempfile

import numpy as np

from eqmo.artifacts import FORMATS
from eqmo.cli import main as eqmo_main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(ROOT, "scenarios")
GOLDEN = os.path.join(ROOT, "tests", "golden_manifest.json")
COMMANDS = ("solve", "verify", "moments", "homogeneity", "mc")
PATHS = 2000
SEED = 42


def environment() -> dict:
    """What the bytes follow besides the code, as JSON values."""
    try:
        features = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except TypeError:  # numpy < 1.25 has no mode; its bytes differ anyway
        features = None
    return {"numpy": np.__version__, "machine": platform.machine(),
            "libc": list(platform.libc_ver()), "cpu_features": features}


def record(out_root: str) -> dict:
    """{"scenario command format": "exit code, space, sha256 of manifest.json
    (None where there is none)"} for every run, each writing under out_root."""
    runs = {}
    for scn in sorted(f for f in os.listdir(SCENARIOS) if f.endswith(".scn")):
        for command in COMMANDS:
            for fmt in FORMATS:
                key = f"{scn[:-4]} {command} {fmt}"
                out = os.path.join(out_root, key.replace(" ", "_"))
                code = eqmo_main(["--command", command, "--scenario",
                                  os.path.join(SCENARIOS, scn), "--out", out,
                                  "--paths", str(PATHS), "--seed", str(SEED),
                                  "--format", fmt])
                digest = None
                if os.path.exists(os.path.join(out, "manifest.json")):
                    with open(os.path.join(out, "manifest.json"), "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                runs[key] = f"{code} {digest}"
    return runs


def main() -> None:
    with tempfile.TemporaryDirectory() as out_root:
        golden = {"environment": environment(), "runs": record(out_root)}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['runs'])} runs to {GOLDEN}")


if __name__ == "__main__":
    main()
