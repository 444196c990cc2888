"""The reference set-up that setup_s is normalised by.

Usage: python3 bench/setup_ref.py

Run in a fresh child process right after each set-up probe, it imports a
fixed list of standard-library modules and builds a few frozen
dataclasses: the same kind of work as importing hiercoop.cli (reading
bytecode, running module bodies, generating dataclass methods). It calls
no hiercoop code. Prints the time it took in seconds.

The body is frozen, like refunit.reference_unit(): editing it, or
SETUP_REF_NOMINAL_S in run.py, redefines setup_s and must be its own
change, followed by a fresh baseline.
"""
import time

start = time.perf_counter()
import argparse  # noqa: E402,F401
import configparser  # noqa: E402,F401
import csv  # noqa: E402,F401
import decimal  # noqa: E402,F401
import email.parser  # noqa: E402,F401
import fractions  # noqa: E402,F401
import json  # noqa: E402,F401
import logging  # noqa: E402,F401
import statistics  # noqa: E402,F401
import unittest  # noqa: E402,F401
from dataclasses import field, make_dataclass  # noqa: E402

for i in range(20):
    make_dataclass(
        f"Row{i}",
        [
            ("a", int, field(default=0)),
            ("b", float, field(default=1.0)),
            ("c", str, field(default="")),
            ("d", list, field(default_factory=list)),
        ],
        frozen=True,
    )
print(repr(time.perf_counter() - start))
