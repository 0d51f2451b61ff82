#!/usr/bin/env python
"""Check every experiment's fast-preset rows against the golden fixtures.

Usage::

    PYTHONPATH=src python tools/check_golden_rows.py [EXP ...] \
        [--seeds 42 7] [--record]

Runs ``run(fast=True, seed=S)`` for each requested experiment (default:
all of E01–E18) at each seed and compares the rows, round-tripped
through JSON, with ``tests/fixtures/golden_fast_rows.json`` (seed 42)
or ``tests/fixtures/golden_fast_rows_seed<S>.json`` (any other seed).
Rows are compared as canonical JSON text, so a NaN cell matches itself.

Prints one ``OK``/``MISMATCH``/``MISSING`` line per (experiment, seed)
with its wall-clock, then a digest of each seed's full row set, and
exits 1 if anything differs.  ``--record`` rewrites the fixture entries
from the current tree instead of checking them.

Fixed-seed rows are the simulator's determinism contract: a change to
the event kernel, resources or any data plane must keep this report
all ``OK`` unless it means to move results.
"""

import argparse
import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
DEFAULT_SEEDS = (42, 7)


def fixture_path(seed):
    if seed == 42:
        return os.path.join(FIXTURES, "golden_fast_rows.json")
    return os.path.join(FIXTURES, "golden_fast_rows_seed%d.json" % seed)


def canonical(rows):
    """Rows as the fixture stores them: JSON text with sorted keys."""
    return json.dumps(rows, sort_keys=True)


def load(path):
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def save(path, golden):
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(DEFAULT_SEEDS))
    parser.add_argument("--record", action="store_true",
                        help="rewrite the fixtures from this tree")
    args = parser.parse_args(argv)

    from repro.experiments import REGISTRY

    exp_ids = [e.upper() for e in args.experiments] or sorted(REGISTRY)
    unknown = [e for e in exp_ids if e not in REGISTRY]
    if unknown:
        parser.error("unknown experiment(s): %s" % ", ".join(unknown))

    failed = False
    for seed in args.seeds:
        path = fixture_path(seed)
        golden = load(path)
        digest = hashlib.sha256()
        for exp_id in exp_ids:
            t0 = time.perf_counter()
            result = REGISTRY[exp_id].run(fast=True, seed=seed)
            wall = time.perf_counter() - t0
            got = canonical(json.loads(json.dumps(result.rows)))
            digest.update(("%s:%s\n" % (exp_id, got)).encode())
            if args.record:
                golden[exp_id] = json.loads(got)
                status = "RECORDED"
            elif exp_id not in golden:
                status = "MISSING"
                failed = True
            elif canonical(golden[exp_id]) == got:
                status = "OK"
            else:
                status = "MISMATCH"
                failed = True
            print("%s seed=%-3d %-8s (%.1fs)" % (exp_id, seed, status, wall),
                  flush=True)
        if args.record:
            save(path, golden)
        print("seed=%d rows digest %s (%s)"
              % (seed, digest.hexdigest()[:16], " ".join(exp_ids)),
              flush=True)
    if failed:
        print("FAIL: rows differ from the golden fixtures")
        return 1
    if not args.record:
        print("PASS: %d experiment(s) bit-identical at seed(s) %s"
              % (len(exp_ids), ", ".join(str(s) for s in args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
