"""The acceptance matrix: every criterion at its stated scale and tolerance.

Each criterion runs as one test and prints a pass/fail line; all verdicts
inside the matrix are exact integer/rational comparisons.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines,
or equivalently ``cubictrace verify-all``.
"""

import hashlib
import json

import pytest

from cubictrace import verify
from cubictrace.cli import jsonable

CAPS = {"branch_contexts": 500, "rankd_contexts": 200, "enum": 200_000}


@pytest.mark.parametrize("criterion", sorted(verify.CHECKS))
def test_criterion(criterion):
    res = verify.run_all(only=[criterion], caps=CAPS)
    failures = [r for r in res.records if not r["pass"]]
    status = "PASS" if not failures else "FAIL"
    print(f"{status} {criterion}: {res.summary['passed']}/{res.summary['total']} exact checks")
    assert not failures, failures[:5]


def test_fault_injection_is_detected():
    # harness self-test: a flipped count must fail loudly
    res = verify.run_all(
        only=["1-count-table"], fault="count-table/worked-example/inert"
    )
    assert res.exit_code == 1
    assert res.summary["failed"] == 1


def test_report_is_deterministic():
    a = verify.run_all(only=["2-factorization-census"], seed=1)
    b = verify.run_all(only=["2-factorization-census"], seed=1)
    assert a.records == b.records


# sha256 of the verdict records of criteria 3, 5 and 8, serialised as
# ``cubictrace --json --seed 1 verify-all --pset 5,7 --branch-contexts 20
# --rankd-contexts 20`` prints them.  A change that alters any of these
# records, even in a tested= count, changes the digest.
VERDICT_DIGEST = "2058c05b358182ebd4b26beec9eb22a041221d0025388b972eb66d2c83df678c"


def test_verdict_records_are_byte_identical():
    res = verify.run_all(
        pset=(5, 7),
        seed=1,
        caps={"branch_contexts": 20, "rankd_contexts": 20},
        only=["3-coset-bound", "5-branch-oracle", "8-rankd"],
    )
    blob = json.dumps(jsonable(res.records), sort_keys=True, separators=(",", ":"))
    assert len(res.records) == 34
    assert hashlib.sha256(blob.encode()).hexdigest() == VERDICT_DIGEST


# sha256 of criterion 4's verdict records, serialised as
# ``cubictrace --json --seed 1 verify-all --pset 5,7`` prints them.
NODAL_DIGEST = "bb0ae81f207c9acb9c911355776426cf418df5054383782613f2acf0dbacc849"


def test_nodal_records_are_byte_identical():
    res = verify.run_all(pset=(5, 7), seed=1, only=["4-nodal-coset"])
    blob = json.dumps(jsonable(res.records), sort_keys=True, separators=(",", ":"))
    assert len(res.records) == 15
    assert hashlib.sha256(blob.encode()).hexdigest() == NODAL_DIGEST
