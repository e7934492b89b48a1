import json

import pytest

from cubictrace import verify
from cubictrace.cli import main, parse_algebra_spec, parse_element


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_element():
    assert parse_element("1,-2,1") == ((1, -2, 1), 0, False)
    assert parse_element("1|6|11") == ((1, 6, 11), 0, True)
    assert parse_element("1,2,3/p^2") == ((1, 2, 3), 2, False)
    assert parse_element("1,2,3/p") == ((1, 2, 3), 1, False)
    with pytest.raises(ValueError):
        parse_element("1,2")


def test_element_format_roundtrip():
    from cubictrace.cli import format_element

    for coeffs, den, split in [((1, -2, 1), 0, False), ((0, 1, 2), 3, True),
                               ((4, 0, 6), 1, False)]:
        assert parse_element(format_element(coeffs, den, split)) == (coeffs, den, split)


def test_parse_algebra_spec():
    A = parse_algebra_spec("p=5;f=0,2,2")
    assert A.p == 5 and A.k == 1 and A.f == (0, 2, 2)
    B = parse_algebra_spec("p=5;split=0,1,2")
    assert B.splitting_type == "split"


def test_count_command(capsys):
    code, out = run_cli(
        capsys, "--json", "count", "--p", "5", "--type", "inert",
        "--s", "0", "--n", "1", "--method", "both",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value_brute"] == doc["value_formula"] == 6


def test_count_worked_values(capsys):
    for name, want in (("split", 3), ("mixed", 5), ("inert", 6)):
        code, out = run_cli(
            capsys, "--json", "count", "--p", "5", "--type", name,
            "--s", "0", "--n", "1",
        )
        assert code == 0 and json.loads(out)["value_formula"] == want


def test_json_determinism(capsys):
    args = ["--json", "count", "--p", "7", "--type", "split", "--s", "1", "--n", "2"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_branch_command_worked_example(capsys):
    code, out = run_cli(
        capsys, "--json", "branch",
        "--algebra", "p=5;split=0,1,2",
        "--eta", "1|6|11", "--gamma", "1|-2|1", "--k", "3", "--oracle",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_agrees"]
    kinds = {d["kind"] for d in doc["descriptors"]}
    assert "singular-simple-root" in kinds
    assert sorted({t % 5 for t in doc["classes"]}) == [0, 1]
    # the spec carries no precision: --k 3 alone gives the 10 classes mod 25
    assert doc["classes"] == [0, 1, 5, 6, 10, 11, 15, 16, 20, 21]


def test_branch_rational_gamma(capsys):
    code, out = run_cli(
        capsys, "--json", "branch",
        "--algebra", "p=5;split=0,1,2",
        "--eta", "1|6|11", "--gamma", "5,10,5/p", "--k", "2", "--oracle",
    )
    assert code == 0 and json.loads(out)["oracle_agrees"]


def test_jets_command_exact_rationals(capsys):
    # x = 2*z0 + z2 = (4,2,2) for omega = T in the canonical inert F_5 algebra
    code, out = run_cli(
        capsys, "--json", "jets", "--p", "5", "--type", "inert",
        "--x", "4,2,2", "--omega", "0,1,0", "--c", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["freq_zero"] == {"num": 1, "den": 5}
    assert doc["freq_square"] == {"num": 2, "den": 5}
    assert doc["uniform"]


def test_cubeclass_command(capsys):
    code, out = run_cli(capsys, "--json", "cubeclass", "--p", "7", "--type", "split")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 210 and doc["class_bound_ok"]


def test_wieferich_command(capsys):
    code, out = run_cli(
        capsys, "--json", "wieferich", "--g=-1,-1,0", "--eta", "0,1,0",
        "--pmin", "5", "--pmax", "60",
    )
    assert code == 0
    doc = json.loads(out)
    inert = [r for r in doc["reports"] if r["inert"]]
    assert all(r["agree"] and r["nonscalar"] for r in inert)


def test_verify_all_small(capsys):
    code, out = run_cli(
        capsys, "verify-all", "--pset", "5",
        "--branch-contexts", "10", "--rankd-contexts", "5",
    )
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_all_fault_injection(capsys):
    code, out = run_cli(
        capsys, "verify-all", "--pset", "5",
        "--branch-contexts", "5", "--rankd-contexts", "5",
        "--fault", "count-table/worked-example/split",
    )
    assert code == 1
    assert "FAILED" in out and "count-table/worked-example/split" in out


def test_usage_error_exit_2(capsys):
    code = main(["count", "--p", "4", "--type", "inert", "--s", "0", "--n", "1"])
    assert code == 2
    code = main([
        "branch", "--algebra", "p=5;f=0,0,0", "--eta", "0,1,0",
        "--gamma", "1,0,0", "--k", "2",
    ])
    assert code == 2  # ramified cubic rejected


BRANCH_EXAMPLE = ["--eta", "1|6|11", "--gamma", "1|-2|1", "--k", "3"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["nodal", "--p", "2", "--type", "split", "--gamma", "1,0,0"], "p must be a prime"),
        (["wieferich", "--g=-1,-1,0", "--eta", "0,1,0", "--pmin", "5", "--pmax", "3"], "pmin"),
        (["branch", "--algebra", "p=5;k=1;split=0,1,2", *BRANCH_EXAMPLE], "'k'"),
        (["branch", "--algebra", "p=5;q=7;split=0,1,2", *BRANCH_EXAMPLE], "'q'"),
        (["branch", "--algebra", "p=5;f=1,1,1;split=0,1,2", *BRANCH_EXAMPLE], "'f' and 'split'"),
    ],
    ids=[
        "nodal-p", "wieferich-range", "branch-spec-k", "branch-spec-unknown-field",
        "branch-spec-f-and-split",
    ],
)
def test_out_of_range_input_exits_2_naming_the_parameter(capsys, argv, named):
    assert main(argv) == 2
    assert named in capsys.readouterr().err


def test_branch_oracle_honours_the_enumeration_cap():
    # contexts are drawn up to the cap, and the oracle must accept all of them
    res = verify.run_all(caps={"enum": 2_000_000, "branch_contexts": 4}, only=["5-branch-oracle"])
    assert res.summary["failed"] == 0


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_coset_command_checks_every_subgroup_above_order_400(capsys):
    # split p = 23: Z_22 x Z_22 of order 484 has 70 subgroups and 2794 cosets
    # of them; the non-cyclic subgroups are among them
    code, out = run_cli(
        capsys, "--json", "coset", "--p", "23", "--type", "split", "--gamma", "1,0,0", "--s", "1",
    )
    doc = json.loads(out)
    assert code == 0
    assert len(doc["records"]) == 2794
    assert all(r["pass"] for r in doc["records"])
    assert {r["subgroup_order"] for r in doc["records"]} == {d for d in range(1, 485) if 484 % d == 0}


def test_coset_rejects_exhaustive_flag():
    with pytest.raises(SystemExit) as exc:
        main(["coset", "--p", "7", "--type", "split", "--gamma", "1,0,0", "--s", "1", "--exhaustive"])
    assert exc.value.code == 2
