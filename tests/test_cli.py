import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from contextlib import redirect_stdout, redirect_stderr

import pytest

from logdiv.cli import run, infer_nvars
from logdiv.grammar import parse_operator, parse_polynomial


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv + ["--json"])
    assert code == 0, err
    return json.loads(out)


def test_infer_nvars():
    assert infer_nvars("x*y") == 2
    assert infer_nvars("x1*x5") == 5
    assert infer_nvars("w + dx2") == 4
    assert infer_nvars("3") == 1


def test_exit_codes():
    code, _, err = invoke(["logder", "x^2 +"])
    assert code == 2 and "line 1" in err
    code, _, err = invoke(["v0-basis", "-f", "x^2+y", "-d", "1", "-w", "0"])
    assert code == 3 and "homogeneous" in err
    code, _, _ = invoke(["logder", "1"])  # constant divisor
    assert code == 3
    code, _, _ = invoke(["bogus-subcommand"])
    assert code == 2
    code, _, _ = invoke(["arrangement", "dn"])  # missing --n
    assert code == 2


def test_json_deterministic_bytes():
    a = invoke(["criterion", "x^3+y^3+z^3", "--dimZ", "0", "--json"])
    b = invoke(["criterion", "x^3+y^3+z^3", "--dimZ", "0", "--json"])
    assert a[0] == b[0] == 0
    assert a[1] == b[1]
    assert "schema" in json.loads(a[1])


def test_human_output_has_timing_json_does_not():
    _, human, _ = invoke(["euler", "x^2+y^2"])
    assert "elapsed:" in human
    data = invoke_json(["euler", "x^2+y^2"])
    assert "elapsed" not in json.dumps(data)


def test_logder_json_roundtrips():
    data = invoke_json(["logder", "x*y*z*(x+y+z)"])
    n = data["input"]["nvars"]
    f = parse_polynomial(data["input"]["f"], n)
    assert not f.is_zero()
    for vec in data["generators"]:
        for entry in vec:
            parse_polynomial(entry, n)
    chi = parse_operator(data["euler"], n)
    assert parse_operator(repr(chi), n) == chi
    assert data["freeness"] == "not free at 0"


def test_v0_member_example9():
    arr = invoke_json(["arrangement", "example9"])
    data = invoke_json(["v0-member", "-f", arr["f"], "-P", arr["Q"], "-k", "0"])
    assert data["member"] is True
    assert data["order"] == 2


# sha256 of the whole v0-member --json output, "order" included, from before
# the membership query object was folded into v_membership
V0_MEMBER_PINS = [
    (["-f", "x*y", "-P", "-x*dx"],
     "4c9d33b240b6415bb79e3a9f06089b041e1894785d821b02798994529fa0bb01"),
    (["-f", "x+y", "-P", "dx", "-k", "-2000"],
     "b23c1dabda2e9201fe704f7c852cdda6a18e284c376c7dc47066e8446dfb4321"),
    (["-f", "x+y", "-P", "dx", "-k", "-900"],
     "5a02dc7d449f8f40433d784e9a998273748a687b8c485f6381ce2800ff25638c"),
    (["-f", "1+x+y^2", "-P", "dx", "-k", "-300"],
     "1bda5068e70865c4aaf553825b7fffdcdaacf96d9f94cbaa83b0e88499a526ff"),
    (["-f", "1+x+y^2", "-P", "dx", "-k", "-3"],
     "66c754a7e091ae51624a4d73991969b14daae7f11ce69977bdaed7b9d821e660"),
    (["-f", "x+y", "-P", "(x+y)^3*dx", "-k", "-2"],
     "adf3bd7fc3d3fb44419ad3553548aa0aa6d32175cf7097b5eb655b28b92f4503"),
    (["-f", "x*y", "-P", "0", "-k", "-5"],
     "ad0017a47c918e0d31ffcc62862816cd3debd210a0d4c032366f84e82e78b1e9"),
    ("example9",
     "34d7e77e6a5db3ace286d8c4fa8a1015efa9df7d94410b931085d51e43f8086f"),
]


@pytest.mark.parametrize("args, sha", V0_MEMBER_PINS)
def test_v0_member_output_is_pinned(args, sha):
    if args == "example9":
        arr = invoke_json(["arrangement", "example9"])
        args = ["-f", arr["f"], "-P", arr["Q"], "-k", "0"]
    code, out, err = invoke(["v0-member", *args, "--json"])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_v0_basis_compare_reports_gap():
    arr = invoke_json(["arrangement", "example9"])
    data = invoke_json(["v0-basis", "-f", arr["f"], "-d", "2", "-w", "3",
                        "--compare"])
    piece = data["pieces"][0]
    assert piece["equal"] is False
    assert piece["dim_v0"] == piece["dim_generated"] + 1
    witness = parse_operator(piece["witness"], 3)
    from logdiv.vfilt import v_member
    assert v_member(parse_polynomial(arr["f"], 3), witness, 0)


def test_v0_basis_compare_builds_log_derivations_once(monkeypatch):
    from logdiv import logder, vfilt
    calls = []
    real = logder.log_derivations

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(logder, "log_derivations", counting)
    monkeypatch.setattr(vfilt, "log_derivations", counting)
    data = invoke_json(["v0-basis", "-f", "x*y*z*(x+y+z)*(x+2*y+3*z)",
                        "-d", "1", "--compare"])
    assert [p["w"] for p in data["pieces"]] == list(range(-1, 5))
    assert len(calls) == 1
    # an invalid divisor is still reported by the first piece
    for text, reason in (("x^2+y^3", "graded bases need a homogeneous"),
                         ("7", "divisor must be a nonconstant polynomial")):
        code, _, err = invoke(["v0-basis", "-f", text, "-d", "1", "--compare"])
        assert code == 3 and reason in err
    assert len(calls) == 1


@pytest.mark.parametrize("compare", [[], ["--compare"]])
def test_v0_basis_scan_range_is_labelled_heuristic(compare):
    f = "x*y*(x+y)"
    data = invoke_json(["v0-basis", "-f", f, "-d", "2", *compare])
    assert data["weight_range"] == {"from": -2, "to": 4, "heuristic": True}
    assert [p["w"] for p in data["pieces"]] == list(range(-2, 5))
    code, out, _ = invoke(["v0-basis", "-f", f, "-d", "2", *compare])
    assert code == 0 and "weight_range.heuristic: true" in out.splitlines()
    # a single piece asked for with -w scans nothing
    data = invoke_json(["v0-basis", "-f", f, "-d", "2", "-w", "3", *compare])
    assert "weight_range" not in data
    code, out, _ = invoke(["v0-basis", "-f", f, "-d", "2", "-w", "3",
                           *compare])
    assert code == 0 and "weight_range" not in out


def test_option_values_starting_with_minus():
    data = invoke_json(["v0-member", "-f", "x*y", "-P", "-x*dx"])
    assert data["input"]["P"] == "-x*dx"
    assert data["member"] is True
    data = invoke_json(["v0-basis", "-f", "-x*y", "-d", "1", "-w", "0"])
    assert data["input"]["f"] == "-x*y"
    assert data == invoke_json(["v0-basis", "-f=-x*y", "-d", "1", "-w", "0"])
    code, _, err = invoke(["v0-member", "-f", "x*y", "-P"])
    assert code == 2 and "expected one argument" in err


def test_vk_basis_command():
    data = invoke_json(["vk-basis", "-f", "x*y", "-k", "1", "-d", "1",
                        "-w", "-1"])
    ops = {op for op in data["basis"]}
    assert "dx" in ops and "dy" in ops


def test_criterion_quadric_refuted():
    data = invoke_json(["criterion", "x^2+y^2+z^2+w^2", "--dimZ", "0"])
    assert data["verdict"] == "refuted-with-witness"
    assert data["certified"] is False
    assert data["torsion_witnesses"]
    assert data["resolution_shape"] == "na"


def test_criterion_d3_certified():
    data = invoke_json(["criterion", "x*y*z*(x+y+z)", "--dimZ", "0"])
    assert data["verdict"] == "certified"
    assert data["grade"] == 3 and data["required"] == 3
    assert data["hypotheses"]["split"] is True
    assert data["hypotheses"]["euler_homogeneous"] is True


def test_criterion_free_divisor_certified():
    data = invoke_json(["criterion", "x*y*z"])
    assert data["verdict"] == "certified"
    assert data["hypotheses"]["free"] == "free"
    assert "free divisor" in data["rests_on"]


def test_criterion_non_euler_inconclusive():
    data = invoke_json(["criterion", "x^5 + y^5 + x^3*y^3"])
    assert data["verdict"] == "inconclusive"
    assert data["hypotheses"]["euler"] is None


def test_symalg_command():
    data = invoke_json(["symalg", "x^2+y^2+z^2+w^2", "--module", "ann",
                        "--symk", "2"])
    assert data["pi_injective"] is False
    assert not data["torsion"]["torsion_free"]
    assert [w["variable"] for w in data["torsion"]["witnesses"]] == [0, 1, 2, 3]
    for rel in data["relations"]:
        parse_polynomial(rel, 4 + data["module_rank"])


def test_arrangement_checks():
    data = invoke_json(["arrangement", "dn", "--n", "4", "--check", "lemma19"])
    assert data["lemma19"] is True
    data = invoke_json(["arrangement", "dn", "--n", "4", "--check", "prop17"])
    assert data["prop17"] is True


def test_selftest_passes():
    data = invoke_json(["selftest"])
    assert data["failed"] == 0
    assert data["passed"] == len(data["cases"])
    # timings appear only in the human format, so the JSON is reproducible
    assert not any("seconds" in c for c in data["cases"])


def test_selftest_fault_injection(monkeypatch):
    # a sign flip in one sigma must fail the lemma19 golden case by name
    import logdiv.arrangements as arr_mod
    from logdiv.groebner import FreeModuleVector
    real = arr_mod.generic_dn

    def mutated(n):
        arr = real(n)
        key = sorted(arr.sigmas)[0]
        sigma = arr.sigmas[key]
        arr.sigmas[key] = FreeModuleVector(
            (sigma.components[0], -sigma.components[1]) +
            tuple(sigma.components[2:]))
        return arr

    monkeypatch.setattr(arr_mod, "generic_dn", mutated)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["selftest", "--json"])
    assert code == 1
    data = json.loads(out.getvalue())
    failed = {c["case"] for c in data["cases"] if not c["pass"]}
    assert any(name.startswith("lemma19") for name in failed)


def test_config_file_overrides_defaults(tmp_path):
    cfg = tmp_path / "logdiv.cfg"
    cfg.write_text("dimZ=1\n")
    data = invoke_json(["--config", str(cfg), "criterion", "x^3+y^3+z^3"])
    assert data["input"]["dimZ"] == 1
    assert data["certified"] is False  # grade 3 < required 4
    # explicit flag still wins
    data = invoke_json(["--config", str(cfg), "criterion", "x^3+y^3+z^3",
                        "--dimZ", "0"])
    assert data["certified"] is True


def test_config_values_are_checked_like_flags(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("route=bogus\n")
    code, out, err = invoke(["--config", str(cfg), "criterion", "x^3+y^3+z^3"])
    assert code == 2 and out == ""
    assert "invalid choice: 'bogus'" in err


def test_config_does_not_leak_into_later_runs(tmp_path):
    cfg = tmp_path / "logdiv.cfg"
    cfg.write_text("dimZ=1\nk=3\n")   # k belongs to other subcommands
    data = invoke_json(["--config", str(cfg), "criterion", "x^3+y^3+z^3"])
    assert data["input"]["dimZ"] == 1
    data = invoke_json(["criterion", "x^3+y^3+z^3"])
    assert data["input"]["dimZ"] == 0


def test_malformed_config_line_is_a_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("garbage\n")
    code, out, err = invoke(["--config", str(cfg), "euler", "x*y"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "garbage" in err


@pytest.mark.parametrize("extra", [[], ["-w", "0"]])
def test_negative_order_bound_is_a_usage_error(extra):
    code, out, err = invoke(["v0-basis", "-f", "x*y", "-d", "-1"] + extra)
    assert code == 2 and out == ""
    assert "order bound must be nonnegative" in err


@pytest.mark.parametrize("extra", [[], ["--compare"], ["-w", "0"],
                                   ["-w", "0", "--compare"]])
def test_zero_divisor_is_unsupported(extra):
    # without -w the scan range of the zero polynomial was empty: exit 0
    code, out, err = invoke(["v0-basis", "-f", "0", "-d", "2"] + extra)
    assert code == 3 and out == ""
    assert "divisor must be a nonconstant polynomial" in err


@pytest.mark.parametrize("text", ["0", "7"])
@pytest.mark.parametrize("command", ["logder", "euler", "freeness", "symalg",
                                     "criterion"])
def test_constant_divisor_is_unsupported(command, text):
    code, out, err = invoke([command, text])
    assert code == 3 and out == ""
    assert err == "unsupported input: divisor must be a nonconstant polynomial\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_nvars_below_one_is_a_usage_error(n):
    code, out, err = invoke(["logder", "-n", n, "x"])
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert invoke_json(["logder", "-n", "2", "x"])["input"]["nvars"] == 2


@pytest.mark.parametrize("argv", [
    ["logder", "x33"],
    ["logder", "x100000"],
    ["logder", "-n", "33", "x"],
    ["euler", "-n", "1000000000", "x"],
    ["v0-member", "-f", "x", "-P", "dx40", "-k", "0"],
    ["criterion", "x1*x2*x99"],
])
def test_ring_above_the_cap_is_a_usage_error(argv):
    start = time.perf_counter()
    code, out, err = invoke(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "at most 32" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [["logder", "x32"],
                                  ["logder", "-n", "32", "x1"]])
def test_ring_at_the_cap_is_computed(argv):
    assert invoke_json(argv)["input"]["nvars"] == 32


@pytest.mark.parametrize("argv", [
    ["euler", "(" * 200 + "x" + ")" * 200],
    ["euler", "x*" + "-" * 3000 + "x"],
    ["v0-member", "-f", "x*y", "-P", "(" * 200 + "dx" + ")" * 200, "-k", "0"],
    ["v0-member", "-f", "x*y", "-P", "x*" + "-" * 3000 + "dx", "-k", "0"],
])
def test_deep_nesting_is_a_parse_error(argv):
    code, out, err = invoke(argv)
    assert code == 2 and out == ""
    assert err.startswith("parse error: expression nested too deeply (line 1")
    # the parser still works afterwards
    assert invoke_json(["euler", "((x))"])["euler"] == "x*dx"


def test_negative_dimz_is_a_usage_error(tmp_path):
    code, out, err = invoke(["criterion", "x^2*z+y^3", "--dimZ=-2", "--json"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "dimZ" in err
    cfg = tmp_path / "logdiv.cfg"
    cfg.write_text("dimZ=-1\n")
    code, out, err = invoke(["--config", str(cfg), "criterion", "x^2*z+y^3"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "dimZ" in err


def test_symk_bound_below_one_is_a_usage_error(tmp_path):
    code, out, err = invoke(["criterion", "x^3+y^3+z^3", "--symk-bound", "-3",
                             "--json"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "symk_bound" in err
    cfg = tmp_path / "logdiv.cfg"
    cfg.write_text("symk_bound=-1\n")
    code, out, err = invoke(["--config", str(cfg), "criterion", "x^3+y^3+z^3"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "symk_bound" in err


@pytest.mark.parametrize("f, P, k, member", [
    ("x+y", "dx", -2000, False),
    ("x+y", "dx", -900, False),
    ("1+x+y^2", "dx", -300, True),
    # small levels keep their answers
    ("1+x+y^2", "dx", -3, True),
    ("x+y", "(x+y)^3*dx", -2, True),
])
def test_v0_member_at_very_negative_levels(f, P, k, member):
    start = time.perf_counter()
    data = invoke_json(["v0-member", "-f", f, "-P", P, "-k", str(k)])
    assert time.perf_counter() - start < 2
    assert data["member"] is member


def test_v0_member_of_large_order_answers():
    # about 10^5 conditions on f = x, each with at most one derivative of x
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-m", "logdiv.cli", "v0-member", "-f", "x", "-P",
         "dx^100000", "--json"],
        capture_output=True, text=True, env=env, timeout=20)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["member"] is False


def test_v0_member_of_huge_order_answers():
    # E_gamma vanishes at |gamma| < |beta| - l*deg f, so the scan of f = x
    # starts at gamma = 10^9 - 1 of level 1 instead of 10^9 pairs before it
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-m", "logdiv.cli", "v0-member", "-f", "x", "-P",
         "dx^1000000000", "--json"],
        capture_output=True, text=True, env=env, timeout=20)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["member"] is False


def test_vk_basis_far_below_zero_is_empty_and_fast():
    start = time.perf_counter()
    data = invoke_json(["vk-basis", "-f", "x+y", "-k", "-100000", "-d", "0",
                        "-w", "0"])
    assert time.perf_counter() - start < 2
    assert data["dim"] == 0 and data["basis"] == []


def test_unknown_route_is_rejected():
    from logdiv.criterion import criterion_certificate
    f = parse_polynomial("x*y*(x+y)", 2)
    for route in ("splt", "", None):
        with pytest.raises(ValueError) as err:
            criterion_certificate(f, 0, 2, route)
        assert all(name in str(err.value) for name in ("both", "ann", "split"))
    code, out, err = invoke(["criterion", "x*y*(x+y)", "--route", "splt"])
    assert code == 2 and out == ""
    assert "both" in err and "split" in err
