import io
import json
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
    assert all("seconds" in c for c in data["cases"])


def test_selftest_fault_injection(monkeypatch):
    # a sign flip in one sigma must fail the lemma19 golden case by name
    import logdiv.arrangements as arr_mod
    from logdiv.groebner import FreeModuleVector
    real = arr_mod.generic_dn

    def mutated(n, max_n=arr_mod.MAX_N):
        arr = real(n, max_n)
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
