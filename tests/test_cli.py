import hashlib
import json

import pytest

from bordersub import Support, Tensor3, build_W, nullcone, unit_tensor
from bordersub.cli import main
from bordersub.tensors import dumps_json

# sha256 of repr((exit code, stdout, stderr)) of `reproduce --n-max 3`, as
# printed before the simplex was narrowed to right-hand sides >= 0
REPRODUCE_N3_DIGEST = "bd41cae96490509370b482859e237d8d3c8b4943301cd382e7287b378cdce1d2"

# sha256 of the stdout of `nullcone components --n 3`, as printed by the
# search that visits every member of each symmetry orbit
COMPONENTS_N3_STDOUT_DIGEST = "b5aa768c0f282c25302c496f28be6bb4477e591651b94a8e3a1398133d38bd68"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(dumps_json(payload))
    return str(path)


def test_gen_support_and_tensor_round_trip(tmp_path, capsys):
    wfile = str(tmp_path / "w.json")
    code, _, _ = run(capsys, "gen", "support", "--n", "3", "--family", "W", "-o", wfile)
    assert code == 0
    sup = Support.from_json(json.loads(open(wfile).read()))
    assert sup.triples == build_W(3, "W").triples

    tfile = str(tmp_path / "t.json")
    code, _, _ = run(capsys, "gen", "tensor", "--support", wfile, "--seed", "5", "--add-unit", "-o", tfile)
    assert code == 0
    T = Tensor3.from_json(json.loads(open(tfile).read()))
    assert len(T.entries) == 16  # 13 staircase + 3 diagonal


def test_nullcone_check_feasible(tmp_path, capsys):
    wfile = write(tmp_path, "w.json", build_W(3, "W").to_json())
    code, out, _ = run(capsys, "nullcone", "check", "--support", wfile)
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["feasible"] is True
    cert = report["outputs"]["certificate"]
    assert all(l + m + n == 0 for l, m, n in zip(cert["lambda"], cert["mu"], cert["nu"]))


def test_nullcone_check_infeasible_exit_code(tmp_path, capsys):
    sfile = write(tmp_path, "s.json", Support.of(2, [(1, 1, 1)]).to_json())
    code, out, _ = run(capsys, "nullcone", "check", "--support", sfile)
    assert code == 1
    assert json.loads(out)["outputs"]["feasible"] is False


def test_nullcone_maximal(tmp_path, capsys):
    wfile = write(tmp_path, "w.json", build_W(3, "W").to_json())
    code, out, _ = run(capsys, "nullcone", "maximal", "--support", wfile)
    assert code == 0 and json.loads(out)["outputs"]["maximal"] is True
    small = write(tmp_path, "small.json", Support.of(2, [(2, 1, 1)]).to_json())
    code, out, _ = run(capsys, "nullcone", "maximal", "--support", small)
    assert code == 1
    assert json.loads(out)["outputs"]["extendable"]


def test_nullcone_components_n2(tmp_path, capsys):
    code, out, _ = run(capsys, "nullcone", "components", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["complete"] is True
    assert len(report["outputs"]["components"]) == 6


def test_nullcone_components_n3_pinned(capsys):
    code, out, _ = run(capsys, "nullcone", "components", "--n", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPONENTS_N3_STDOUT_DIGEST


def test_nullcone_components_cap_refusal(capsys):
    code, _, err = run(capsys, "nullcone", "components", "--n", "4")
    assert code == 2
    assert "best_effort" in err or "best-effort" in err


def test_nullcone_components_rejects_nonpositive_n(capsys):
    code, _, err = run(capsys, "nullcone", "components", "--n", "0")
    assert code == 2
    assert "n must be positive" in err


def test_invariants_commands(tmp_path, capsys):
    code, out, _ = run(capsys, "invariants", "list", "--n", "3", "--format", "json")
    assert code == 0 and json.loads(out)["outputs"]["count"] == 14
    # default rendering for the listing is a table
    code, out, _ = run(capsys, "invariants", "list", "--n", "2")
    assert code == 0 and out.startswith("checks")

    good = write(tmp_path, "m.json", {"n": 3, "factors": [[1, 2, 3], [2, 3, 1], [3, 1, 2]]})
    assert run(capsys, "invariants", "check", "--monomial", good)[0] == 0
    bad = write(tmp_path, "m2.json", {"n": 3, "factors": [[1, 2, 3]]})
    assert run(capsys, "invariants", "check", "--monomial", bad)[0] == 1

    wfile = write(tmp_path, "w.json", build_W(3, "W").to_json())
    code, out, _ = run(capsys, "invariants", "within", "--support", wfile, "--max-degree", "3")
    assert code == 0 and json.loads(out)["outputs"]["count"] == 0


def test_stab_and_dims(tmp_path, capsys):
    tfile = write(tmp_path, "u3.json", unit_tensor(3).to_json())
    code, out, _ = run(capsys, "stab", "dim", "--tensor", tfile)
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"] == {"value": 6, "convention": "gl3", "attempts": []}
    code, out, _ = run(capsys, "stab", "dim", "--tensor", tfile, "--convention", "quotient")
    assert json.loads(out)["outputs"]["value"] == 4

    code, out, _ = run(capsys, "cone-stab", "--n", "3", "--structure")
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["value"] == 14
    assert rep["checks"][0]["pass"] is True

    code, out, _ = run(capsys, "orbit-dim", "--n", "3", "--seed", "0")
    assert code == 0 and json.loads(out)["outputs"]["value"] == 24

    code, out, _ = run(capsys, "bound", "--n", "4")
    assert code == 0 and json.loads(out)["outputs"]["value"] == 55


def test_certify_golden_cases(tmp_path, capsys):
    # single off-diagonal triple: feasible, must be certified
    one = write(tmp_path, "one.json", {"n": 2, "entries": [[1, 1, 1, "1"], [1, 2, 2, "1"], [2, 2, 2, "1"]]})
    code, out, _ = run(capsys, "certify", "--tensor", one)
    assert code == 0
    assert json.loads(out)["outputs"]["certified"] is True

    # adding (2,1,1) makes the weights sum to zero: refusal
    two = write(
        tmp_path,
        "two.json",
        {"n": 2, "entries": [[1, 1, 1, "1"], [1, 2, 2, "1"], [2, 1, 1, "1"], [2, 2, 2, "1"]]},
    )
    code, out, _ = run(capsys, "certify", "--tensor", two)
    assert code == 1
    assert "not in the nullcone" in json.loads(out)["outputs"]["reason"]

    # missing diagonal: method inapplicable, not a border-subrank claim
    nodiag = write(tmp_path, "nodiag.json", {"n": 2, "entries": [[1, 1, 1, "1"], [2, 1, 1, "1"]]})
    code, out, _ = run(capsys, "certify", "--tensor", nodiag)
    assert code == 1
    reason = json.loads(out)["outputs"]["reason"]
    assert "inapplicable" in reason and "border subrank" in reason


def test_certify_unit_plus_W(tmp_path, capsys):
    from bordersub import sample_coefficients, tensor_from_support

    W = build_W(3, "W")
    T = unit_tensor(3) + tensor_from_support(W, sample_coefficients(W, seed=12))
    tfile = write(tmp_path, "t.json", T.to_json())
    code, out, _ = run(capsys, "certify", "--tensor", tfile)
    assert code == 0
    assert json.loads(out)["checks"][0]["pass"] is True


def test_unit_orbit_cli(tmp_path, capsys):
    member = write(tmp_path, "u.json", unit_tensor(2).to_json())
    assert run(capsys, "unit-orbit", "--tensor", member, "--seed", "0")[0] == 0
    w_state = write(
        tmp_path, "w.json", {"n": 2, "entries": [[1, 1, 2, "1"], [1, 2, 1, "1"], [2, 1, 1, "1"]]}
    )
    code, out, _ = run(capsys, "unit-orbit", "--tensor", w_state, "--seed", "0")
    assert code == 1
    outputs = json.loads(out)["outputs"]
    assert outputs["verdict"] == "non_member"
    assert "diagonalizable" in outputs["witness"]["explanation"]


def test_unit_orbit_cli_levi_civita_non_member(tmp_path, capsys):
    # every slice combination of the alternating 3 x 3 x 3 tensor is singular
    even, odd = [(1, 2, 3), (2, 3, 1), (3, 1, 2)], [(1, 3, 2), (2, 1, 3), (3, 2, 1)]
    entries = [[*t, "1"] for t in even] + [[*t, "-1"] for t in odd]
    levi_civita = write(tmp_path, "lc.json", {"n": 3, "entries": entries})
    code, out, _ = run(capsys, "unit-orbit", "--tensor", levi_civita, "--seed", "0")
    assert code == 1
    assert json.loads(out)["outputs"] == {
        "verdict": "non_member",
        "witness": {"explanation": "slices span only singular matrices (grid of (n+1)^(n-1) points)", "side": "A"},
    }


def test_certify_validates_supplied_certificate(tmp_path, capsys):
    from bordersub import binary_cocharacter, sample_coefficients, tensor_from_support

    W = build_W(3, "W")
    T = unit_tensor(3) + tensor_from_support(W, sample_coefficients(W, seed=3))
    tfile = write(tmp_path, "t.json", T.to_json())
    good = write(tmp_path, "good.json", binary_cocharacter(3).to_json())
    code, out, _ = run(capsys, "certify", "--tensor", tfile, "--certificate", good)
    assert code == 0 and json.loads(out)["outputs"]["certified"] is True

    zero = write(tmp_path, "zero.json", {"n": 3, "lambda": [0, 0, 0], "mu": [0, 0, 0], "nu": [0, 0, 0]})
    code, out, _ = run(capsys, "certify", "--tensor", tfile, "--certificate", zero)
    assert code == 1
    outputs = json.loads(out)["outputs"]
    assert outputs["certified"] is False and outputs["weight"] <= 0


def test_gen_support_families(tmp_path, capsys):
    for family, size in (("tight-U", 2), ("plane", 5), ("diagonal", 3), ("Wpp", 13)):
        path = str(tmp_path / f"{family}.json")
        code, _, _ = run(capsys, "gen", "support", "--n", "3", "--family", family, "-o", path)
        assert code == 0
        assert len(Support.from_json(json.loads(open(path).read()))) == size


def test_components_best_effort_flag(capsys):
    code, out, _ = run(capsys, "nullcone", "components", "--n", "2", "--best-effort")
    assert code == 0 and json.loads(out)["outputs"]["complete"] is True


def test_tight_cli(tmp_path, capsys):
    from itertools import product

    plane = write(
        tmp_path,
        "plane.json",
        Support.of(3, [t for t in product((1, 2, 3), repeat=3) if 2 * t[0] == t[1] + t[2]]).to_json(),
    )
    code, out, _ = run(capsys, "tight", "check", "--support", plane)
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["tight"] is True and "witness" in rep["outputs"]

    not_tight = write(tmp_path, "nt.json", Support.of(2, [(1, 1, 1), (1, 1, 2)]).to_json())
    code, out, _ = run(capsys, "tight", "check", "--support", not_tight)
    assert code == 1 and json.loads(out)["outputs"]["tight"] is False


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "certify", "--tensor", str(tmp_path / "missing.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run(capsys, "certify", "--tensor", str(bad))[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["nullcone", "check"])  # missing required --support
    assert exc.value.code == 2


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    # exit 1 is a negative verdict; a failed write must not read as one
    sfile = write(tmp_path, "s.json", build_W(2, "W").to_json())
    target = str(tmp_path / "missing" / "x.json")
    code, out, err = run(capsys, "nullcone", "check", "--support", sfile, "-o", target)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_certify_rejects_non_integral_certificate(tmp_path, capsys):
    # int() would read mu_1 = 1.7 as 1 and judge that certificate instead
    tfile = write(tmp_path, "t.json", (unit_tensor(3) + Tensor3(3, {(2, 1, 1): 1})).to_json())
    cert = write(tmp_path, "c.json", {"n": 3, "lambda": [1, 0, -1], "mu": [1.7, -1, 0], "nu": [-2, 1, 1]})
    code, out, err = run(capsys, "certify", "--tensor", tfile, "--certificate", cert)
    assert (code, out) == (2, "")
    assert "1.7 is not a JSON integer" in err


def test_nullcone_check_rejects_non_integral_support(tmp_path, capsys):
    # int() would read (1.9, 2, 1) as (1, 2, 1), a feasible support
    sfile = write(tmp_path, "s.json", {"n": 3, "triples": [[1.9, 2, 1]]})
    code, out, err = run(capsys, "nullcone", "check", "--support", sfile)
    assert (code, out) == (2, "")
    assert "1.9 is not a JSON integer" in err


def test_tensor_json_rejects_a_coordinate_listed_twice(tmp_path, capsys):
    # keeping the last value would judge T[1,2,2] = -1, which the file
    # never settles
    entries = [[1, 1, 1, "1"], [2, 2, 2, "1"], [1, 2, 2, "1"], [1, 2, 2, "-1"]]
    tfile = write(tmp_path, "t.json", {"n": 2, "entries": entries})
    code, out, err = run(capsys, "stab", "dim", "--tensor", tfile)
    assert (code, out) == (2, "")
    assert "coordinate (1, 2, 2) listed twice" in err


@pytest.mark.parametrize(
    "argv, flag, payload",
    [
        (("nullcone", "check"), "--support", {"n": 3.0, "triples": [[1, 2, 1]]}),
        (("tight", "check"), "--support", {"n": 2, "triples": [[1, "2", 1]]}),
        (("tight", "check"), "--support", {"n": 2, "triples": [[1, True, 1]]}),
        (("unit-orbit", "--seed", "0"), "--tensor", {"n": 2, "entries": [[1, 1, 1, "1"], [2.0, 2, 2, "1"]]}),
        (("certify",), "--tensor", {"n": "2", "entries": [[1, 1, 1, "1"], [2, 2, 2, "1"]]}),
        (("stab", "dim"), "--tensor", {"n": 2, "entries": [[1, 1, 1, True], [2, 2, 2, "1"]]}),
        (("invariants", "check"), "--monomial", {"n": 2, "factors": [[1, 1, 1.5]]}),
    ],
)
def test_json_loaders_reject_non_integers(tmp_path, capsys, argv, flag, payload):
    path = write(tmp_path, "in.json", payload)
    code, out, err = run(capsys, *argv, flag, path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("content", [b"\xb5\xff{\x80\xfe", b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "deep"])
@pytest.mark.parametrize(
    "argv, flag",
    [(("nullcone", "check"), "--support"), (("stab", "dim"), "--tensor"), (("invariants", "check"), "--monomial")],
)
def test_malformed_input_file_is_a_usage_error(tmp_path, capsys, argv, flag, content):
    # exit 1 is a negative verdict; a file that is not JSON must not read as one
    path = tmp_path / "in.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *argv, flag, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


def test_invariants_check_rejects_factor_out_of_range(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"n": 2, "factors": [[1, 1, 1], [1, 1, 3]]})
    code, out, err = run(capsys, "invariants", "check", "--monomial", path)
    assert (code, out) == (2, "")
    assert "triple (1, 1, 3) outside [1, 2]^3" in err


def test_reproduce_n1(capsys):
    code, out, err = run(capsys, "reproduce", "--n-max", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["all_ok"] is True
    assert "PASS" in err


def test_reproduce_n3_pinned(capsys):
    code, out, err = run(capsys, "reproduce", "--n-max", "3")
    assert code == 0 and err.count("PASS") == 56
    assert hashlib.sha256(repr((code, out, err)).encode()).hexdigest() == REPRODUCE_N3_DIGEST


def test_failed_recheck_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # the zero point meets no row weight >= 1, so the certificate re-check fails
    monkeypatch.setattr(nullcone, "phase_one", lambda num_vars, cons: (([0] * num_vars, 1), None))
    wfile = write(tmp_path, "w.json", build_W(3, "W").to_json())
    code, out, err = run(capsys, "nullcone", "check", "--support", wfile)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ")


def test_report_determinism(tmp_path, capsys):
    wfile = write(tmp_path, "w.json", build_W(2, "W").to_json())
    code1, out1, _ = run(capsys, "nullcone", "check", "--support", wfile)
    code2, out2, _ = run(capsys, "nullcone", "check", "--support", wfile)
    assert (code1, out1) == (code2, out2)


def test_table_format(tmp_path, capsys):
    code, out, _ = run(capsys, "bound", "--n", "3", "--format", "table")
    assert code == 0
    assert "value: 24" in out
