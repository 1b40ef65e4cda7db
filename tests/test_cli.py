import json
from pathlib import Path

import pytest

from confcoh.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_vir(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "vir")
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert report["skew_symmetry"] and report["jacobi"]


def test_check_current_with_module(capsys):
    code, out, _ = run(
        capsys, "check", "--algebra", "cur:sl2", "--module", "mu:adjoint"
    )
    assert code == 0
    assert json.loads(out.splitlines()[0])["module"]


def test_check_corrupted_spec_file(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "algebra": {
            "generators": ["L"],
            "brackets": {"L,L": {"L": "d + 3*lam1"}},
        }
    }))
    code, out, _ = run(capsys, "check", "--spec-file", str(spec))
    assert code == 2
    assert "residual" in out


def test_check_inline_spec_with_module(tmp_path, capsys):
    spec = tmp_path / "vir.json"
    spec.write_text(json.dumps({
        "algebra": {
            "generators": ["L"],
            "brackets": {"L,L": {"L": "d + 2*lam1"}},
        },
        "module": {
            "kind": "free",
            "basis": ["v"],
            "actions": {"L": [["d + 1 + 2*lam1"]]},
        },
    }))
    code, out, _ = run(capsys, "check", "--spec-file", str(spec))
    assert code == 0
    assert json.loads(out.splitlines()[0])["module"]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "check", "--algebra", "nonsense")
    assert code == 3
    assert "unknown algebra" in err


def test_betti_vir_trivial(capsys):
    code, out, _ = run(
        capsys, "betti", "--algebra", "vir", "--module", "trivial",
        "--variant", "reduced", "--qmax", "4", "--bound", "8",
    )
    assert code == 0
    dims = [int(line.split()[1]) for line in out.splitlines()[2:]]
    assert dims == [1, 0, 1, 1, 0]


def test_betti_formats_and_determinism(capsys):
    args = (
        "betti", "--algebra", "vir", "--module", "mda:1,0", "--qmax", "2",
        "--bound", "8", "--format", "json",
    )
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    obj = json.loads(out1)
    assert [row["dim"] for row in obj["rows"]] == [1, 2, 1]
    code, out_csv, _ = run(
        capsys, "betti", "--algebra", "vir", "--module", "trivial",
        "--qmax", "2", "--bound", "6", "--format", "csv",
    )
    assert out_csv.splitlines()[0].startswith("label,variant,q,dim")


def test_betti_basic_current(capsys):
    code, out, _ = run(
        capsys, "betti", "--algebra", "cur:sl2", "--module", "trivial",
        "--variant", "basic", "--qmax", "3", "--bound", "6",
    )
    assert code == 0
    dims = [int(line.split()[1]) for line in out.splitlines()[2:]]
    assert dims == [1, 0, 0, 1]


def test_cartan_command(capsys):
    code, out, _ = run(
        capsys, "cartan", "--algebra", "cur:sl2", "--trials", "1",
        "--seed", "5", "--qmax", "2", "--degmax", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["seed"] == 5


def test_annih_compare_command(capsys):
    code, out, _ = run(
        capsys, "annih-compare", "--algebra", "vir", "--module", "mda:1,0",
        "--qmax", "1", "--levels", "3", "--trials", "2", "--seed", "9",
    )
    assert code == 0
    assert json.loads(out)["ok"]


def test_extend_remark81(capsys):
    code, out, _ = run(
        capsys, "extend", "--algebra", "cur:sl2", "--module", "mu:V4",
        "--cocycle", "remark81",
    )
    assert code == 0
    assert json.loads(out)["extension"] == "valid"


def test_extend_cocycle_file(tmp_path, capsys):
    payload = {
        "variant": "reduced",
        "q": 2,
        "entries": [
            {"args": ["L", "L"], "value": {"v0": "lam1^3 - lam2^3"}}
        ],
    }
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(
        capsys, "extend", "--algebra", "vir", "--module", "trivial",
        "--cocycle", str(path),
    )
    assert code == 0
    assert json.loads(out)["extension"] == "valid"


def test_extend_rejects_non_cocycle_file(tmp_path, capsys):
    payload = {
        "variant": "reduced",
        "q": 2,
        "entries": [
            {"args": ["L", "L"], "value": {"v0": "lam1^5 - lam2^5"}}
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(
        capsys, "extend", "--algebra", "vir", "--module", "trivial",
        "--cocycle", str(path),
    )
    assert code == 2


def test_deform_roundtrip_command(capsys):
    code, out, _ = run(
        capsys, "deform", "--algebra", "vir", "--trials", "5", "--seed", "1",
    )
    assert code == 0
    assert json.loads(out)["deformation-roundtrip"]


@pytest.mark.parametrize("argv, flag", [
    (("betti", "--algebra", "vir", "--module", "trivial", "--qmax", "1",
      "--bound", "-3"), "--bound"),
    (("betti", "--algebra", "vir", "--module", "trivial", "--qmax", "-1"),
     "--qmax"),
    (("cartan", "--algebra", "cur:sl2", "--trials", "-2"), "--trials"),
    (("cartan", "--algebra", "cur:sl2", "--degmax", "-1"), "--degmax"),
    (("annih-compare", "--algebra", "vir", "--qmax", "-1"), "--qmax"),
    (("annih-compare", "--algebra", "vir", "--levels", "-1"), "--levels"),
])
def test_negative_counts_are_parse_failures(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("argv, needle", [
    (("betti", "--algebra", "vir", "--module", "ca:abc"), "'abc'"),
    (("betti", "--algebra", "vir", "--module", "ca:1/0"), "'1/0'"),
    (("betti", "--algebra", "vir", "--module", "mda:1"), "mda:1"),
    (("betti", "--algebra", "vir", "--module", "mda:1,x"), "'x'"),
    (("check", "--algebra", "cur:abelian:x"), "'x'"),
    (("betti", "--algebra", "cur:abelian:0", "--module", "trivial"), "'0'"),
    # an abelian current algebra has no builtin M_U module; sl3's adjoint
    # module must not be built over it
    (("betti", "--algebra", "cur:abelian:2", "--module", "mu:adjoint"),
     "cur:sl2 and cur:sl3"),
    (("check", "--algebra", "cur:sl2", "--module", "mu:Vx"), "mu:Vx"),
    # remark81 cocycles are built on the representation of an mu: module
    (("extend", "--algebra", "cur:sl2", "--module", "ca:1", "--cocycle",
      "remark81"), "mu: module"),
], ids=["ca-word", "ca-zero-denominator", "mda-one-number", "mda-word",
        "abelian-word", "abelian-zero", "abelian-mu-adjoint", "V-word",
        "remark81-scalar-module"])
def test_malformed_specs_are_parse_failures(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and needle in err


# each command builds its Lie presentation once, and its representations:
# U for the module (ad, wedge^2 ad and the quotient for wedge2modg), then
# for remark81 ad and Sym^2 ad or wedge^2 ad unless building U made them
@pytest.mark.parametrize("argv, nreps", [
    (("check", "--algebra", "cur:sl3", "--module", "mu:adjoint"), 1),
    (("extend", "--algebra", "cur:sl2", "--module", "mu:V4", "--cocycle",
      "remark81"), 3),
    (("extend", "--algebra", "cur:sl3", "--module", "mu:adjoint", "--cocycle",
      "remark81"), 2),
    (("extend", "--algebra", "cur:sl3", "--module", "mu:wedge2modg", "--cocycle",
      "remark81"), 3),
])
def test_builtin_structures_are_built_once(capsys, monkeypatch, argv, nreps):
    import confcoh.cli as cli
    from confcoh.liealg import Rep

    built = []
    for name in ("sl2", "sl3"):
        make = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda make=make, name=name:
                            built.append(name) or make())
    monkeypatch.setattr(cli, "_CURRENT_LIE", {"cur:sl2": cli.sl2,
                                              "cur:sl3": cli.sl3})
    init = Rep.__init__
    monkeypatch.setattr(Rep, "__init__", lambda self, *a, **kw: built.append(
        "rep") or init(self, *a, **kw))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(built) == 1 + nreps and built.count("rep") == nreps


def test_abelian_current_spec(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "cur:abelian:2")
    assert code == 0
    assert json.loads(out)["jacobi"]


# betti commands whose stdout is committed byte for byte under tests/golden:
# the README ones, three window sweeps (one with h = 2) and a free rank-3
# module with a -1/2 in its representative, all with representatives
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_BETTI = {
    "vir_trivial_reduced_q4": ("--algebra", "vir", "--module", "trivial",
                               "--variant", "reduced", "--qmax", "4"),
    "vir_mda_1_0_q2": ("--algebra", "vir", "--module", "mda:1,0",
                       "--qmax", "2"),
    "vir_ca_1_2_q2": ("--algebra", "vir", "--module", "ca:1/2", "--qmax", "2"),
    "cur_sl2_ca_m7_3_q2_b6": ("--algebra", "cur:sl2", "--module", "ca:-7/3",
                              "--qmax", "2", "--bound", "6"),
    "cur_abelian_2_ca_2_q1": ("--algebra", "cur:abelian:2", "--module", "ca:2",
                              "--qmax", "1"),
    "cur_sl2_mu_v2_q2_b3": ("--algebra", "cur:sl2", "--module", "mu:V2",
                            "--qmax", "2", "--bound", "3"),
}


@pytest.mark.parametrize("fmt, ext", [("table", "txt"), ("json", "json")])
@pytest.mark.parametrize("name", sorted(GOLDEN_BETTI))
def test_betti_golden_bytes(capsys, name, fmt, ext):
    code, out, err = run(capsys, "betti", *GOLDEN_BETTI[name],
                         "--representatives", "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.{ext}").read_text()


VIR_SPEC = {"generators": ["L"], "brackets": {"L,L": {"L": "d + 2*lam1"}}}


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps({"algebra": {"generators": ["L"],
                            "brackets": {"L,X": {"L": "d + 2*lam1"}}}}),
    json.dumps({"algebra": {"generators": ["L"],
                            "brackets": {"L L": {"L": "d + 2*lam1"}}}}),
    json.dumps({"algebra": {"generators": ["L"],
                            "brackets": {"L,L": {"X": "d + 2*lam1"}}}}),
    json.dumps({"algebra": dict(VIR_SPEC, del_scalars={"X": "1"})}),
    json.dumps({"algebra": VIR_SPEC,
                "module": {"kind": "free", "basis": ["v"],
                           "actions": {"L": [["d + lam1"]],
                                       "X": [["lam1"]]}}}),
    # action matrices must be dim x dim: both were read as valid modules
    json.dumps({"algebra": VIR_SPEC,
                "module": {"kind": "free", "basis": ["v"],
                           "actions": {"L": [["d + lam1", "1"]]}}}),
    json.dumps({"algebra": VIR_SPEC,
                "module": {"kind": "free", "basis": ["v", "w"],
                           "actions": {"L": [["d + lam1"]]}}}),
    # a missing key, or a value of the wrong JSON type
    json.dumps({"algebra": {"brackets": VIR_SPEC["brackets"]}}),
    json.dumps({"algebra": VIR_SPEC,
                "module": {"kind": "free", "basis": ["v"]}}),
    json.dumps({"algebra": {"generators": ["L"],
                            "brackets": {"L,L": {"L": 2}}}}),
    json.dumps({"algebra": {"generators": ["L"],
                            "brackets": {"L,L": ["d + 2*lam1"]}}}),
    # repeated or no generator names: both passed every check with exit 0
    json.dumps({"algebra": {"generators": ["L", "L"]}}),
    json.dumps({"algebra": {"generators": []}}),
    json.dumps({"algebra": VIR_SPEC,
                "module": {"kind": "free", "basis": ["v", "v"],
                           "actions": {"L": [["d + lam1", "0"],
                                             ["0", "d + lam1"]]}}}),
    # an action or a row given as a string: read character by character, it
    # passed the 1x1 shape check and failed the module identity (exit 2)
    json.dumps({"algebra": VIR_SPEC,
                "module": {"kind": "free", "basis": ["v"],
                           "actions": {"L": "x"}}}),
    json.dumps({"algebra": VIR_SPEC,
                "module": {"kind": "free", "basis": ["v"],
                           "actions": {"L": ["x"]}}}),
    # an entry in lam2 or above: the bracket failed skew-symmetry (exit 2);
    # the action passed check and crashed betti with an IndexError
    json.dumps({"algebra": {"generators": ["L"],
                            "brackets": {"L,L": {"L": "lam3"}}}}),
    json.dumps({"algebra": VIR_SPEC,
                "module": {"kind": "free", "basis": ["v"],
                           "actions": {"L": [["d + lam2"]]}}}),
    # names that are not non-empty strings: no key can name them, yet they
    # passed every check with exit 0
    json.dumps({"algebra": {"generators": [1]}}),
    json.dumps({"algebra": {"generators": [["L"]]}}),
    json.dumps({"algebra": {"generators": ["L", ""]}}),
    json.dumps({"algebra": VIR_SPEC,
                "module": {"kind": "free", "basis": [2],
                           "actions": {"L": [["d + lam1"]]}}}),
], ids=["invalid-json", "bracket-key-name", "bracket-key-comma",
        "bracket-output-name", "del-scalars-name", "actions-name",
        "actions-too-wide", "actions-too-small", "no-generators",
        "no-actions", "non-string-poly", "bracket-list", "repeated-generator",
        "empty-generators", "repeated-basis-name", "action-string",
        "action-row-string", "bracket-lam3", "action-lam2", "generator-int",
        "generator-list", "generator-empty-string", "basis-name-int"])
def test_malformed_spec_files_are_parse_failures(tmp_path, capsys, text):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    code, out, err = run(capsys, "check", "--spec-file", str(spec))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("generators, message", [
    (["L", "L"], "repeats the generator 'L'"),
    ([], "lists no generators"),
])
def test_spec_file_generator_errors_name_the_file(tmp_path, capsys,
                                                  generators, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"algebra": {"generators": generators}}))
    code, out, err = run(capsys, "check", "--spec-file", str(spec))
    assert code == 3
    assert f"spec file {spec} {message}" in err


def test_spec_file_entry_errors_name_the_entry(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"algebra": VIR_SPEC, "module": {
        "kind": "free", "basis": ["v"], "actions": {"L": [["d + lam2"]]}}}))
    for command in ("check", "betti"):
        code, out, err = run(capsys, command, "--spec-file", str(spec))
        assert code == 3
        assert f"the action of 'L' in spec file {spec} uses lam2" in err


@pytest.mark.parametrize("command, spec", [
    # the CLI docstring's own example module
    ("betti", {"algebra": VIR_SPEC, "module": {
        "kind": "free", "basis": ["v"], "actions": {"L": [["d + alpha + lam1"]]}}}),
    # a one-parameter family of Virasoro brackets, (1 + c) times Vir's
    ("deform", {"algebra": {"generators": ["L"], "brackets": {
        "L,L": {"L": "(1 + c)*d + 2*lam1 + 2*c*lam1"}}}}),
])
def test_named_parameters_pass_check_and_are_refused_by_the_engine(
        tmp_path, capsys, command, spec):
    # betti and deform crashed with a ValueError traceback (exit 1)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "check", "--spec-file", str(path))
    assert code == 0 and err == ""
    code, out, err = run(capsys, command, "--spec-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "named parameter" in err


def _entries(value, args=("L", "L")):
    return [{"args": list(args), "value": value}]


@pytest.mark.parametrize("command, payload", [
    # lam3 in a 2-cochain: read as a cocycle, it printed "valid"
    ("extend", {"variant": "reduced", "q": 2,
                "entries": _entries({"v0": "lam1*lam3 - lam2*lam3"})}),
    ("extend", {"variant": "reduced", "q": 2,
                "entries": _entries({"w": "lam1^3 - lam2^3"})}),
    ("extend", {"variant": "reduced", "q": 2,
                "entries": _entries({"v0": "lam1^3 - lam2^3"}, ("L", "G"))}),
    ("extend", {"variant": "reduced", "q": 2,
                "entries": _entries({"v0": "lam1^3"}, ("L",))}),
    ("extend", {"variant": "skew", "q": 2,
                "entries": _entries({"v0": "lam1^3 - lam2^3"})}),
    ("extend", {"variant": "basic", "q": 2,
                "entries": _entries({"v0": "lam1^3 - lam2^3"})}),
    ("extend", {"variant": "reduced", "q": 3,
                "entries": _entries({"v0": "lam1 - lam2"}, ("L",) * 3)}),
    ("deform", {"variant": "basic", "q": 2,
                "entries": _entries({"L": "lam1 - lam2"})}),
    ("deform", {"variant": "reduced", "q": 2,
                "entries": _entries({"v0": "lam1 - lam2"})}),
    # a value of the wrong JSON type
    ("extend", {"variant": "reduced", "q": 2,
                "entries": _entries(["lam1^3 - lam2^3"])}),
], ids=["lam-above-degree", "basis-name", "generator-name", "args-length",
        "unknown-variant", "extend-basic", "extend-degree-3", "deform-basic",
        "deform-basis-name", "value-list"])
def test_malformed_cochain_files_are_parse_failures(tmp_path, capsys, command,
                                                    payload):
    path = tmp_path / "cochain.json"
    path.write_text(json.dumps(payload))
    argv = [command, "--algebra", "vir", "--cocycle", str(path)]
    if command == "extend":
        argv += ["--module", "trivial"]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
