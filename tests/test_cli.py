"""End-to-end CLI behaviour: reports, determinism, exit codes."""

import json

import pytest

from agealg.cli import main
from agealg.templates import clique_plus_coclique, wheel_plus_coclique


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_profile_builtin_sym3(capsys):
    code, out, _ = run(capsys, "profile", "--builtin", "sym:3", "--degree", "6")
    assert code == 0
    data = json.loads(out)
    assert data["profile"] == [1, 1, 2, 3, 4, 5, 7]
    assert data["non_decreasing"] is True


def test_profile_builtin_coclique(capsys):
    code, out, _ = run(capsys, "profile", "--builtin", "coclique", "--degree", "4")
    assert code == 0
    assert json.loads(out)["profile"] == [1, 1, 1, 1, 1]


def test_malformed_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, _, err = run(capsys, "profile", "--input", str(bad))
    assert code == 2
    assert err


def test_missing_input_file_is_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for command in ("decompose", "profile"):
        code, out, err = run(capsys, command, "--input", missing)
        assert code == 2 and not out
        assert err.startswith(f"error: cannot read {missing}")


def test_non_utf8_input_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    for command in ("decompose", "profile"):
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2 and not out
        assert err.startswith(f"error: cannot read {path}: ")


def _template_with(template=wheel_plus_coclique, **change):
    data = json.loads(template().to_json())
    if "capacity" in change:
        data["blocks"][0]["capacity"] = change["capacity"]
    if "ranks" in change:
        data["accepted"]["adj"][0]["ranks"] = change["ranks"]
    return json.dumps(data)


STRUCTURE = {"signature": [{"name": "adj", "arity": 2}], "size": 2,
             "relations": {"adj": [[0, 1]]}}


@pytest.mark.parametrize("command, text", [
    ("decompose", "5"),
    ("decompose", "null"),
    ("decompose", json.dumps(dict(STRUCTURE, relations={"adj": [["a", "b"]]}))),
    ("profile", _template_with(capacity="many")),
    ("profile", _template_with(ranks=["x", 1])),
    ("profile", _template_with(ranks=[0, 5])),
    ("profile", _template_with(clique_plus_coclique, ranks=[0, 1.9])),
    ("profile", _template_with(capacity=2.5)),
    ("decompose", json.dumps(dict(STRUCTURE, signature=[{"name": "adj", "arity": 2.0}]))),
    ("decompose", json.dumps(dict(STRUCTURE, size=2.9))),
    ("decompose", json.dumps(dict(STRUCTURE, relations={"adj": [[0, 1.7]]}))),
    ("decompose", json.dumps(dict(STRUCTURE, size=True, relations={"adj": [[0, 0]]}))),
    ("decompose", json.dumps(dict(STRUCTURE, relations=[1]))),
    ("decompose", json.dumps(dict(STRUCTURE, relations=None))),
    ("decompose", json.dumps(dict(STRUCTURE, relations="ab"))),
    ("profile", json.dumps(dict(json.loads(_template_with()), accepted=[1]))),
    ("profile", json.dumps(dict(json.loads(_template_with()), accepted=None))),
], ids=["int", "null", "string-elements", "string-capacity", "string-rank",
        "rank-gap", "fractional-rank", "fractional-capacity", "float-arity",
        "fractional-size", "fractional-element", "boolean-size",
        "list-relations", "null-relations", "string-relations",
        "list-accepted", "null-accepted"])
def test_bad_values_in_input_json_are_exit_2(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2 and not out
    assert err.startswith("error: ")


def test_negative_gen_bound_is_exit_2(capsys):
    code, out, err = run(capsys, "hilbert", "--builtin", "sym:2",
                         "--gen-bound", "-3")
    assert code == 2 and not out
    assert err.startswith("error: ")


@pytest.mark.parametrize("flag,value,message", [
    ("--degree", "-1", "--degree must be >= 0"),
    ("--dim", "-1", "--dim must be >= 0"),
    ("--gen-bound", "-1", "--gen-bound must be >= 0"),
    ("--guard", "0", "--guard must be >= 1"),
    ("--d-max", "0", "--d-max must be >= 1"),
])
def test_a_bad_bound_names_its_flag(capsys, flag, value, message):
    code, out, err = run(capsys, "hilbert", "--builtin", "sym:2", flag, value)
    assert code == 2 and not out
    assert err == f"error: {message}\n"


def test_degree_zero_is_a_bound(capsys):
    code, out, _ = run(capsys, "profile", "--builtin", "sym:2", "--degree", "0")
    assert code == 0 and json.loads(out)["profile"] == [1]


# seed-0 template01 of the benchmark's census plan: its chain ((0,), (0, 1),
# (0, 1, 2)) needs generators beyond degree 10 before its finite layer cancels
CENSUS_TEMPLATE01 = {
    "signature": [{"name": "r", "arity": 2}],
    "blocks": [{"name": "b0", "capacity": "inf"},
               {"name": "b1", "capacity": "inf"},
               {"name": "b2", "capacity": 3}],
    "accepted": {"r": [{"blocks": [0, 0], "ranks": [0, 1]},
                       {"blocks": [2, 0], "ranks": [0, 0]},
                       {"blocks": [2, 2], "ranks": [0, 0]},
                       {"blocks": [2, 2], "ranks": [0, 1]},
                       {"blocks": [2, 2], "ranks": [1, 0]}]},
}


def test_a_finite_layer_left_by_too_small_a_degree_is_exit_3(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(CENSUS_TEMPLATE01))
    code, out, err = run(capsys, "hilbert", "--input", str(path), "--degree", "10")
    assert code == 3 and not out
    assert "did not cancel" in err and "cut at degree 10" in err
    code, out, err = run(capsys, "hilbert", "--input", str(path), "--degree", "12")
    assert code == 0, err
    assert json.loads(out)["pretty"] == "(1 + Z + 2*Z^2 + 3*Z^3 + Z^4)/(1-Z)(1-Z^2)"


@pytest.mark.parametrize("seed", [0, 3])
def test_no_census_plan_template_is_exit_4_at_degree_10(tmp_path, capsys,
                                                         census_plan, seed):
    # a degree too small for a template is exit 3 or 5, never a bug report
    for name, text, _ in census_plan(seed):
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run(capsys, "hilbert", "--input", str(path),
                           "--degree", "10")
        assert code in (0, 3, 5), (name, err)


def test_two_path_difference_beyond_the_window_is_exit_3(capsys):
    # the leading route scanned to degree 5 gives (1+Z^3)/(1-Z)(1-Z^2); it
    # matches the profile through degree 5 and first differs at degree 6
    for command in ("hilbert", "qpoly"):
        code, out, err = run(capsys, command, "--builtin", "sym:3",
                             "--degree", "5")
        assert code == 3 and not out
        assert "undetermined" in err and "--degree" in err


def test_two_path_difference_within_the_window_is_exit_4(capsys, monkeypatch):
    import agealg.hilbert as hilbert
    from agealg.hilbert import HilbertForm

    # 1/(1-Z) and 1/(1-Z)(1-Z^2) differ at degree 2
    monkeypatch.setattr(hilbert, "fit_rational",
                        lambda *a, **k: HilbertForm.make([1], [1]))
    monkeypatch.setattr(hilbert, "hilbert_via_leading",
                        lambda *a, **k: HilbertForm.make([1], [1, 2]))
    code, out, err = run(capsys, "hilbert", "--builtin", "sym:2",
                         "--degree", "4")
    assert code == 4 and not out
    assert "two-path disagreement" in err


def test_unknown_builtin_is_exit_2(capsys):
    code, _, err = run(capsys, "profile", "--builtin", "nope")
    assert code == 2 and "unknown builtin" in err


SOURCE_FILES = {
    "template": wheel_plus_coclique().to_json(),
    "structure": json.dumps(STRUCTURE),
}


@pytest.mark.parametrize("command, kind", [
    (command, "template") for command in (
        "profile", "decompose", "hilbert", "qpoly", "constants", "kernel")
] + [("decompose", "structure")])
def test_builtin_and_input_together_are_exit_2(tmp_path, capsys, command, kind):
    path = tmp_path / "source.json"
    path.write_text(SOURCE_FILES[kind])
    code, out, err = run(capsys, command, "--builtin", "sym:2",
                         "--input", str(path), "--degree", "3")
    assert code == 2 and not out
    assert err == "error: give --builtin or --input, not both\n"


def test_decompose_wheel(capsys):
    code, out, _ = run(capsys, "decompose", "--builtin", "wheel_plus_coclique")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert data["dimension"] == 2
    assert sorted(map(sorted, data["components"])) == [
        ["center"], ["co"], ["leaves"]]


def test_decompose_finite_structure_file(tmp_path, capsys):
    two_edges = {
        "signature": [{"name": "adj", "arity": 2}],
        "size": 4,
        "relations": {"adj": [[0, 1], [1, 0], [2, 3], [3, 2]]},
    }
    path = tmp_path / "k2k2.json"
    path.write_text(json.dumps(two_edges))
    code, out, _ = run(capsys, "decompose", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["blocks"] == [[0, 1], [2, 3]]
    assert data["count"] == 2


def test_hilbert_cpc(capsys):
    code, out, _ = run(capsys, "hilbert", "--builtin", "clique_plus_coclique",
                       "--degree", "12")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["form"] == {"numerator": [1, 0, 0, 1], "denominator": [1, 2]}
    assert data["nonnegative_form"] is not None


def test_hilbert_wrong_dim_is_exit_5(capsys):
    code, _, err = run(capsys, "hilbert", "--builtin", "clique_plus_coclique",
                       "--degree", "12", "--dim", "0")
    assert code == 5 and "not rational" in err


def test_qpoly_sym2(capsys):
    code, out, _ = run(capsys, "qpoly", "--builtin", "sym:2", "--degree", "12")
    assert code == 0
    data = json.loads(out)
    assert data["period"] == 2
    assert data["degree"] == 1
    assert data["leading_coefficient"] == [1, 2]


def test_qpoly_periodic_leading_coefficient_is_null(capsys, monkeypatch):
    # a fitted form whose top coefficient depends on the residue
    import agealg.cli
    from agealg.hilbert import HilbertForm

    monkeypatch.setattr(agealg.cli, "_two_path",
                        lambda args, t: (HilbertForm.make([1], [2]), None))
    code, out, _ = run(capsys, "qpoly", "--builtin", "coclique", "--degree", "6")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 0
    assert data["leading_coefficient"] is None


def test_planar_counts(capsys):
    code, out, _ = run(capsys, "planar", "--degree", "4")
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == [1, 1, 1, 3, 11]
    assert data["profile"] == 11


def test_constants_report(capsys):
    code, out, _ = run(capsys, "constants", "--builtin", "sym:2",
                       "--degree", "2", "--left", "1")
    assert code == 0
    data = json.loads(out)
    assert data["constants"]
    for row in data["constants"]:
        assert row["tau"] in data["types"]
    # singleton * singleton hits both pair types with coefficient 2
    assert sorted(row["c"] for row in data["constants"]) == [2, 2]


def test_constants_at_degree_zero_defaults_left_to_zero(capsys):
    # --left defaults to min(1, --degree): the empty type is its own square
    code, out, err = run(capsys, "constants", "--builtin", "coclique",
                         "--degree", "0")
    assert code == 0, err
    data = json.loads(out)
    assert data["left_degree"] == 0
    assert [row["c"] for row in data["constants"]] == [1]
    assert list(data["types"].values()) == [[0]]
    code, _, err = run(capsys, "constants", "--builtin", "coclique",
                       "--degree", "0", "--left", "1")
    assert code == 2 and "--left" in err


# sha256 of stdout, pinned when canonical codes keyed the type registry;
# the `constants` rows and sidecar carry sha256 prefixes of the rs1 codes
GOLDEN_STDOUT = {
    ("constants", "--builtin", "groupoid", "--degree", "4", "--left", "2"):
        "19d60f4f5bc9ade133b73028e4b64cec160127303a10ce3af7aceb94696d1e5c",
    ("constants", "--builtin", "sym:3", "--degree", "6", "--left", "2"):
        "42ada7aadb9b5f893c3a9e9d6cf2fac8a6c2fb112cd0236ad8e7ee74c586b09f",
    ("hilbert", "--builtin", "c3_chains", "--degree", "11"):
        "0908cbff162cf32a3dae970c56b0661a969065e3a9494f604fdeb6a42fc2c812",
    ("hilbert", "--builtin", "groupoid", "--degree", "11"):
        "748fb5f3055a0c24368c851873063b10e986afc95e4f8afb8d155eae38f31f95",
    # a non-negative form is found
    ("hilbert", "--builtin", "qsym:2", "--degree", "9"):
        "eec9f0a2b1f6c8724844aa053a32c263a386ecaa4cdb2011e352b0860e6d2a37",
    # a finite layer cancels from a chain series
    ("hilbert", "--builtin", "wheel_plus_coclique", "--degree", "10"):
        "f3c946d923c58849d8c5d0e507c61318b941d792685c6facc1cd7118d81b204d",
    ("hilbert", "--builtin", "rqsym:2:1", "--degree", "12"):
        "6c17e3956b4dc0a55bfd690016e6ce31469dd1e115a056ba3eedb9f62f8a8ced",
    # generator bounds below the degree
    ("hilbert", "--builtin", "sym:3", "--degree", "12", "--gen-bound", "7"):
        "dc3c4d24b7856805d52e89c06a717b2028ecdb6f527130884d5c08996d595124",
    ("hilbert", "--builtin", "groupoid", "--degree", "14", "--gen-bound", "9"):
        "7df7b1aaec91bcb9ceff23a79aee8c68348408f8efa01d94fcbc3e344c4a7e09",
    ("qpoly", "--builtin", "rqsym:3:2", "--degree", "16"):
        "b95519ec3e54c7581e91f3c167e6e01961525495ec2d5f86c068be04b237bb6c",
    ("decompose", "--builtin", "c3_chains"):
        "2750e1050a785ab4157b00bf06eaf600fea39c89a49c717de23f333994148e5f",
    ("decompose", "--builtin", "rqsym:3:2"):
        "c7a7edfe56a3f7d9884e3f29d17d4ad9c463482b13d04568e79ff21153ad6f8e",
    ("kernel", "--builtin", "wheel_plus_coclique", "--degree", "3"):
        "6f9824e23bfa0ce669b3d4235100830f4161e068dcea6f651fc39db659693fbf",
    ("qpoly", "--builtin", "groupoid", "--degree", "11"):
        "cce661dc4c64e48f5a66f0a3620f7527b36e376daefcba89579ad2dfaf058ff2",
    ("qpoly", "--builtin", "qsym:3", "--degree", "10"):
        "38720b785cb17de62a55b86261d5d0f0c8bdad15da3ea1b199d1db8496932e23",
    # the planar profile of the default samples
    ("planar", "--degree", "4"):
        "4542a9086d72d31b6a7a7f204b917476cfb8f58a908eea60a3c4d435e6ef0b26",
    ("planar", "--degree", "5"):
        "05a37e4df4d68c3973d7c7fd83bda1b5169bdc4f12bd6d66d94bb52ecded80ff",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT), ids=" ".join)
def test_stdout_bytes_are_pinned(capsys, argv):
    import hashlib

    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def test_cached_leads_are_the_maximal_reps_on_the_pinned_sources():
    # each degree's leads are read as soon as it is built, as the leading
    # route reads them, and checked once the registry is past the pinned
    # degree
    from agealg.algebra import TypeRegistry
    from agealg.gallery import resolve_builtin
    from agealg.hilbert import monomial_key

    top = {}
    for argv in GOLDEN_STDOUT:
        if "--builtin" in argv:
            spec = argv[argv.index("--builtin") + 1]
            degree = int(argv[argv.index("--degree") + 1]) if "--degree" in argv else 6
            top[spec] = max(top.get(spec, 0), degree)
    for spec, degree in sorted(top.items()):
        registry = TypeRegistry(resolve_builtin(spec))
        for n in range(degree + 1):
            registry.leading_monomials(n)
        registry.ensure_degree(degree + 1)
        for n in range(degree + 2):
            for entry in registry.types_at(n):
                assert entry.lead == max(entry.reps, key=monomial_key), spec


def test_kernel_wheel(capsys):
    code, out, _ = run(capsys, "kernel", "--builtin", "wheel_plus_coclique",
                       "--degree", "3")
    assert code == 0
    assert json.loads(out)["blocks"] == ["center"]


def test_template_json_input(tmp_path, capsys):
    text = wheel_plus_coclique().to_json()
    path = tmp_path / "wheel.json"
    path.write_text(text)
    code, out, _ = run(capsys, "profile", "--input", str(path), "--degree", "5")
    assert code == 0
    assert json.loads(out)["profile"] == [1, 1, 2, 3, 4, 5]


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "profile", "--builtin", "groupoid", "--degree", "5")
    _, out2, _ = run(capsys, "profile", "--builtin", "groupoid", "--degree", "5")
    assert out1 == out2


def test_output_is_deterministic_across_processes():
    import os
    import subprocess
    import sys

    import agealg

    # The children must import the same agealg as this process, whether it
    # runs from source (PYTHONPATH=src) or installed, from any directory.
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(agealg.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "agealg.cli", "hilbert",
           "--builtin", "wheel_plus_coclique", "--degree", "10"]
    outputs = []
    for seed in ("1", "99"):
        env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=seed)
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
        stderr = proc.stderr.decode(errors="replace")
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed}: {stderr}"
        assert proc.stdout.strip(), f"PYTHONHASHSEED={seed}: empty stdout; {stderr}"
        json.loads(proc.stdout)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_text_format(capsys):
    code, out, _ = run(capsys, "profile", "--builtin", "coclique",
                       "--degree", "3", "--format", "text")
    assert code == 0
    assert "profile" in out and "{" not in out.splitlines()[0]


def test_decompose_undetermined_fatness_is_exit_3(capsys):
    code, _, err = run(capsys, "decompose", "--builtin", "wheel_plus_coclique",
                       "--d-max", "1")
    assert code == 3 and "undetermined" in err


@pytest.mark.parametrize("command", ["hilbert", "qpoly"])
def test_hilbert_and_qpoly_honour_d_max(capsys, command):
    code, out, err = run(capsys, command, "--builtin", "sym:4", "--degree", "10",
                         "--d-max", "1")
    assert code == 3 and not out
    assert "did not stabilize up to level 1" in err


def test_verify_failure_is_exit_4(capsys, monkeypatch):
    import agealg.verify as verify
    monkeypatch.setattr(verify, "run_all",
                        lambda bounds: [("stub", False, "boom")])
    code, out, _ = run(capsys, "verify")
    assert code == 4
    assert json.loads(out)["ok"] is False


def test_verify_qpoly_row_fails_on_a_periodic_leading_coefficient():
    # a form without a leading coefficient is a failed row, not a crash
    from types import SimpleNamespace

    import agealg.verify as verify
    from agealg.hilbert import HilbertForm

    case = verify.Case("coclique", verify.BUDGET)
    case.forms = (HilbertForm.make([1], [2]), None)
    case.components = SimpleNamespace(dimension=1)
    checks = [c for c in verify.TEMPLATE_CHECKS
              if c[1] == "quasi-polynomial degree"]
    assert verify.rows(checks, case) == [
        ("coclique: quasi-polynomial degree", False, "degree=0 lead=None")]


def test_verify_with_too_small_a_degree_is_exit_3(capsys):
    # sym:3's two routes agree through degree 5 and differ beyond it
    code, out, err = run(capsys, "verify", "--degree", "5")
    assert code == 3 and not out
    assert "undetermined" in err


def test_verify_default_budget(capsys):
    code, out, _ = run(capsys, "verify")
    data = json.loads(out)
    assert code == 0
    assert data["ok"] is True
    assert all(check["ok"] for check in data["checks"])
