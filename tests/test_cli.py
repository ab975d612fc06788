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
    ("hilbert", "--builtin", "groupoid", "--degree", "11"):
        "748fb5f3055a0c24368c851873063b10e986afc95e4f8afb8d155eae38f31f95",
    ("kernel", "--builtin", "wheel_plus_coclique", "--degree", "3"):
        "6f9824e23bfa0ce669b3d4235100830f4161e068dcea6f651fc39db659693fbf",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT), ids=" ".join)
def test_stdout_bytes_are_pinned(capsys, argv):
    import hashlib

    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


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


def test_verify_failure_is_exit_4(capsys, monkeypatch):
    import agealg.verify as verify
    monkeypatch.setattr(verify, "run_all",
                        lambda bounds: [("stub", False, "boom")])
    code, out, _ = run(capsys, "verify")
    assert code == 4
    assert json.loads(out)["ok"] is False


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
