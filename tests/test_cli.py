"""Command line interface: subcommands, exit codes, canonical output."""

import json
import subprocess
import sys

import pytest

import solvhull
import solvhull.cli as cli
from solvhull import EndpointMismatch, SolvHullError


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "solvhull", *args],
        capture_output=True,
        text=True,
        timeout=120,
        **kwargs,
    )


def heis_spec_dict():
    return {
        "name": "heis",
        "basis_names": ["x", "y", "z"],
        "structure": [[0, 1, 2, 1.0, 0.0]],
    }


@pytest.fixture()
def heis_file(tmp_path):
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(heis_spec_dict()))
    return str(path)


def test_every_package_export_resolves():
    missing = [name for name in solvhull.__all__ if not hasattr(solvhull, name)]
    assert missing == []


# ------------------------------------------------------------- analyze


def test_analyze_builtin_text():
    res = run_cli("analyze", "--example", "sol")
    assert res.returncode == 0
    assert "problem: sol" in res.stdout
    assert "nilradical dimension: 2" in res.stdout


def test_analyze_builtin_json():
    res = run_cli("analyze", "--example", "sect4", "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["dim"] == 3
    assert payload["nilradical_dim"] == 2
    assert payload["torus_dim"] == 1
    assert payload["shadow_class"] == 2


def test_analyze_spec_file(heis_file):
    res = run_cli("analyze", "--spec", heis_file)
    assert res.returncode == 0
    assert "nilradical dimension: 3" in res.stdout
    assert "torus dimension: 0" in res.stdout


def test_analyze_stops_at_the_splitting(monkeypatch, capsys):
    import solvhull.envelope as envelope
    import solvhull.verify as verify

    def refuse(*args, **kwargs):
        raise AssertionError("analyze built the enveloping module")

    monkeypatch.setattr(envelope, "build_enveloping_rep", refuse)
    monkeypatch.setattr(verify, "build_enveloping_rep", refuse)
    assert cli.main(["analyze", "--example", "sect4", "--json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["torus_dim"] == 1


# ------------------------------------------------------------- hull


def test_hull_sol_json():
    res = run_cli("hull", "--example", "sol", "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["module_dimension"] == 4
    assert payload["truncation_cap"] == 1
    assert payload["monomials"] == ["g0", "g1", "g2", "1"]
    assert payload["flatness"] < 1e-9


def test_hull_sect4_text():
    res = run_cli("hull", "--example", "sect4")
    assert res.returncode == 0
    assert "module dimension: 4" in res.stdout


# ------------------------------------------------------------- monodromy


def test_monodromy_commutator_json():
    res = run_cli(
        "monodromy", "--example", "sol", "--word", "a b1 a^-1 b1^-1", "--json"
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["path_independence_residual"] < 1e-8
    assert abs(payload["endpoint_translation"][0]) < 1e-12


def test_monodromy_requires_word():
    res = run_cli("monodromy", "--example", "sol")
    assert res.returncode == 2


def test_monodromy_unknown_generator():
    res = run_cli("monodromy", "--example", "sol", "--word", "zz")
    assert res.returncode == 2
    assert "error" in res.stderr
    # The message is printed as raised, without KeyError's added quotes.
    assert res.stderr == "error: unknown generator 'zz'\n"


# ------------------------------------------------------------- integrate


def test_integrate_word():
    res = run_cli(
        "integrate",
        "--example",
        "sol",
        "--word",
        "a b1 a^-1 b1^-1",
        "--depth",
        "25",
        "--json",
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["series_within_bound"] is True
    assert payload["series_agreement"] < 1e-8


def test_integrate_explicit_path(heis_file, tmp_path):
    path_file = tmp_path / "path.json"
    path_file.write_text(
        json.dumps(
            {
                "segments": [
                    {"direction": [1.0, 0.0, 0.0], "duration": 1.0},
                    {"direction": [0.0, 1.0, 0.5], "duration": 0.5},
                ]
            }
        )
    )
    res = run_cli("integrate", "--spec", heis_file, "--path", str(path_file), "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["series_within_bound"] is True


def test_integrate_needs_word_or_path():
    res = run_cli("integrate", "--example", "sol")
    assert res.returncode == 2


def test_integrate_word_needs_lattice(heis_file):
    res = run_cli("integrate", "--spec", heis_file, "--word", "a")
    assert res.returncode == 2


def test_integrate_rejects_malformed_path_file(heis_file, tmp_path):
    path_file = tmp_path / "bad.json"
    path_file.write_text(json.dumps({"segments": [{"direction": [1.0, 0.0, 0.0]}]}))
    res = run_cli("integrate", "--spec", heis_file, "--path", str(path_file))
    assert res.returncode == 2


def _segments(direction, duration=1.0):
    return json.dumps({"segments": [{"direction": direction, "duration": duration}]})


@pytest.mark.parametrize(
    "text",
    [
        None,
        "{not json",
        _segments([1.0, "0.5", 0.0]),
        _segments([1.0, 0.0, 0.0], "1.0"),
        _segments([1.0, 0.0, 0.0], -1.0),
        _segments([1.0, [0.0, 1.0, 2.0], 0.0]),
        _segments([True, 0.0, 0.0]),
        _segments([float("nan"), 0.0, 0.0]),
    ],
    ids=["missing", "invalid-json", "string-entry", "string-duration",
         "negative-duration", "three-element-entry", "boolean-entry", "nan-entry"],
)
def test_integrate_rejects_a_bad_path_file(text, heis_file, tmp_path, capsys):
    path_file = tmp_path / "path.json"
    if text is not None:
        path_file.write_text(text)
    code = cli.main(["integrate", "--spec", heis_file, "--path", str(path_file)])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


# ------------------------------------------------------------- verify


def test_verify_sol_deterministic_stdout():
    first = run_cli("verify", "--example", "sol")
    second = run_cli("verify", "--example", "sol")
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["ok"] is True
    assert "verify runtime" in first.stderr
    assert "verify runtime" not in first.stdout


def test_verify_out_file(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", "--example", "sect4", "--out", str(out))
    assert res.returncode == 0
    assert res.stdout == ""
    report = json.loads(out.read_text())
    assert report["ok"] is True


def test_verify_reports_a_failed_check_as_not_ok(monkeypatch, capsys):
    """A residual above its limit, as a numpy float, fails the report."""
    import numpy as np

    import solvhull.verify as verify

    monkeypatch.setattr(
        verify, "closedness_residual", lambda *args, **kwargs: (0.0, np.float64(1.0))
    )
    code = cli.main(["verify", "--example", "sol"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["ok"] is False
    assert report["sections"]["monodromy"]["ok"] is False


@pytest.mark.parametrize("claimed", ["everything", "nothing"])
def test_membership_sampling_fails_on_a_wrong_nilradical(claimed, heis_file, monkeypatch, capsys):
    """sol's whole algebra is not ad-nilpotent; Heisenberg samples outside an empty basis are."""
    import numpy as np

    import solvhull.verify as verify
    from solvhull.algebra import NilradicalResult

    build = verify.build_stages

    def wrong(problem):
        stages = build(problem)
        n = problem.algebra.dim
        basis = np.eye(n) if claimed == "everything" else np.zeros((n, 0))
        return {**stages, "nilradical": NilradicalResult(basis=basis, trace_residual=0.0)}

    monkeypatch.setattr(verify, "build_stages", wrong)
    source = ["--example", "sol"] if claimed == "everything" else ["--spec", heis_file]
    assert cli.main(["verify", *source]) == 1
    section = json.loads(capsys.readouterr().out)["sections"]["nilradical"]
    assert section["membership_sampling_ok"] is False


# ------------------------------------------------------------- exit codes


def test_missing_input_is_validation_error():
    res = run_cli("analyze")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_nonexistent_spec_path():
    res = run_cli("analyze", "--spec", "/no/such/file.json")
    assert res.returncode == 2


def test_invalid_spec_file(tmp_path):
    bad = tmp_path / "bad.json"
    raw = heis_spec_dict()
    raw["structure"] = [[0, 0, 2, 1.0, 0.0]]
    bad.write_text(json.dumps(raw))
    res = run_cli("analyze", "--spec", str(bad))
    assert res.returncode == 2


def test_spec_tolerances_hold_under_each_flag(tmp_path, capsys):
    """A spec's tolerances block counts; a --tol-* flag replaces only its own field."""
    spec = tmp_path / "tight.json"
    raw = solvhull.sol_spec()
    raw["tolerances"] = {"num": 1e-30, "alg": 1e-30}
    spec.write_text(json.dumps(raw))
    assert cli.main(["verify", "--spec", str(spec)]) == cli.EXIT_INVARIANT
    assert "exceeds budget" in capsys.readouterr().err
    args = cli.build_parser().parse_args(["analyze", "--spec", str(spec), "--tol-num", "1e-8"])
    assert cli._load_problem(args).tolerances == solvhull.Tolerances(alg=1e-30, num=1e-8)
    assert cli.main(["analyze", "--spec", str(spec), "--tol-num", "1e-8"]) == cli.EXIT_OK


@pytest.mark.parametrize(
    "block, flags",
    [
        ({"num": float("nan")}, []),
        (None, ["--tol-num", "nan"]),
        (None, ["--tol-num", "inf"]),
        (None, ["--tol-num", "-1"]),
    ],
    ids=["spec-nan", "flag-nan", "flag-inf", "flag-negative"],
)
def test_a_tolerance_that_is_not_finite_and_positive_is_bad_input(
    block, flags, tmp_path, capsys
):
    raw = heis_spec_dict()
    if block is not None:
        raw["tolerances"] = block
    spec = tmp_path / "heis.json"
    spec.write_text(json.dumps(raw))
    assert cli.main(["verify", "--spec", str(spec), *flags]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["integrate", "--example", "sol", "--word", "a", "--depth", "-1"],
        ["verify", "--example", "sol", "--depth", "-1"],
        ["verify", "--example", "sol", "--seed", "-1"],
    ],
    ids=["integrate-depth", "verify-depth", "verify-seed"],
)
def test_a_negative_seed_or_depth_is_bad_input(args, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(args)
    assert exit_info.value.code == cli.EXIT_VALIDATION
    flag = args[-2]
    assert f"argument {flag}:" in capsys.readouterr().err


def test_verify_on_a_lattice_without_a_translation_is_bad_input(tmp_path, capsys):
    """The separation check needs a translation and a fiber generator."""
    raw = solvhull.sol_spec()
    lattice = raw["model"]["lattice"]
    del lattice["generators"]["a"]
    lattice["relations"] = []
    spec = tmp_path / "fiber_only.json"
    spec.write_text(json.dumps(raw))
    assert cli.main(["verify", "--spec", str(spec)]) == cli.EXIT_VALIDATION
    assert "separation demo needs one translation" in capsys.readouterr().err


def test_unknown_example_name():
    res = run_cli("analyze", "--example", "nosuch")
    assert res.returncode == 2


def test_truncation_overflow_exit_code(tmp_path):
    # Thirteen weight-one generators at nilpotency class three: the
    # weighted degree-3 module already needs more than 512 monomials.
    names = [f"x{i}" for i in range(13)] + ["y", "z"]
    structure = [[0, 1, 13, 1.0, 0.0], [0, 13, 14, 1.0, 0.0]]
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps({"name": "big", "basis_names": names, "structure": structure})
    )
    res = run_cli("hull", "--spec", str(big))
    assert res.returncode == 3
    assert "error" in res.stderr


def test_main_builds_its_parser_once(monkeypatch, capsys):
    build = cli.build_parser
    built = []

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    argv = ["monodromy", "--example", "sol", "--word", "a b1 a^-1"]
    assert cli.main(argv + ["--json"]) == 0
    as_json = capsys.readouterr().out
    assert cli.main(argv) == 0
    as_text = capsys.readouterr().out
    assert as_text != as_json
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--example", "sol", "--seed", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    # Each call parses into a fresh namespace: no flag of an earlier call carries over.
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == as_text
    assert cli.main(argv + ["--json"]) == 0
    assert capsys.readouterr().out == as_json
    assert built == [1]


def test_endpoint_mismatch_exit_code(monkeypatch, capsys):
    def boom(form, lattice, word):
        raise EndpointMismatch(1.0, 1e-8)

    monkeypatch.setattr(cli, "word_monodromy", boom)
    code = cli.main(["monodromy", "--example", "sol", "--word", "a"])
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_invariant_failure_exit_code(monkeypatch, capsys):
    def boom(form, lattice, word):
        raise SolvHullError("made up invariant failure")

    monkeypatch.setattr(cli, "word_monodromy", boom)
    code = cli.main(["monodromy", "--example", "sol", "--word", "a"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_internal_key_error_is_not_bad_input(monkeypatch):
    """A KeyError from inside a build stage is a fault, not exit 2."""
    import solvhull.verify as verify

    def boom(*args, **kwargs):
        raise KeyError("internal lookup")

    monkeypatch.setattr(verify, "build_splitting", boom)
    with pytest.raises(KeyError, match="internal lookup"):
        cli.main(["monodromy", "--example", "sol", "--word", "a"])


def test_main_inprocess_success(capsys):
    code = cli.main(["analyze", "--example", "sol", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["problem"] == "sol"
