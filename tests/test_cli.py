"""End-to-end tests of the command-line driver: envelopes, CSV, SVG,
exit codes, and determinism of the serialized outputs."""

import json
import os
import subprocess
import sys
import time

import pytest

import homatlas
from homatlas import cli
from homatlas.cli import family_from_config, main
from homatlas.config import load_config
from homatlas.exceptions import ConfigError
from homatlas.family import HenonLikeRecipe, ShearSandwichRecipe


def _envelope(out_dir):
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_import_leaves_the_network_stack_unloaded():
    # every CLI process pays for what ``import homatlas.cli`` loads;
    # xml.sax.saxutils would bring urllib.request and http.client, and
    # numpy.polynomial costs about 4 ms of a 230 ms import
    src = os.path.dirname(os.path.dirname(homatlas.__file__))
    code = (
        "import sys, homatlas.cli; "
        "print([m for m in ('xml.sax', 'urllib.request', 'http.client',"
        " 'numpy.polynomial') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_henon_run(tmp_path):
    out = str(tmp_path / "run")
    assert main(["henon", "--out", out]) == 0
    env = _envelope(out)
    assert env["schema_version"] == 1
    assert env["tool"] == "homatlas"
    assert env["subcommand"] == "henon"
    assert env["config"]["experiment"]["M"] == 0.625
    assert abs(env["payload"]["b1_at_M"]) < 1e-9
    assert env["payload"]["horseshoe"]["certified"] is True
    values = env["payload"]["bifurcation_values"]
    assert abs(values["fixed-point-birth"]) < 1e-9
    assert abs(values["period-doubling"] - 1.0) < 1e-9
    assert abs(values["twistless"] - 0.625) < 1e-6
    # the resonant scan points are reported, not silently dropped
    assert any("skipped" in w for w in env["warnings"])
    assert env["wall_clock_s"] >= 0.0

    csv_bytes = (tmp_path / "run" / "henon.csv").read_bytes()
    assert b"\r" not in csv_bytes
    assert csv_bytes.decode("utf-8").splitlines()[0] == "quantity,label,value"
    svg = (tmp_path / "run" / "henon.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg")


def test_family_check_audit_passes(tmp_path):
    out = str(tmp_path / "run")
    assert main(["family-check", "--out", out]) == 0
    payload = _envelope(out)["payload"]
    assert payload["audit"]["unit_product"] is True
    assert payload["audit"]["determinant_identity"] is True
    assert abs(payload["bc_minus_one"]) < 1e-8
    assert abs(payload["taylor"]["d"] - 1.0) < 1e-8
    assert payload["alpha"] == pytest.approx(0.0, abs=1e-8)


def test_resonance_certified(tmp_path):
    out = str(tmp_path / "run")
    code = main(
        [
            "resonance",
            "--set", "s0=-0.4",
            "--set", "k_min=8",
            "--set", "k_max=10",
            "--set", "h0=0.02",
            "--out", out,
        ]
    )
    assert code == 0
    payload = _envelope(out)["payload"]
    assert payload["verdict"] == "certified"
    assert payload["nesting"] == "nested"
    assert payload["flags"] == []
    for rec in payload["records"]:
        assert abs(rec["cos_phi"] - 0.2) < 0.01


def test_cascade_outputs_and_determinism(tmp_path):
    args = [
        "cascade",
        "--set", "alpha=-0.1",
        "--set", "k_min=10",
        "--set", "k_max=11",
    ]
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2, "--threads", "2"]) == 0
    env1, env2 = _envelope(out1), _envelope(out2)
    del env1["wall_clock_s"], env2["wall_clock_s"]
    # the config echo differs only in the output dir
    env1["config"]["output"]["dir"] = env2["config"]["output"]["dir"]
    assert env1 == env2
    csv1 = (tmp_path / "a" / "cascade.csv").read_bytes()
    csv2 = (tmp_path / "b" / "cascade.csv").read_bytes()
    assert csv1 == csv2
    svg1 = (tmp_path / "a" / "cascade.svg").read_bytes()
    svg2 = (tmp_path / "b" / "cascade.svg").read_bytes()
    assert svg1 == svg2
    assert (tmp_path / "a" / "cascade_phases.svg").exists()

    rows = env1["payload"]["rows"]
    assert [r["k"] for r in rows] == [10, 11]
    for r in rows:
        assert r["error"] is None
        assert r["monotone"] is True
        assert len(r["flags"]) == 3


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[family]\nlam = 0.4\n[experiment]\nM = 0.3\nscan_n = 3\n",
        encoding="utf-8",
    )
    out = str(tmp_path / "run")
    code = main(["henon", "--config", str(path), "--out", out])
    assert code == 0
    env = _envelope(out)
    assert env["config"]["family"]["lam"] == 0.4
    assert env["config"]["experiment"]["M"] == 0.3
    assert len(env["payload"]["b1_scan"]["M"]) == 3


def test_validation_error_exit_1(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["henon", "--set", "nonsense=1", "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["schema_version"] == 1
    assert err["error"]["type"] == "ConfigError"
    assert not os.path.exists(os.path.join(out, "result.json"))


@pytest.mark.parametrize(
    "override", ["M=1.5", "M=0", "scan_min=0", "scan_max=1.2", "M=nan"]
)
def test_henon_range_error_exit_1(tmp_path, capsys, override):
    out = str(tmp_path / "run")
    assert main(["henon", "--set", override, "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert not os.path.exists(os.path.join(out, "result.json"))


def _config_error(capsys):
    """The single JSON error object main printed for a ConfigError."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    obj = json.loads(err)
    assert obj["error"]["type"] == "ConfigError"
    return obj["error"]["message"]


def test_key_of_the_recipe_not_chosen_exit_1(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["family-check", "--set", "p1=0.9", "--out", out]) == 1
    assert "p1" in _config_error(capsys)
    assert not os.path.exists(os.path.join(out, "result.json"))


@pytest.mark.parametrize("content", [None, b"[family]\nlam = 0.4 \xff\n"],
                         ids=["directory", "not-utf8"])
def test_unreadable_config_file_exit_1(tmp_path, capsys, content):
    path = tmp_path / "run.ini"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    out = str(tmp_path / "run")
    assert main(["henon", "--config", str(path), "--out", out]) == 1
    assert "unreadable config file" in _config_error(capsys)
    assert not os.path.exists(out)


def test_out_path_that_is_a_file_exit_1(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep\n", encoding="utf-8")
    assert main(["family-check", "--out", str(out)]) == 1
    assert "cannot write output" in _config_error(capsys)
    assert out.read_text(encoding="utf-8") == "keep\n"
    assert os.listdir(tmp_path) == ["taken"]


def test_henon_horseshoe_false_means_not_certified(tmp_path, capsys):
    # the certificate never claims absence, so any finite m_horseshoe is a
    # result; below its threshold the answer is "not certified"
    out = str(tmp_path / "run")
    assert main(["henon", "--set", "m_horseshoe=-5", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    horseshoe = _envelope(out)["payload"]["horseshoe"]
    assert horseshoe == {"m": -5.0, "certified": False}


def test_henon_tiny_m_is_a_resonance_error(tmp_path, capsys):
    # cos(phi) = 1 - 2M rounds to 1: the 1:1 resonance in binary64
    out = str(tmp_path / "run")
    assert main(["henon", "--set", "M=1e-20", "--out", out]) == 2
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    err = json.loads(stderr)
    assert err["error"]["type"] == "ResonantParameterError"
    assert not os.path.exists(os.path.join(out, "result.json"))
    assert main(["henon", "--set", "M=1e-12", "--out", out]) == 0


@pytest.mark.parametrize("argv", [
    ["cross-form", "--set", "beta=5"],
    ["cross-form", "--set", "beta=7"],
    ["rescale-verify", "--set", "beta=14", "--set", "k_max=9"],
    ["classify", "--set", "beta=14", "--set", "k_max=9"],
])
def test_runaway_saddle_passage_writes_one_json_error(tmp_path, argv):
    # the iterate that overflowed raised at once; B was evaluated on inf
    # before, and numpy's RuntimeWarning preceded the JSON error
    src = os.path.dirname(os.path.dirname(homatlas.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "homatlas.cli", *argv,
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == {"message": "cross-form solve ran away",
                            "type": "CrossFormSolveError"}


@pytest.mark.parametrize(
    "subcommand",
    ["cross-form", "classify", "cascade", "atlas2d", "resonance",
     "rescale-verify"],
)
def test_k_max_past_the_precision_floor_is_refused_up_front(
        subcommand, tmp_path, capsys):
    # lam = 0.5 admits k <= 16; a k_max of 1000 used to run every row or
    # cell into its own PrecisionFloorError
    out = str(tmp_path / "run")
    t0 = time.perf_counter()
    rc = main([subcommand, "--set", "k_max=1000", "--out", out])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    err = json.loads(stderr)
    assert err["error"]["type"] == "PrecisionFloorError"
    assert "largest admissible k: 16" in err["error"]["message"]
    assert not os.path.exists(os.path.join(out, "result.json"))


def test_k_max_at_the_precision_floor_still_runs(tmp_path):
    out = str(tmp_path / "run")
    argv = ["cascade", "--set", "k_min=16", "--set", "k_max=16"]
    assert main(argv + ["--out", out]) == 0
    assert [row["k"] for row in _envelope(out)["payload"]["rows"]] == [16]


@pytest.mark.parametrize(
    "argv",
    [
        ("henon", "scan_n=-1"),
        ("rescale-verify", "grid_n=0"),
        ("atlas2d", "n_alpha=0"),
        *(
            (sub, "k_min=5", "k_max=4")
            for sub in ("cross-form", "classify", "cascade", "atlas2d",
                        "resonance", "rescale-verify")
        ),
    ],
)
def test_bad_sizes_are_config_errors(tmp_path, capsys, argv):
    out = str(tmp_path / "run")
    sub, *overrides = argv
    cmd = [sub, "--out", out]
    for item in overrides:
        cmd += ["--set", item]
    assert main(cmd) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert not os.path.exists(os.path.join(out, "result.json"))


@pytest.mark.parametrize(
    "overrides",
    [("recipe=sandwich", "d=0"), ("recipe=fold", "q=0,0,0,1"), ("q=",)],
)
def test_recipe_tangency_error_is_config_error(tmp_path, capsys, overrides):
    argv = ["family-check", "--out", str(tmp_path / "run")]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert "tangency" in err["error"]["message"]


@pytest.mark.parametrize(
    "sub,override", [("cross-form", "x_plus=-1"), ("classify", "y_minus=0")]
)
def test_non_positive_homoclinic_points_are_config_errors(
    tmp_path, capsys, sub, override
):
    out = str(tmp_path / "run")
    assert main([sub, "--set", override, "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert "must be positive" in err["error"]["message"]
    assert not os.path.exists(os.path.join(out, "result.json"))


@pytest.mark.parametrize(
    "sub,override",
    [
        ("henon", "m_horseshoe=nan"),
        ("henon", "m_horseshoe=inf"),
        ("family-check", "mu=nan"),
        ("family-check", "alpha=-inf"),
        ("family-check", "beta=0.1,inf"),
        ("atlas2d", "eps=nan"),
    ],
)
def test_non_finite_values_are_config_errors(tmp_path, capsys, sub, override):
    out = str(tmp_path / "run")
    assert main([sub, "--set", override, "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert not os.path.exists(os.path.join(out, "result.json"))


@pytest.mark.parametrize("beta", ["0.5", "-1,0"])
def test_overflowing_frame_is_a_numerical_error(tmp_path, capsys, beta):
    # y_minus = 1e300 with a Moser term overflows the first-order mu
    # offset of every frame: each cascade row records the error, and
    # rescale-verify exits 2 with a JSON error object, where both once
    # escaped with a bare ValueError from math.fsum
    sets = ["--set", "y_minus=1e300", "--set", f"beta={beta}",
            "--set", "k_min=8", "--set", "k_max=9"]
    out = str(tmp_path / "cascade")
    assert main(["cascade", *sets, "--out", out]) == 0
    rows = _envelope(out)["payload"]["rows"]
    assert [r["k"] for r in rows] == [8, 9]
    for r in rows:
        assert r["error"].startswith("NonFiniteResultError: ")
    out = str(tmp_path / "verify")
    capsys.readouterr()
    assert main(["rescale-verify", *sets, "--out", out]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NonFiniteResultError"
    assert os.listdir(out) == ["error.json"]


def test_non_finite_result_writes_no_files(tmp_path, capsys, monkeypatch):
    def nan_result(cfg):
        return {"value": float("nan")}, [["value"], ["nan"]], {}, []

    monkeypatch.setitem(cli._HANDLERS, "henon", nan_result)
    out = str(tmp_path / "run")
    assert main(["henon", "--out", out]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NonFiniteResultError"
    assert os.listdir(out) == ["error.json"]


def test_writer_formats_raw_row_values(tmp_path, monkeypatch):
    def raw_row(cfg):
        return {}, [[None, True, False, 0.1, 3, "s"]], {}, []

    monkeypatch.setitem(cli._HANDLERS, "henon", raw_row)
    out = str(tmp_path / "run")
    assert main(["henon", "--out", out]) == 0
    with open(os.path.join(out, "henon.csv"), encoding="utf-8") as fh:
        assert fh.read() == ",true,false,0.1,3,s\n"


def test_cross_form_outside_validity_window_fails(tmp_path, capsys):
    out = str(tmp_path / "run")
    argv = ["cross-form", "--set", "k_min=0", "--set", "k_max=2"]
    assert main(argv + ["--out", out]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "StripWindowError"
    assert not os.path.exists(os.path.join(out, "result.json"))


def test_classify_outside_validity_window_fails(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["classify", "--set", "lam=0.99", "--out", out]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "StripWindowError"
    assert not os.path.exists(os.path.join(out, "result.json"))


@pytest.mark.parametrize(
    "argv,rc",
    [
        (["classify", "--set", "beta=1e300"], 2),
        (["cascade", "--set", "beta=1e300", "--set", "k_max=9"], 0),
    ],
)
def test_overflowing_saddle_power_is_not_a_warning(tmp_path, capsys, argv,
                                                   rc):
    # B(u)**k overflows to inf, which the solvers turn into errors; numpy
    # would warn on the way there, and RuntimeWarnings are errors here
    out = str(tmp_path / "run")
    assert main(argv + ["--out", out]) == rc
    err = capsys.readouterr().err.splitlines()
    if rc:
        assert len(err) == 1
        assert json.loads(err[0])["error"]["type"] == "CrossFormSolveError"
    else:
        assert err == []


def test_main_calls_leave_no_state_behind(tmp_path, capsys):
    def lam_of(argv):
        out = str(tmp_path / "run")
        assert main(argv + ["--out", out]) == 0
        return _envelope(out)["config"]["family"]["lam"]

    assert lam_of(["family-check", "--set", "lam=0.6"]) == 0.6
    assert lam_of(["family-check"]) == 0.5
    for bad in (["family-check", "--bogus"], ["family-check", "--set"]):
        with pytest.raises(SystemExit):
            main(bad)
    assert lam_of(["family-check", "--set", "lam=0.55"]) == 0.55
    assert lam_of(["family-check"]) == 0.5
    # one parser served every call, and its --set default is still empty
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser().parse_args(["family-check"]).set == []


def test_unknown_format_exit_1(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["henon", "--set", "formats=pdf", "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"


def test_numerical_error_exit_2(tmp_path, capsys):
    # the default fold family has s0 = 0, outside the resonance window
    out = str(tmp_path / "run")
    assert main(["resonance", "--out", out]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ResonanceWindowError"
    with open(os.path.join(out, "error.json"), encoding="utf-8") as fh:
        disk = json.load(fh)
    assert disk == err
    assert not os.path.exists(os.path.join(out, "result.json"))


def test_formats_filter(tmp_path):
    out = str(tmp_path / "run")
    code = main(
        ["family-check", "--set", "formats=csv", "--out", out]
    )
    assert code == 0
    assert os.path.exists(os.path.join(out, "family-check.csv"))
    assert not os.path.exists(os.path.join(out, "result.json"))
    assert not os.path.exists(os.path.join(out, "family-check.svg"))


def test_family_from_config_recipes():
    fam = family_from_config(load_config("family-check").family)
    assert fam.lam == 0.5
    assert abs(fam.taylor.b - 1.0) < 1e-9
    # the config defaults are the recipe defaults
    assert fam.recipe == HenonLikeRecipe()
    cfg = load_config("family-check", overrides=("recipe=sandwich",))
    assert family_from_config(cfg.family).recipe == ShearSandwichRecipe()

    cfg = load_config(
        "family-check", overrides=("recipe=sandwich", "p1=0.2")
    )
    fam = family_from_config(cfg.family)
    assert abs(fam.taylor.a) > 1e-6

    with pytest.raises(ConfigError):
        family_from_config(
            load_config("family-check", overrides=("recipe=bogus",)).family
        )
    with pytest.raises(ConfigError):
        # |lam| >= 1 is rejected before any computation
        family_from_config(
            load_config("family-check", overrides=("lam=1.5",)).family
        )


def test_tuned_family_from_config():
    cfg = load_config(
        "family-check", overrides=("alpha=-0.1", "s0=-0.2")
    )
    fam = family_from_config(cfg.family)
    assert fam.alpha == pytest.approx(-0.1, abs=1e-7)
    assert fam.s0 == pytest.approx(-0.2, abs=1e-7)


def test_cross_form_and_classify_runs(tmp_path):
    out1 = str(tmp_path / "cf")
    code = main(
        [
            "cross-form",
            "--set", "beta=1",
            "--set", "k_min=6",
            "--set", "k_max=9",
            "--out", out1,
        ]
    )
    assert code == 0
    payload = _envelope(out1)["payload"]
    assert payload["beta1"] == 1.0
    assert abs(payload["beta1_fitted"] - 1.0) < 0.1

    out2 = str(tmp_path / "cl")
    code = main(
        [
            "classify",
            "--set", "p=0,-1",
            "--set", "q=0,0,-1",
            "--set", "k_min=8",
            "--set", "k_max=10",
            "--out", out2,
        ]
    )
    assert code == 0
    payload = _envelope(out2)["payload"]
    assert payload["tag"] == "empty"
    assert payload["agrees"] is True


def test_atlas2d_run(tmp_path):
    out = str(tmp_path / "run")
    code = main(
        [
            "atlas2d",
            "--set", "k_min=8",
            "--set", "k_max=9",
            "--set", "n_alpha=5",
            "--set", "eps=0.03",
            "--out", out,
        ]
    )
    assert code == 0
    payload = _envelope(out)["payload"]
    assert payload["axis_crossings"] == [[8, True], [9, True]]
    assert payload["intersections"] == [[8, 9, True]]
    assert payload["failures"] == []
    csv_text = (tmp_path / "run" / "atlas2d.csv").read_text(
        encoding="utf-8"
    )
    header, *rows = csv_text.splitlines()
    assert header == "k,alpha,mu_plus,mu_minus"
    assert len(rows) == 2 * 5


def test_rescale_verify_run(tmp_path):
    out = str(tmp_path / "run")
    code = main(
        [
            "rescale-verify",
            "--set", "q=0,0,1,1",
            "--set", "k_min=8",
            "--set", "k_max=12",
            "--out", out,
        ]
    )
    assert code == 0
    payload = _envelope(out)["payload"]
    assert payload["bounded"] is True
    assert len(payload["sup_residual"]) == 5
