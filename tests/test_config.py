"""Tests for config assembly: schema defaults, INI ingestion, overrides."""

from dataclasses import fields

import pytest

from homatlas.config import _FAMILY_SCHEMA, SUBCOMMANDS, load_config
from homatlas.exceptions import ConfigError
from homatlas.family import RECIPES


def test_defaults_per_subcommand():
    cfg = load_config("henon")
    assert cfg.subcommand == "henon"
    assert cfg.experiment["M"] == 0.625
    assert cfg.experiment["scan_n"] == 19
    assert cfg.family["lam"] == 0.5
    assert cfg.family["recipe"] == "fold"
    assert cfg.family["beta"] == ()
    assert cfg.family["alpha"] is None
    assert cfg.output["dir"] == "out"
    assert cfg.output["formats"] == "json,csv,svg"

    cfg = load_config("cascade")
    assert cfg.experiment["k_min"] == 8
    assert cfg.experiment["k_max"] == 14

    cfg = load_config("atlas2d")
    assert cfg.experiment["n_alpha"] == 41
    assert cfg.experiment["eps"] == 0.05


def test_every_subcommand_loads_clean():
    for name in SUBCOMMANDS:
        cfg = load_config(name)
        assert cfg.subcommand == name
        assert cfg.family["x_plus"] == 1.0


def test_family_schema_holds_each_recipe_field():
    kinds = {"tuple": "floats", "float": "float", "int": "int"}
    recipe_keys = set()
    for recipe in RECIPES.values():
        for f in fields(recipe):
            assert _FAMILY_SCHEMA[f.name] == (kinds[f.type], f.default)
            recipe_keys.add(f.name)
    assert set(_FAMILY_SCHEMA) - recipe_keys == {
        "recipe", "lam", "beta", "mu", "h0", "alpha", "s0"
    }


def test_unknown_subcommand():
    with pytest.raises(ConfigError):
        load_config("frobnicate")


def test_ini_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[family]\n"
        "lam = 0.4\n"
        "beta = 1.0\n"
        "p = 0, -1\n"
        "[experiment]\n"
        "M = 0.3\n"
        "scan_n = 5\n"
        "[output]\n"
        "formats = json,csv\n",
        encoding="utf-8",
    )
    cfg = load_config("henon", path=str(path))
    assert cfg.family["lam"] == 0.4
    assert cfg.family["beta"] == (1.0,)
    assert cfg.family["p"] == (0.0, -1.0)
    assert cfg.experiment["M"] == 0.3
    assert cfg.experiment["scan_n"] == 5
    assert cfg.output["formats"] == "json,csv"
    assert cfg.output["dir"] == "out"


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("henon", path="/nonexistent/run.ini")


def test_unknown_section(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[solver]\ntol = 1e-9\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config("henon", path=str(path))


def test_unknown_key_in_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[family]\nlambda = 0.4\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config("henon", path=str(path))


def test_overrides_dotted_and_bare():
    cfg = load_config(
        "henon",
        overrides=("experiment.M=0.4", "lam=0.45", "dir=results"),
    )
    assert cfg.experiment["M"] == 0.4
    assert cfg.family["lam"] == 0.45
    assert cfg.output["dir"] == "results"


def test_bare_key_prefers_experiment_section():
    # rescale-verify has an experiment key m; it must not land in family
    cfg = load_config("rescale-verify", overrides=("m=0.3",))
    assert cfg.experiment["m"] == 0.3


def test_override_beats_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[experiment]\nM = 0.3\n", encoding="utf-8")
    cfg = load_config("henon", path=str(path), overrides=("M=0.7",))
    assert cfg.experiment["M"] == 0.7


def test_out_dir_argument_wins(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[output]\ndir = filedir\n", encoding="utf-8")
    cfg = load_config("henon", path=str(path), out_dir="flagdir")
    assert cfg.output["dir"] == "flagdir"


def test_bad_override_forms():
    with pytest.raises(ConfigError):
        load_config("henon", overrides=("M",))
    with pytest.raises(ConfigError):
        load_config("henon", overrides=("nonsense=1",))
    with pytest.raises(ConfigError):
        load_config("henon", overrides=("solver.tol=1e-9",))
    with pytest.raises(ConfigError):
        load_config("henon", overrides=("M=not-a-number",))
    with pytest.raises(ConfigError):
        load_config("henon", overrides=("scan_n=2.5",))
    # sizes past their bounds would start sweeps of hours and gigabytes
    for sub, key in (("henon", "scan_n"), ("rescale-verify", "grid_n"),
                     ("atlas2d", "n_alpha")):
        with pytest.raises(ConfigError):
            load_config(sub, overrides=(f"{key}=100000000",))


def test_floats_list_parsing():
    cfg = load_config("henon", overrides=("q=0,0,1,0.5",))
    assert cfg.family["q"] == (0.0, 0.0, 1.0, 0.5)
    cfg = load_config("henon", overrides=("beta=",))
    assert cfg.family["beta"] == ()


def test_optional_float_target():
    cfg = load_config("resonance", overrides=("s0=-0.4",))
    assert cfg.family["s0"] == -0.4
    assert cfg.family["alpha"] is None
