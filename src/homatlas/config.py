"""Run configuration: INI-style files, typed per-subcommand schemas,
and command-line overrides.

A config has three sections.  [family] describes the map under study,
[experiment] the sweep for the chosen subcommand, [output] where and in
which formats results land.  Overrides accept either a dotted form
(``experiment.k_max=14``) or a bare key, which is resolved against the
subcommand's experiment schema first, then the family schema, then the
output schema.
"""

from __future__ import annotations

import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields

from .exceptions import ConfigError
from .family import RECIPES

__all__ = ["RunConfig", "SUBCOMMANDS", "load_config"]

# schema kind of a recipe field's annotation
_FIELD_KINDS = {"tuple": "floats", "float": "float"}

# value kinds: str, int, float, optfloat (None unless set), floats
# (comma- or space-separated list).  Each recipe field is a key too, with
# the field's kind and default; x_plus and y_minus, fields of both
# recipes with the same defaults, take one key each; a key that only the
# recipe not chosen has is refused.
_RECIPE_KEYS = {f.name for recipe in RECIPES.values() for f in fields(recipe)}
_FAMILY_SCHEMA = {
    "recipe": ("str", "fold"),
    "lam": ("float", 0.5),
    "beta": ("floats", ()),
    "mu": ("float", 0.0),
    "h0": ("float", 0.05),  # deprecated, ignored
    "n0": ("int", 1),  # deprecated, ignored
    "alpha": ("optfloat", None),
    "s0": ("optfloat", None),
    **{
        f.name: (_FIELD_KINDS[f.type], f.default)
        for recipe in RECIPES.values()
        for f in fields(recipe)
    },
}

_EXPERIMENT_SCHEMAS = {
    "henon": {
        "M": ("float", 0.625),
        "m_horseshoe": ("float", 10.0),
        "scan_min": ("float", 0.05),
        "scan_max": ("float", 0.95),
        "scan_n": ("int", 19),
    },
    "family-check": {},
    "cross-form": {
        "k_min": ("int", 6),
        "k_max": ("int", 16),
    },
    "classify": {
        "k_min": ("int", 8),
        "k_max": ("int", 14),
    },
    "cascade": {
        "k_min": ("int", 8),
        "k_max": ("int", 14),
    },
    "atlas2d": {
        "k_min": ("int", 8),
        "k_max": ("int", 12),
        "eps": ("float", 0.05),
        "n_alpha": ("int", 41),
    },
    "resonance": {
        "k_min": ("int", 8),
        "k_max": ("int", 14),
    },
    "rescale-verify": {
        "k_min": ("int", 8),
        "k_max": ("int", 14),
        "m": ("float", 0.5),
        "grid_n": ("int", 9),
    },
}

# experiment keys confined to the open interval (0, 1), where the limit
# map's 2-periodic orbit (whose twist henon reports) is elliptic
_UNIT_INTERVAL_KEYS = {"henon": ("M", "scan_min", "scan_max")}

# experiment keys that count grid points, with their upper bounds: henon
# runs scan_n Birkhoff coefficients, rescale-verify maps grid_n**2 points
# per k, and atlas2d runs n_alpha bordered locators per k
_COUNT_KEYS = {"scan_n": 10_000, "grid_n": 500, "n_alpha": 1_000}

_OUTPUT_SCHEMA = {
    "dir": ("str", "out"),
    "formats": ("str", "json,csv,svg"),
}

SUBCOMMANDS = tuple(_EXPERIMENT_SCHEMAS)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    family: dict
    experiment: dict
    output: dict


def _convert(kind, key, raw):
    try:
        if kind == "str":
            return str(raw)
        if kind == "int":
            return int(str(raw), 10)
        if kind == "float":
            value = float(raw)
        elif kind == "optfloat":
            value = None if raw is None or raw == "" else float(raw)
        elif kind == "floats":
            items = raw
            if not isinstance(raw, (tuple, list)):
                items = str(raw).replace(",", " ").split()
            value = tuple(float(v) for v in items)
        else:
            raise ConfigError(f"unknown schema kind {kind!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    # nan and +-inf would reach the results, which JSON cannot carry
    numbers = value if isinstance(value, tuple) else (value,)
    if not all(v is None or math.isfinite(v) for v in numbers):
        raise ConfigError(f"non-finite value for {key}: {raw!r}")
    return value


def _validated(section_name, schema, raw):
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(
                f"unknown key {key!r} in section [{section_name}]"
            )
        out[key] = _convert(schema[key][0], f"{section_name}.{key}", value)
    for key, (kind, default) in schema.items():
        out.setdefault(key, default)
    return out


def _resolve_bare(key, experiment_schema):
    if key in experiment_schema:
        return "experiment"
    if key in _FAMILY_SCHEMA:
        return "family"
    if key in _OUTPUT_SCHEMA:
        return "output"
    raise ConfigError(f"unknown override key {key!r}")


def load_config(subcommand, path=None, overrides=(), out_dir=None):
    """Assemble and validate the configuration for one run."""
    if subcommand not in _EXPERIMENT_SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    experiment_schema = _EXPERIMENT_SCHEMAS[subcommand]
    raw = {"family": {}, "experiment": {}, "output": {}}
    if path is not None:
        parser = ConfigParser()
        # keep option names case-sensitive so keys like M survive
        parser.optionxform = str
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(
                f"unreadable config file {path!r}: {exc}"
            ) from exc
        except ConfigParserError as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        for section in parser.sections():
            if section not in raw:
                raise ConfigError(f"unknown config section [{section}]")
            raw[section].update(dict(parser[section]))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if "." in key:
            section, key = key.split(".", 1)
            if section not in raw:
                raise ConfigError(f"unknown override section {section!r}")
        else:
            section = _resolve_bare(key, experiment_schema)
        raw[section][key] = value.strip()
    if out_dir is not None:
        raw["output"]["dir"] = out_dir
    experiment = _validated("experiment", experiment_schema, raw["experiment"])
    for key in _UNIT_INTERVAL_KEYS.get(subcommand, ()):
        if not 0.0 < experiment[key] < 1.0:
            raise ConfigError(
                f"experiment.{key} = {experiment[key]!r} must lie in (0, 1)"
            )
    for key, most in _COUNT_KEYS.items():
        if key in experiment and not 1 <= experiment[key] <= most:
            raise ConfigError(
                f"experiment.{key} = {experiment[key]!r} must lie in "
                f"[1, {most}]"
            )
    if "k_min" in experiment and experiment["k_min"] > experiment["k_max"]:
        raise ConfigError(
            f"experiment.k_min = {experiment['k_min']!r} exceeds "
            f"experiment.k_max = {experiment['k_max']!r}"
        )
    family = _validated("family", _FAMILY_SCHEMA, raw["family"])
    name = family["recipe"]
    if name in RECIPES:
        own = {f.name for f in fields(RECIPES[name])}
        for key in raw["family"]:
            if key in _RECIPE_KEYS and key not in own:
                raise ConfigError(f"family.{key} is not a {name!r} recipe key")
    return RunConfig(
        subcommand=subcommand,
        family=family,
        experiment=experiment,
        output=_validated("output", _OUTPUT_SCHEMA, raw["output"]),
    )
