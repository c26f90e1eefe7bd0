"""The CLI contract over hostile config values: every run of
``homatlas.cli.main`` either succeeds with strict JSON or fails with a
JSON error object and exit code 1 or 2; no exception escapes."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homatlas import cli
from homatlas.config import _EXPERIMENT_SCHEMAS, _FAMILY_SCHEMA, SUBCOMMANDS

VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "", "abc",
          "0.5", "-0.5", "2", "1e-20")
# small sweeps, so that no example runs long; a drawn key overrides its cap
CAPS = {"k_min": "8", "k_max": "9", "n_alpha": "3"}


def _keys(subcommand):
    return [("family", key) for key in _FAMILY_SCHEMA] + [
        ("experiment", key) for key in _EXPERIMENT_SCHEMAS[subcommand]
    ]


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# beta = 1e300 overflows the saddle power B(u)**k, which numpy warns
# about on its way to the inf that the solvers turn into an error; over
# all 2249 cases that is the only RuntimeWarning
@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(SUBCOMMANDS).flatmap(
        lambda sub: st.tuples(st.just(sub), st.sampled_from(_keys(sub)))
    ),
    value=st.sampled_from(VALUES),
)
def test_hostile_value_is_a_result_or_a_json_error(case, value):
    subcommand, (section, key) = case
    argv = [subcommand, "--set", f"{section}.{key}={value}"]
    for cap, cap_value in CAPS.items():
        if cap != key and cap in _EXPERIMENT_SCHEMAS[subcommand]:
            argv += ["--set", f"experiment.{cap}={cap_value}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--out", out_dir])
        if rc == 0:
            with open(os.path.join(out_dir, "result.json")) as fh:
                json.loads(fh.read(), parse_constant=_no_constant)
            return
    assert rc in (1, 2), argv
    last = err.getvalue().strip().splitlines()[-1]
    assert json.loads(last)["error"]["type"], argv
