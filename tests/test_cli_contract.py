"""The CLI contract over hostile config values, one key at a time and two
or three keys together: every run of ``homatlas.cli.main`` either
succeeds with strict JSON or fails with a JSON error object and exit code
1 or 2; no exception escapes."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
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


def _assert_result_or_json_error(subcommand, sets):
    """Run subcommand with the --set pairs (section, key, value), capped
    by CAPS where a key is not set, and check the contract."""
    argv = [subcommand]
    for section, key, value in sets:
        argv += ["--set", f"{section}.{key}={value}"]
    keys = {key for _, key, _ in sets}
    for cap, cap_value in CAPS.items():
        if cap not in keys and cap in _EXPERIMENT_SCHEMAS[subcommand]:
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


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(SUBCOMMANDS).flatmap(
        lambda sub: st.tuples(st.just(sub), st.sampled_from(_keys(sub)))
    ),
    value=st.sampled_from(VALUES),
)
def test_hostile_value_is_a_result_or_a_json_error(case, value):
    subcommand, (section, key) = case
    _assert_result_or_json_error(subcommand, [(section, key, value)])


def _combined_sets(sub):
    """Two or three distinct keys of sub, each with a drawn value."""
    return st.lists(
        st.sampled_from(_keys(sub)), min_size=2, max_size=3, unique=True
    ).flatmap(lambda keys: st.lists(
        st.sampled_from(VALUES), min_size=len(keys), max_size=len(keys)
    ).map(lambda values: [(*key, v) for key, v in zip(keys, values)]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.sampled_from(SUBCOMMANDS).flatmap(
    lambda sub: st.tuples(st.just(sub), _combined_sets(sub))
))
# a frame whose numbers overflow under a Moser term
@example(case=("cascade", [("family", "y_minus", "1e300"),
                           ("family", "beta", "0.5")]))
# a rescaling chain that is singular at k = 10 (d + lam**10 f12 x_plus = 0)
@example(case=("cascade", [("family", "p", "0,1,16"),
                           ("family", "q", "0,0,-1"),
                           ("experiment", "k_max", "10")]))
def test_combined_hostile_values_are_a_result_or_a_json_error(case):
    subcommand, sets = case
    _assert_result_or_json_error(subcommand, sets)


# family keys drawn from inside their valid ranges, so that two or three
# of them together reach the solvers rather than the config checks
IN_RANGE = {
    "lam": st.floats(0.4, 0.6) | st.floats(-0.6, -0.4),
    "beta": st.floats(-1.0, 1.0),
    "x_plus": st.floats(0.5, 2.0),
    "y_minus": st.floats(0.5, 2.0),
    "s0": st.floats(-0.9, -0.1),
    "alpha": st.floats(-0.05, 0.05),
}


def _in_range_sets():
    """Two or three distinct keys of IN_RANGE, each with a drawn value."""
    return st.lists(
        st.sampled_from(sorted(IN_RANGE)), min_size=2, max_size=3, unique=True
    ).flatmap(lambda keys: st.tuples(
        *(IN_RANGE[key].map(repr) for key in keys)
    ).map(lambda values: [("family", *kv) for kv in zip(keys, values)]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(subcommand=st.sampled_from(SUBCOMMANDS), sets=_in_range_sets())
def test_combined_in_range_values_are_a_result_or_a_json_error(subcommand,
                                                               sets):
    _assert_result_or_json_error(subcommand, sets)
