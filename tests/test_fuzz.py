"""main() on fuzzed argv: every subcommand ends in an exit code 0-4 and
never raises, and a JSON report printed on exit 0 is strict JSON that
validates against its subcommand's schema.

Each flag is passed as ``--flag=value`` or as ``--flag value``, which parse
alike, negative values included. Float values include nan, inf, +-1e+-300
and subnormals. Sizes stay small (``--n`` and ``--replications`` at most
50, ``--resamples`` at most 1000, ``--bins`` at most 50) so that no example
allocates much.
"""

import contextlib
import io
import json

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from tverskyci.cli import main
from tverskyci.schemas import SCHEMAS_BY_COMMAND

EDGE_FLOATS = (
    "nan", "inf", "-inf", "0", "-0", "1", "0.5", "1e300", "-1e300", "1e-300", "-1e-300",
    "5e-324", "-5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
)
FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(0.0, 1.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
COUNT = st.one_of(st.integers(0, 1000), st.integers(0, 2**64))
COUNTS = st.lists(COUNT.map(str), min_size=4, max_size=4).map(",".join)
SUMMARY = st.tuples(COUNT.map(str), FLOATS, FLOATS, FLOATS).map(",".join)
SEED = st.integers(-1, 2**64)


def flag(name, values, optional=True):
    given_flag = st.tuples(values, st.booleans()).map(
        lambda drawn: [f"--{name}={drawn[0]}"] if drawn[1] else [f"--{name}", str(drawn[0])]
    )
    return st.one_of(st.just([]), given_flag) if optional else given_flag


WEIGHTS = st.one_of(
    st.just([]),
    flag("beta", FLOATS, False),
    flag("ab", st.tuples(FLOATS, FLOATS).map(",".join), False),
)
INPUT = st.one_of(st.just([]), flag("counts", COUNTS, False), flag("summary", SUMMARY, False))

FLAGS = {
    "estimate": (INPUT, WEIGHTS),
    "ci": (INPUT, WEIGHTS, flag("level", FLOATS)),
    "plan": (flag("delta", FLOATS), flag("ez", FLOATS), WEIGHTS),
    "bound-table": (),
    "simulate": (
        *(flag(name, FLOATS) for name in ("pz", "mu", "threshold", "level")),
        flag("n", st.integers(-1, 50), False),
        flag("replications", st.integers(-1, 50), False),
        flag("bins", st.integers(-1, 50), False),
        flag("seed", SEED),
        WEIGHTS,
    ),
    "bootstrap-check": (
        flag("counts", COUNTS),
        flag("resamples", st.integers(100, 1000), False),
        flag("seed", SEED),
        WEIGHTS,
    ),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flags in FLAGS[command]:
        argv += draw(flags)
    return argv + draw(st.sampled_from([[], ["--format", "json"]]))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_fuzzed_argv_exits_0_to_4(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code, err.getvalue())
    if code == 0 and "json" in argv:
        payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
        jsonschema.validate(payload, SCHEMAS_BY_COMMAND[argv[0]])
    elif code != 0:
        assert out.getvalue() == ""
