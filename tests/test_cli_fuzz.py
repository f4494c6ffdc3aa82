"""The CLI's check pass under random argv.

Every argv over cs, deblur, sweep and radius-search, with one --algo and
1-5 flags set to extreme values, either ends in one `config error:` line
(exit 1), or passes every check and reaches the first solve having written
nothing, or is refused by argparse (exit 2).  The solves are stubbed as in
tests/test_scripts.py, and n stays at most 32, so an argv costs milliseconds.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparsq.solvers
from sparsq import bench, cli

VALUES = ("0", "-0", "1e300", "-1e300", "1.7e308", "5e-324", "1e-320", "inf", "-inf", "nan",
          "auto")
# Each run starts from a small valid instance and valid weights; the drawn
# flags come after them, and argparse keeps the last value of a flag.  n, m,
# s and band parse as integers, so no drawn value can raise n above these.
INSTANCE = {"cs": ["--n", "16", "--m", "8", "--s", "2"], "deblur": ["--n", "8"]}
WEIGHTS = {"hv": ["--alpha", "6e-5"], "pg": ["--radius-sq", "30"], "ista": ["--alpha", "1e-3"],
           "fista": ["--alpha", "1e-3"], "st": ["--alpha", "1e-3"], "ht": ["--lam", "1e-3"]}
COMMON = ["--snr-db", "40", "--seeds", "0", "--r-min", "1", "--r-max", "400"]
PATH_KEYS = {"out", "trace_dir", "image"}  # file names, not numbers


def _flag_keys(command):
    experiment = bench.EXPERIMENT_KEYS.get(command, cli._EXPERIMENT_FLAGS)
    keys = (*experiment, *cli._ALGORITHM_FLAGS, *bench.MDP_KEYS)
    return sorted(k for k in dict.fromkeys(keys) if k not in PATH_KEYS)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("cs", "deblur", "sweep", "radius-search")))
    kind = command if command in INSTANCE else draw(st.sampled_from(tuple(INSTANCE)))
    algo = draw(st.sampled_from(bench.ALGORITHMS))
    argv = [command]
    if command != kind:
        argv.append(f"--experiment={kind}")
    if command == "sweep":
        axis = draw(st.sampled_from(("eta", "alpha", "snr_db")))
        values = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=2))
        argv += [f"--axis={axis}", f"--values={','.join(values)}"]
    argv += ["--algo", algo, *INSTANCE[kind], *WEIGHTS[algo], *COMMON]
    for key in draw(st.lists(st.sampled_from(_flag_keys(command)), min_size=1, max_size=5)):
        argv.append(f"--{key.replace('_', '-')}={draw(st.sampled_from(VALUES))}")
    return argv


class _SolveReached(Exception):
    pass


def _refuse(*args, **kwargs):
    raise _SolveReached


@settings(deadline=None)
@given(argv=argvs())
# the three tracebacks of an earlier fuzz prototype, each now a config error
@example(argv="deblur --algo ht --lam 2e-2 --seeds 0 --n 24 --sigma 1e-320".split())
@example(argv="sweep --experiment cs --axis snr_db --values auto,40 --algo hv --alpha 6e-5 "
              "--seeds 0".split())
@example(argv="sweep --experiment cs --axis eta --values auto --algo hv --alpha 6e-5 "
              "--seeds 0".split())
# two found by this test: a warning in the radius search's residual floor on
# an ||x0||_1 that overflows, and a ValueError building the Gram matrix of a
# scale whose square underflows
@example(argv="radius-search --experiment=cs --algo hv --n 24 --m 12 --s 3 --alpha 6e-5 "
              "--snr-db 40 --seeds 0 --r-min 1 --r-max 400 --x0=1.7e308".split())
@example(argv="cs --algo hv --n 24 --m 12 --s 3 --alpha 6e-5 --snr-db 40 --seeds 0 "
              "--scale=5e-324".split())
# an hv prox weight alpha / l_k that overflows, or whose 0.5 / weight does, at
# a given alpha or at the low end of the alpha search's bracket
@example(argv="cs --algo hv --alpha 1e300 --l-k 1e-10 --seeds 0".split())
@example(argv="cs --algo hv --alpha 1e-300 --l-k 1e10 --seeds 0".split())
@example(argv="cs --algo hv --alpha auto --l-k 1e305 --snr-db 40 --seeds 0".split())
def test_cli_check_pass_ends_in_a_config_error_or_the_first_solve(argv):
    written = []
    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(cli, "_write", lambda path, text: written.append(path))
        patch.setattr(sparsq.solvers, "_iterate", _refuse)
        warnings.simplefilter("error", RuntimeWarning)
        # the solvers' warning on a step constant without the descent guarantee
        # is deliberate: the run goes on
        warnings.filterwarnings("ignore", ".* is not above half the smoothness bound",
                                RuntimeWarning)
        try:
            with contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except _SolveReached:
            assert written == []
            return
        except SystemExit as stop:
            assert stop.code == 2
            return
    lines = stderr.getvalue().splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("config error: "), lines
