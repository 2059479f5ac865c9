"""Every config gets a documented exit: a property test over the config keys.

Configs are drawn key by key from valid values, boundary values and
corruptions (NaN, +-inf, 0, negative values, 1e300, wrong list lengths,
empty values), and each is run through ``cli.main`` in-process on a small
run.  Whatever the config, a command must end promptly with a documented
exit code, report a refusal on one ``error:`` line, warn nothing and leave
no output directory behind.  A refusal that advises a value for a key must
give advice that works: with that value applied, ``allocate`` exits 0 and
warns nothing.  Where a full run would simulate paths or value a lattice at
the node budget (``simulate``, and the node budget's own refusal), the
checks that precede that work must pass instead.
"""
import os
import re
import signal
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

from gridhedge import cli
from gridhedge.config import load_scenario_config
from gridhedge.errors import (
    DegenerateVolatilityWarning,
    GridHedgeError,
    RankDeficientWarning,
    TreeTooLarge,
)
from gridhedge.lattice import RecombiningLattice, calibrate_step_model

EXITS = {0, 2, 3, 4, 5}

# a warning the package documents; any other, a RuntimeWarning above all, is a defect
DOCUMENTED_WARNINGS = (RankDeficientWarning, DegenerateVolatilityWarning)

# a command that runs longer than this is a hang, not a slow small run
DEADLINE_S = 20

CORRUPT = ["nan", "inf", "-inf", "0", "1e300", "-1e300"]


def numbers(valid):
    """One number: a valid one, its negation, or a corruption."""
    return st.sampled_from([*valid, *(f"-{v}" for v in valid), *CORRUPT])


def lists(valid):
    """A comma-separated list, usually one entry per grid."""
    return st.lists(numbers(valid), min_size=0, max_size=3).map(", ".join) | st.just(
        ", ".join(valid)
    )


def integers(valid, corrupt):
    """One integer key's text: a valid value, a corruption or a non-integer."""
    return st.sampled_from([*valid, *corrupt, "", "1.5", "nan"])


# key: its pool of values, valid ones among them
KEYS = {
    "mu": lists(["0.006", "0.005"]),
    "sigma": lists(["0.03", "0.04", "1e-12"]),
    "correlation": st.sampled_from(
        ["0.6", "0", "1", "-1", "0.999", "1.5", "nan", "inf", "", "1,0.6;0.6,1",
         "1,0.6", "1,2;2,1", "1,nan;nan,1", "1,0.6;0.6"]
    ),
    "demand_kw": lists(["20", "25"]),
    "initial_kw": lists(["20", "25"]),
    "battery_unit_kw": numbers(["1", "0.5"]),
    "horizon_hours": numbers(["5", "0.25", "1e6"]),
    "rebalance_steps": integers(["1", "2", "5"], ["0", "-1", "4000", str(10**30)]),
    "n_paths": integers(["1", "2", "50"], ["0", "-5", str(10**30)]),
    "seed": integers(["0", "42", "4294967295"], ["-1", "4294967296"]),
    "n_resamples": integers(["100"], ["99", "0", "-1", str(2**32), str(10**30)]),
    "max_simulated_paths": integers(["50", "40000"], ["49", "0", str(10**30)]),
    "case_filter": st.sampled_from(["", "ge,lt", "ge,ge", "lt,lt", "ge", "ge,lt,ge", "up,lt"]),
}

VALID = {
    "mu": "0.006, 0.005",
    "sigma": "0.03, 0.04",
    "correlation": "0.6",
    "demand_kw": "20, 25",
    "initial_kw": "20, 25",
    "battery_unit_kw": "1",
    "horizon_hours": "5",
    "rebalance_steps": "5",
    "n_paths": "50",
    "seed": "42",
    "n_resamples": "100",
    "max_simulated_paths": "40000",
    "case_filter": "",
}


COMMANDS = {
    "ces": ["allocate", "{config}", "--mode", "ces"],
    "tes": ["allocate", "{config}", "--mode", "tes"],
    "simulate": ["simulate", "{config}", "--out", "{out}"],
}


def config_text(**drawn):
    """The valid config with the drawn values in place of its own."""
    return "".join(f"{key} = {drawn.get(key, value)}\n" for key, value in VALID.items())


@st.composite
def configs(draw):
    """Config text: the valid config with up to three keys drawn from their pools."""
    keys = draw(st.sets(st.sampled_from(sorted(KEYS)), max_size=3))
    return config_text(**{key: draw(KEYS[key]) for key in sorted(keys)})


class Hang(Exception):
    """A command ran past DEADLINE_S."""


def _alarm(signum, frame):
    raise Hang(f"a command ran past {DEADLINE_S} s")


# a refusal may advise a key with no value only where none can be estimated
NO_VALUE = {"sigma": "lower sigma", "max_simulated_paths": "no path matched"}


def run_drawn(capsys, text, command, allowed=DOCUMENTED_WARNINGS):
    """Run one command on config text, check its documented exit; (code, refusal).

    The refusal is the package error the command reported, or None.
    """
    refusals = []

    def recording(run):
        def recorded(args):
            try:
                return run(args)
            except GridHedgeError as exc:
                refusals.append(exc)
                raise
        return recorded

    with tempfile.TemporaryDirectory(prefix="config_space_") as tmp:
        config = Path(tmp) / "drawn.cfg"
        config.write_text(text)
        out = Path(tmp) / "out" / "run"
        argv = [arg.format(config=config, out=out) for arg in COMMANDS[command]]
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(DEADLINE_S)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    mock.patch.object(cli, "_cmd_allocate", recording(cli._cmd_allocate)), \
                    mock.patch.object(cli, "_cmd_simulate", recording(cli._cmd_simulate)):
                warnings.simplefilter("always")
                warnings.simplefilter("error", RuntimeWarning)
                code = cli.main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        streams = capsys.readouterr()
        assert code in EXITS, (code, text, streams.err)
        assert "Traceback" not in streams.err
        assert all(issubclass(w.category, allowed) for w in caught), text
        if code:
            assert streams.err.startswith("error: "), streams.err
            assert streams.err.count("\n") == 1, streams.err
            assert not os.path.lexists(out.parent), text
        else:
            assert streams.err == ""
    return code, (refusals or [None])[0]


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(text=configs(), command=st.sampled_from(sorted(COMMANDS)))
# the draws that found a RuntimeWarning, each now refused with exit 2
@example(text=config_text(demand_kw="20, 1e300"), command="tes")
@example(text=config_text(initial_kw="20, 1e300"), command="simulate")
@example(text=config_text(sigma="0.03, 1e300"), command="ces")
@example(text=config_text(mu="-1e300, 0"), command="simulate")
# an up factor exp(h) that overflowed gave NaN weights, or the ladders warned
@example(text=config_text(sigma="0.03, 1e150"), command="tes")
@example(
    text=config_text(sigma="0.03, 1e150", horizon_hours="1e-150", rebalance_steps="3000"),
    command="tes",
)
@example(
    text=config_text(sigma="0.03, 17", correlation="0", rebalance_steps="100"), command="tes"
)
# the one-root headroom overflowed benignly, yet warned; 376 steps are what
# the refusal at 1e6 h advises
@example(text=config_text(horizon_hours="1e6", rebalance_steps="376"), command="tes")
# refusals that advise a value, which is then applied
@example(text=config_text(horizon_hours="1e300"), command="tes")
@example(text=config_text(horizon_hours="1e6"), command="simulate")
@example(text=config_text(rebalance_steps="4000"), command="tes")
# the node budget's refusal advised 3161 steps, which do not calibrate: at
# correlation 1 no step count does, and at 0.999 over 1000 h only 1 to 4 do
@example(text=config_text(correlation="1", rebalance_steps=str(10**30)), command="tes")
@example(
    text=config_text(correlation="0.999", horizon_hours="1000", rebalance_steps="30000"),
    command="tes",
)
@example(text=config_text(case_filter="lt,lt", max_simulated_paths="50"), command="simulate")
def test_every_config_gets_a_documented_exit(capsys, text, command):
    code, refusal = run_drawn(capsys, text, command)
    if refusal is None or refusal.key is None:
        return
    if refusal.value is None:
        assert NO_VALUE[refusal.key] in str(refusal), (text, str(refusal))
        return
    advised = re.sub(rf"^{refusal.key} = .*$", f"{refusal.key} = {refusal.value!r}", text,
                     flags=re.MULTILINE)
    if command == "simulate" or isinstance(refusal, TreeTooLarge):
        # the checks that come before any path is drawn or any lattice is
        # valued: simulate exits 3 only where the first refuses, and a run
        # at the node budget the second advises takes seconds
        with tempfile.TemporaryDirectory(prefix="config_space_") as tmp:
            config = Path(tmp) / "advised.cfg"
            config.write_text(advised)
            loaded = load_scenario_config(config)
        grid, steps = loaded.grid, loaded.rebalance_steps
        model = calibrate_step_model(grid, loaded.horizon_hours / steps,
                                     horizon=loaded.horizon_hours)
        RecombiningLattice(model, grid.demands, steps, grid.battery_unit_kw)
    else:
        code, again = run_drawn(capsys, advised, command, allowed=())
        assert code == 0, (advised, str(again))


def test_the_valid_config_runs(tmp_path, capsys):
    # the config each drawn one starts from runs every command
    config = tmp_path / "valid.cfg"
    config.write_text(config_text())
    for name, args in COMMANDS.items():
        argv = [arg.format(config=config, out=tmp_path / name) for arg in args]
        assert cli.main(argv) == 0, (name, capsys.readouterr().err)
