"""The scripts/ entry points: each imports, every command of its RUNS passes
every CLI check, and the desk config plans."""

import importlib.util
import sys
from pathlib import Path

import pytest

import sparsq.solvers
from sparsq import bench, cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCRIPT_PATHS = sorted(SCRIPTS.glob("*.py"))


def _load(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # not __main__, so main() does not run
    return module


class _SolveReached(Exception):
    pass


def _refuse(*args, **kwargs):
    raise _SolveReached


@pytest.mark.parametrize("path", SCRIPT_PATHS, ids=lambda p: p.name)
def test_script_imports_without_running(path, monkeypatch):
    module = _load(path, monkeypatch)
    assert callable(module.main)
    assert module.RUNS


@pytest.mark.parametrize("path", SCRIPT_PATHS, ids=lambda p: p.name)
def test_script_runs_pass_every_check_before_the_first_solve(path, monkeypatch):
    # every solver runs solvers._iterate, and the CLI checks every cell of a
    # run before its first solve and writes its files after the last: a run
    # that reaches the stub has passed every check and written nothing
    module = _load(path, monkeypatch)
    written = []
    monkeypatch.setattr(cli, "_write", lambda out, text: written.append(out))
    monkeypatch.setattr(sparsq.solvers, "_iterate", _refuse)
    for argv in module.RUNS:
        with pytest.raises(_SolveReached):
            cli.main(argv)
    assert written == []


def test_cs_desk_config_plans_every_cell_without_a_solve(monkeypatch):
    monkeypatch.setattr(sparsq.solvers, "_iterate", _refuse)
    cfg = bench.load_config(str(SCRIPTS / "cs_desk.ini"))
    (cells,) = bench._plan_cells([cfg])
    assert len(cells) == len(cfg.seeds) * len(cfg.algorithms) == 30
    assert [(seed, spec.kind) for seed, _, _, spec, _ in cells[:6]] == [
        (0, "hv"), (0, "pg"), (0, "fista"), (0, "st"), (0, "ista"), (0, "ht")]


def test_deblur_n125_desk_search_lands_on_its_pinned_radius():
    # The n=125 search of scripts/deblur_n125.ini (noise seed 0), as
    # `sparsq radius-search` runs it.  Every decision has at least 0.2% of
    # margin to the band, so BLAS rounding cannot turn one
    cfg = bench.load_config(str(SCRIPTS / "deblur_n125.ini"))
    out, _ = bench.radius_search(cfg)
    assert (out.radius.radius_sq, out.bracketed) == (11041260.544799807, True)
