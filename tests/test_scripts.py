"""The scripts/ entry points: each imports, and the desk config plans."""

import importlib.util
import sys
from pathlib import Path

import pytest

from sparsq import bench

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_imports_without_running(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # not __main__, so main() does not run
    assert callable(module.main)


def test_cs_desk_config_plans_every_cell_without_a_solve(monkeypatch):
    import sparsq.solvers

    def refuse(*args, **kwargs):
        raise AssertionError("planning ran a solve")

    monkeypatch.setattr(sparsq.solvers, "_iterate", refuse)
    cfg = bench.load_config(str(SCRIPTS / "cs_desk.ini"))
    (cells,) = bench._plan_cells([cfg])
    assert len(cells) == len(cfg.seeds) * len(cfg.algorithms) == 20
    assert [(seed, spec.kind) for seed, _, _, spec, _ in cells[:4]] == [
        (0, "hv"), (0, "pg"), (0, "fista"), (0, "st")]
