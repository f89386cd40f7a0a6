"""Examples must keep running: light smoke tests over the example mains."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize(
    "name",
    ["quickstart", "linear_solver", "particle_ring", "protocol_anatomy", "heat_diffusion"],
)
def test_example_imports(name):
    mod = load(name)
    assert callable(getattr(mod, "main", None)) or callable(
        getattr(mod, "eager_vs_rendezvous", None)
    )


def test_quickstart_runs(capsys):
    load("quickstart").main()
    out = capsys.readouterr().out
    assert "meiko/lowlatency" in out
    assert "104" in out  # the calibrated endpoint appears


def test_protocol_anatomy_threshold_sweep(capsys):
    mod = load("protocol_anatomy")
    mod.threshold_sweep()
    out = capsys.readouterr().out
    assert "threshold" in out and "180" in out


def test_protocol_anatomy_crossover(capsys):
    load("protocol_anatomy").eager_vs_rendezvous()
    assert "(paper adopted 180)" in capsys.readouterr().out


def test_linear_solver_small(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["linear_solver.py", "16"])
    load("linear_solver").main()
    out = capsys.readouterr().out
    assert "N=16" in out
    assert "e-" in out  # tiny residuals printed in scientific notation
