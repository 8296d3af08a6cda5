"""bench/tracing.py wraps qcap functions by name. test_bench_trace runs the
traced benchmark only where mpmath is installed; this test installs and
uninstalls the tracer without it, so a rename or deletion of a wrapped
name fails here too, and checks that uninstalling restores every
attribute the tracer replaced."""

import importlib.util
from pathlib import Path

import numpy as np

from qcap import bounds, channels, cli, infoquant, qcore, verify

ROOT = Path(__file__).resolve().parents[1]
OWNERS = (bounds, channels, cli, infoquant, qcore, verify, np.linalg,
          channels.QuantumChannel, infoquant._EnsembleObjective)


def _attributes():
    return [dict(vars(owner)) for owner in OWNERS]


def test_tracer_install_finds_every_name_and_uninstall_restores_it():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = _attributes()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # AttributeError on a name that is gone
        during = _attributes()
        replaced = {(owner, attr) for owner, attr, _ in tracer._undo}
    finally:
        tracer.uninstall()
    wrapped = {(owner, name) for owner, old, new in zip(OWNERS, before, during)
               for name in old if new[name] is not old[name]}
    assert (channels, "apply") in wrapped
    assert (channels.QuantumChannel, "__post_init__") in wrapped
    assert (infoquant, "minimize") in wrapped
    # every attribute the tracer replaced is one that OWNERS holds
    assert wrapped == replaced
    after = _attributes()
    for owner, old, new in zip(OWNERS, before, after):
        assert new.keys() == old.keys(), owner
        assert all(new[name] is old[name] for name in old), owner
