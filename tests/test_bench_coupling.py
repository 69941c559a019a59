"""The traced benchmark's coupling to the package.

`bench/tracing.py` wraps the package's public functions, and the class
methods it names in `CLASS_METHODS`, by name.  A library change that breaks
that lookup fails here rather than at the next traced benchmark run.  The
test only reads `bench/`.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import ucyclic.cli
    from ucyclic.code import CyclicCode

    originals = (ucyclic.cli.factor_xn_minus_1, CyclicCode.__dict__["dual"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ucyclic.cli.main(["factor", "--p", "2", "--n", "3"]) == 0
        assert "gfp.factor_xn_minus_1.calls" in tracer.counts
    finally:
        tracer.uninstall()
    assert (ucyclic.cli.factor_xn_minus_1, CyclicCode.__dict__["dual"]) == originals
    capsys.readouterr()
