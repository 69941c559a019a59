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

    originals = (ucyclic.cli.factor_xn_minus_1, ucyclic.cli.top_distance,
                 CyclicCode.__dict__["dual"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ucyclic.cli.main(["factor", "--p", "2", "--n", "3"]) == 0
        assert "gfp.factor_xn_minus_1.calls" in tracer.counts
        # one distance for the analyzed code, one per distinct top generator (7)
        assert ucyclic.cli.main(["analyze", "--p", "2", "--k", "1", "--n", "4",
                                 "--gen", "x^2+1"]) == 0
        assert ucyclic.cli.main(["enumerate", "--p", "2", "--k", "2", "--n", "7"]) == 0
        assert tracer.counts["distance.top_distance.calls"] == 8
    finally:
        tracer.uninstall()
    assert (ucyclic.cli.factor_xn_minus_1, ucyclic.cli.top_distance,
            CyclicCode.__dict__["dual"]) == originals
    capsys.readouterr()
