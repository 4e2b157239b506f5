"""The runtime validation suite checks the cone it was asked about."""

import hivekron.validate as V


def test_full_oracle_sweep_runs_on_the_requested_cone(monkeypatch):
    results = []
    real = V.kronecker

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        results.append(res)
        return res
    monkeypatch.setattr(V, "kronecker", spy)
    rep = V.run_validation(3, 3, "full")
    assert rep.ok
    assert results
    assert all((res.l, res.m) == (3, 3) for res in results)
