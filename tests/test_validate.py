"""The runtime validation suite checks the cone it was asked about."""

import pytest

import hivekron.validate as V
from hivekron.errors import OutOfRange


def test_full_oracle_sweep_runs_on_the_requested_cone(monkeypatch):
    results = []
    real = V.kronecker

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        results.append(res)
        return res
    monkeypatch.setattr(V, "kronecker", spy)
    checks = V.run_validation(3, 3, "full")
    assert all(c["ok"] for c in checks)
    assert results
    assert all((res.l, res.m) == (3, 3) for res in results)


@pytest.mark.parametrize("level", ["Full", "QUICK", "", None])
def test_unknown_level_is_out_of_range(level):
    # "Full" would otherwise run the quick checks and report ok at "Full"
    with pytest.raises(OutOfRange, match="level must be 'quick' or 'full'"):
        V.run_validation(2, 2, level=level)
