import pytest

from panelbayes import sampler


@pytest.fixture()
def safe_windows(monkeypatch):
    """One entry per `_Chain.sweep` call this process makes from now on, in
    call order: whether that window took the sweep's overflow-safe softplus
    form. A worker process's windows are not counted."""
    form, sweep, calls, windows = sampler._logaddexp_0, sampler._Chain.sweep, [], []

    def counted_form(x, out=None):
        calls.append(1)
        return form(x, out)

    def counted_sweep(chain, rng, n=1):
        before = len(calls)
        out = sweep(chain, rng, n)
        windows.append(len(calls) > before)
        return out

    monkeypatch.setattr(sampler, "_logaddexp_0", counted_form)
    monkeypatch.setattr(sampler._Chain, "sweep", counted_sweep)
    return windows
