"""README's library quick tour runs as printed, so a renamed public name fails here."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_runs(monkeypatch):
    # the tour loads its curves from curves.npy; hand it 400 seeded load-like curves
    values = np.random.default_rng(16).standard_gamma(2.0, size=(400, 48))
    monkeypatch.setattr(np, "load", lambda *args, **kwargs: values)
    namespace = {}
    exec(compile(_quick_tour(), str(README), "exec"), namespace)
    assert namespace["fit"].converged and namespace["est"].converged
    assert namespace["var"].values.shape == (48,)
