"""The benchmark's tracer finds every genderfuse name it wraps.

A rename of a traced function would otherwise zero its per-layer metrics
without failing anything.
"""

from pathlib import Path

import genderfuse.cli  # noqa: F401  (imports every module the tracer patches)
from genderfuse import model, tensor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_without_missing_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (model.make_batch, model._char_summaries, tensor.Tensor.backward)
    restore, missing = tracing.install(tracing.Tracer())
    try:
        assert missing == []
        assert model.make_batch is not originals[0]
    finally:
        restore()
    assert (model.make_batch, model._char_summaries, tensor.Tensor.backward) == originals
