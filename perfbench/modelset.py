"""The models each workload parses during set-up.

This module is all that set-up covers besides importing qsdctl, so it
imports nothing else: `load(workload)` is what the set-up probe times
and what the benchmark calls before its first request.
"""

from __future__ import annotations

from pathlib import Path

import qsdctl

MODEL_DIR = Path(__file__).resolve().parent / "models"

# bundled model names, then model files of the benchmark's own
WORKLOAD_MODELS = {
    "spectral": (("logistic", "linear", "pure_death", "geometric"),
                 ("geometric_k1",)),
    "control": (("culling",), ("three_action",)),
    "montecarlo": (("culling", "linear"), ()),
}


def load(workload: str) -> dict[str, qsdctl.ModelSpec]:
    """Parse every model the workload uses, keyed by name."""
    builtin, own = WORKLOAD_MODELS[workload]
    models = {name: qsdctl.load_builtin(name) for name in builtin}
    for name in own:
        text = (MODEL_DIR / f"{name}.model").read_text()
        models[name] = qsdctl.parse_model(text, name=name)
    return models
