"""Run manifests: enough provenance to reproduce a command exactly.

Every CLI invocation that writes files also writes a manifest next to
them recording the argv, the seed, content hashes of the inputs it
read and the outputs it produced, and library versions.  Replaying the
recorded argv must reproduce the recorded output hashes bit for bit
(timestamps differ, hashes must not).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

import numpy

__all__ = ["file_sha256", "RunManifest"]


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@cache
def _version() -> str:
    """qsdctl's installed version, looked up once per process."""
    try:
        from importlib.metadata import version
        return version("qsdctl")
    except Exception:
        return "unknown"


def _versions() -> dict[str, str]:
    # scipy is imported here, not at the top: its version is all a
    # manifest needs, and `import scipy` alone loads none of scipy.linalg
    import scipy
    return {
        "qsdctl": _version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


@dataclass
class RunManifest:
    argv: list[str] = field(default_factory=lambda: list(sys.argv))
    seed: int | None = None
    started: str = field(default_factory=_now)
    finished: str | None = None
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    versions: dict[str, str] = field(default_factory=_versions)

    def add_input(self, path: str | Path):
        self.inputs[str(path)] = file_sha256(path)

    def add_output(self, path: str | Path):
        self.outputs[str(path)] = file_sha256(path)

    def as_json(self) -> str:
        body = {
            "argv": self.argv, "seed": self.seed,
            "started": self.started, "finished": self.finished,
            "inputs": self.inputs, "outputs": self.outputs,
            "versions": self.versions,
        }
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    def write(self, path: str | Path):
        self.finished = _now()
        Path(path).write_text(self.as_json())
