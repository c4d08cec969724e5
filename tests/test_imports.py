"""Cold-start footprint: scipy.linalg is loaded by the first factor.

Each check runs a fresh interpreter, since this one has long since
imported scipy.linalg through the test modules and their oracles.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

from qsdctl import build_generator, solve_qsd

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code: str) -> dict:
    """Run code in a new interpreter with src first on the path; it
    sets `out`, which comes back with whether scipy.linalg got loaded."""
    probe = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\nout = {{}}\n"
             f"{code}\nout['linalg'] = 'scipy.linalg' in sys.modules\n"
             "import json\nprint(json.dumps(out))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_leaves_linalg_out():
    assert fresh("import qsdctl, qsdctl.cli") == {"linalg": False}


def test_validate_leaves_linalg_out():
    out = fresh("from qsdctl.cli import main\n"
                "out['rc'] = main(['validate', 'culling'])")
    assert out == {"rc": 0, "linalg": False}


@pytest.mark.parametrize("rule", [[], ["--rule", "peak:5,0,1"]])
def test_simulate_leaves_linalg_out(tmp_path, rule):
    argv = ["simulate", "culling", "--x0", "3", "--seed", "7",
            "--samples", "20", "--out", str(tmp_path), *rule]
    out = fresh(f"from qsdctl.cli import main\nout['rc'] = main({argv!r})")
    assert out == {"rc": 0, "linalg": False}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == scipy.__version__


def test_first_factor_loads_linalg(culling):
    out = fresh("from qsdctl import build_generator, load_builtin, solve_qsd\n"
                "m = load_builtin('culling')\n"
                "out['lam'] = repr(solve_qsd(build_generator("
                "m, m.constant_control(0), 6)).lam)")
    lam = solve_qsd(build_generator(culling, culling.constant_control(0), 6)).lam
    assert out == {"lam": repr(lam), "linalg": True}
