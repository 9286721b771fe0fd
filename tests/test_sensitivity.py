"""Sensitivity table: planted defects, and the check that catches each.

Each test plants one defect on the fig1 instance (logsum, n = 64, N = 128,
radius 4) over the degrees {0, 0.5, 1} and noise bounds {0.1, 1, 3}, runs
the check meant to catch it on the honest setting and on the planted one,
and prints one line per defect (visible with pytest -s).  The honest run
must pass the check, so a check that flags everything catches nothing.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np

from proxiq import cli, harness, rates


def _report(defect, check, caught):
    print(f"[sensitivity] {defect}: {check}: {'CAUGHT' if caught else 'MISSED'}")
    assert caught, f"{check} misses the defect: {defect}"


def _config(out, iterations=1000):
    return {"version": 1, "output_dir": str(out),
            "problem": {"family": "logsum", "n": 64, "N": 128, "radius": 4.0, "seed": 0},
            "oracle": {"degrees": [0.0, 0.5, 1.0], "noise_bounds": [0.1, 1.0, 3.0]},
            "solver": {"iterations": iterations, "step_scale": 0.5},
            "repeats": 1, "master_seed": 0}


def test_noise_beyond_its_claim_is_refuted_by_certify(tmp_path, understate_claims):
    # the planted oracles claim a tenth of the noise each draws
    codes, refuted = {}, {}
    for name in ("honest", "planted"):
        if name == "planted":
            understate_claims(0.1)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_config(tmp_path / name)))
        with redirect_stdout(io.StringIO()):  # the CLI prints certification.txt
            codes[name] = cli.main(["certify", str(path), "--pairs", "300"])
        lines = (tmp_path / name / "certification.txt").read_text().splitlines()
        refuted[name] = sum(" REFUTED:" in line for line in lines)
    assert codes["honest"] == 0 and refuted["honest"] == 0
    _report("noise 10x beyond its claim",
            f"certify refutes {refuted['planted']} of 9 cells, exit {codes['planted']}",
            codes["planted"] == 2 and refuted["planted"] > 0)


def test_understated_bound_curve_is_not_dominated(tmp_path, monkeypatch):
    config = harness.parse_config(_config(tmp_path / "honest"))
    honest = harness.run_experiment(config)
    assert all(cell.dominated for cell in honest)
    real = rates.bound_nonconvex_const
    monkeypatch.setattr(rates, "bound_nonconvex_const",
                        lambda *args: 1e-3 * real(*args))
    planted = harness.run_experiment(harness.parse_config(_config(tmp_path / "planted")))
    flagged = sum(not cell.dominated for cell in planted)
    # the plant moves the bound only: every trace is the honest one
    for a, b in zip(honest, planted):
        assert np.array_equal(a.trace.gm_sq, b.trace.gm_sq)
    _report("bound curve scaled x1e-3", f"{flagged} of 9 cells not dominated", flagged > 0)
