"""Golden run: a small checked-in experiment whose per_fold.csv must not move.

The expected file was produced by this package on CPython 3.11, numpy 2.x
with OpenBLAS. A refactor must reproduce it byte for byte. An intended
numeric change regenerates it, and the reason is recorded with the change.
If it differs on another CPU or BLAS build, report that; the comparison
stays exact.
"""

import os
import subprocess
import sys
from pathlib import Path

import yaml

import curricula
from curricula import cli
from curricula.harness import parse_config, render_report, run_experiment

GOLDEN = Path(__file__).parent / "golden"


def test_golden_per_fold_csv_is_byte_identical(tmp_path):
    # 3 arms x 3 folds x 10 epochs on 150 synthetic samples
    config = parse_config(GOLDEN / "config.yaml")
    render_report(run_experiment(config), tmp_path)
    assert (tmp_path / "per_fold.csv").read_bytes() == (GOLDEN / "per_fold.csv").read_bytes()


def test_golden_run_needs_no_scipy(tmp_path):
    # a None entry in sys.modules makes every import of scipy or a submodule raise ImportError
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from curricula.harness import parse_config, render_report, run_experiment\n"
        f"render_report(run_experiment(parse_config({str(GOLDEN / 'config.yaml')!r})), {str(tmp_path)!r})\n"
    )
    # the child imports curricula from where this process did, installed or not
    src = str(Path(curricula.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
    assert (tmp_path / "per_fold.csv").read_bytes() == (GOLDEN / "per_fold.csv").read_bytes()


def test_golden_run_from_its_generated_csv(tmp_path, monkeypatch):
    # the golden data written by gen-data and read back through load_csv give the same folds and fits
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-data", "--config", str(GOLDEN / "config.yaml"), "--out", "data.csv"]) == 0
    config = yaml.safe_load((GOLDEN / "config.yaml").read_text())
    config["data"] = {"csv": "data.csv"}
    Path("csv.yaml").write_text(yaml.safe_dump(config))
    assert cli.main(["run", "--config", "csv.yaml", "--out", "out"]) == 0
    assert Path("out/per_fold.csv").read_bytes() == (GOLDEN / "per_fold.csv").read_bytes()
