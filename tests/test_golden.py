"""Golden runs: two small checked-in experiments whose per_fold.csv, means.csv
and report.txt must not move. ``golden/config.yaml`` runs three arms with one
hidden layer; ``golden/all_kinds/config.yaml`` runs all eight scheduler kinds at
switch epochs 3, 4 and 6, so some epochs put arms at λ = 0 beside blended ones,
with two hidden layers, so the backward pass goes through a middle layer.

The expected files were produced by this package on CPython 3.11, numpy 2.x
with OpenBLAS. A refactor must reproduce them byte for byte. An intended
numeric change regenerates them, and the reason is recorded with the change.
If they differ on another CPU or BLAS build, report that; the comparison
stays exact. Two tests re-run both golden configs with numpy's SIMD dispatch
held to its baseline and with OpenBLAS's Haswell kernels, the settings in
which an x86-64 machine stands in for an older one.
"""

import ctypes
import glob
import inspect
import os
import platform
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import curricula
from curricula import cli
from curricula.harness import Arm, parse_config, render_report, run_experiment

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FILES = ("per_fold.csv", "means.csv", "report.txt")
# Each directory holds a config.yaml and the GOLDEN_FILES it produced.
GOLDEN_DIRS = (GOLDEN, GOLDEN / "all_kinds")


def test_golden_per_fold_csv_is_byte_identical(tmp_path):
    # 3 arms x 3 folds x 10 epochs on 150 samples, and 8 arms x 3 folds x 8
    # epochs on 108; means.csv and report.txt too
    for golden in GOLDEN_DIRS:
        out = tmp_path / golden.name
        render_report(run_experiment(parse_config(golden / "config.yaml")), out)
        for name in GOLDEN_FILES:
            assert (out / name).read_bytes() == (golden / name).read_bytes(), (golden.name, name)


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


def openblas_configs() -> list[str]:
    """The config string of each OpenBLAS bundled with numpy (as scipy-openblas)."""
    configs = []
    for lib_path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so")):
        get_config = getattr(ctypes.CDLL(lib_path), "scipy_openblas_get_config64_", None)
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            configs.append(get_config().decode())
    return configs


def active_dispatch_features() -> list[str]:
    """numpy's non-baseline SIMD dispatch targets that this CPU runs."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


# The child's check that a setting took effect, by the variable that sets it.
SETTING_CHECKS = {
    "NPY_DISABLE_CPU_FEATURES": "from numpy._core._multiarray_umath import __cpu_features__\n"
    "named = os.environ['NPY_DISABLE_CPU_FEATURES'].split()\n"
    "assert not any(__cpu_features__[f] for f in named), named\n",
    "OPENBLAS_CORETYPE": inspect.getsource(openblas_configs)
    + "configs = openblas_configs()\n"
    "assert configs and all('Haswell' in c.split() for c in configs), configs\n",
}


@pytest.mark.parametrize("variable", SETTING_CHECKS)
def test_golden_run_holds_on_an_older_cpu_and_blas_core(tmp_path, variable):
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip(f"the dispatch targets and the Haswell core are x86-64's; this is {platform.machine()}")
    if not openblas_configs():
        pytest.skip("numpy does not bundle scipy-openblas here, so its core cannot be named or checked")
    value = " ".join(active_dispatch_features()) if variable == "NPY_DISABLE_CPU_FEATURES" else "Haswell"
    script = (
        "import ctypes, glob, os\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        f"{SETTING_CHECKS[variable]}"
        "from curricula import cli\n"
        f"for config, out in {[(str(g / 'config.yaml'), str(tmp_path / g.name)) for g in GOLDEN_DIRS]!r}:\n"
        "    assert cli.main(['run', '--config', config, '--out', out]) == 0, config\n"
    )
    src = str(Path(curricula.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env[variable] = value
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
    for golden in GOLDEN_DIRS:
        for name in GOLDEN_FILES:
            assert (tmp_path / golden.name / name).read_bytes() == (golden / name).read_bytes(), (golden.name, name)


def test_golden_run_from_its_generated_csv(tmp_path, monkeypatch):
    # the golden data written by gen-data and read back through load_csv give the same folds and fits
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-data", "--config", str(GOLDEN / "config.yaml"), "--out", "data.csv"]) == 0
    config = yaml.safe_load((GOLDEN / "config.yaml").read_text())
    config["data"] = {"csv": "data.csv"}
    Path("csv.yaml").write_text(yaml.safe_dump(config))
    assert cli.main(["run", "--config", "csv.yaml", "--out", "out"]) == 0
    assert Path("out/per_fold.csv").read_bytes() == (GOLDEN / "per_fold.csv").read_bytes()


def per_fold_rows(config, out_dir) -> dict[str, list[str]]:
    """The run's per_fold.csv rows, without the arm column, by arm name."""
    render_report(run_experiment(config), out_dir)
    rows: dict[str, list[str]] = {}
    for line in (out_dir / "per_fold.csv").read_text().splitlines()[1:]:
        arm, rest = line.split(",", 1)
        rows.setdefault(arm, []).append(rest)
    return rows


def run_on_edited_golden_csv(tmp_path, edit) -> bytes:
    """per_fold.csv of the golden config run on its data as gen-data writes it,
    with the list of data lines (header excluded) passed through ``edit``."""
    data_csv = tmp_path / "data.csv"
    assert cli.main(["gen-data", "--config", str(GOLDEN / "config.yaml"), "--out", str(data_csv)]) == 0
    header, *rows = data_csv.read_text().splitlines()
    data_csv.write_text("\n".join([header, *edit(rows)]) + "\n")
    config = replace(parse_config(GOLDEN / "config.yaml"), synth=None, csv_path=data_csv)
    render_report(run_experiment(config), tmp_path / "out")
    return (tmp_path / "out" / "per_fold.csv").read_bytes()


def test_golden_run_does_not_depend_on_the_csv_row_order(tmp_path):
    def shuffled(rows):
        random.Random(0).shuffle(rows)
        return rows

    assert run_on_edited_golden_csv(tmp_path, shuffled) == (GOLDEN / "per_fold.csv").read_bytes()


def test_golden_run_does_not_depend_on_an_id_offset(tmp_path):
    def shifted(rows):
        return [f"{int(row.split(',', 1)[0]) + 10**12},{row.split(',', 1)[1]}" for row in rows]

    assert run_on_edited_golden_csv(tmp_path, shifted) == (GOLDEN / "per_fold.csv").read_bytes()


def test_each_arms_golden_rows_do_not_depend_on_the_other_arms(tmp_path):
    config = parse_config(GOLDEN / "config.yaml")
    golden = per_fold_rows(config, tmp_path / "golden")
    assert (tmp_path / "golden" / "per_fold.csv").read_bytes() == (GOLDEN / "per_fold.csv").read_bytes()
    assert per_fold_rows(replace(config, arms=config.arms[::-1]), tmp_path / "reversed") == golden
    for arm in config.arms:
        assert per_fold_rows(replace(config, arms=(arm,)), tmp_path / arm.name) == {arm.name: golden[arm.name]}
    again = Arm(name="linear_again", spec=config.arms[1].spec)
    repeated = per_fold_rows(replace(config, arms=(*config.arms, again)), tmp_path / "repeated")
    assert repeated == {**golden, "linear_again": golden["linear"]}
