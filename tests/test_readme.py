"""README's module table lists the public surface and nothing else, and its
config example is a config that ``parse_config`` accepts.

Every backticked name in the table's contents column must be exported in
``curricula.__all__`` or named in ``NOT_IN_ALL`` below with the reason it
may appear anyway. A call written out, such as ``ModelParams(layer_sizes,
flat)``, counts as the name before its parenthesis.
"""

import re
from pathlib import Path

import curricula
from curricula.harness import parse_config
from curricula.scheduler import KINDS

README = Path(__file__).resolve().parents[1] / "README.md"

NOT_IN_ALL = {
    **{kind: "a scheduler kind, a value of SchedulerSpec.kind" for kind in KINDS},
    "weights": "an attribute of ModelParams",
    "biases": "an attribute of ModelParams",
    "resolved_seeds": "harness.resolved_seeds, documented with the command line",
}


def table_names() -> list[str]:
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| module | contents |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[2])
    assert rows
    return [re.match(r"\w+", span).group() for row in rows for span in re.findall(r"`([^`]+)`", row)]


def test_module_table_names_only_the_public_surface():
    names = table_names()
    assert {"Dataset", "evaluate", "run_experiment"} <= set(names)
    stray = [name for name in names if name not in curricula.__all__ and name not in NOT_IN_ALL]
    assert not stray, f"README's module table names {stray}, which are not in curricula.__all__"


def test_config_example_parses(tmp_path):
    # the example is the schema's documentation, so every key it shows must be accepted
    text = README.read_text(encoding="utf-8")
    block = text.split("## Config schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.yaml"
    path.write_text(block, encoding="utf-8")
    config = parse_config(path)
    assert [arm.name for arm in config.arms] == ["constant_zero", "linear-early", "exponential"]
    assert config.arms[2].spec.exp_floor == 1e-3
