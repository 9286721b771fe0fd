"""README: the documented library example and config run against the package as built."""

import json
import re
from dataclasses import fields, replace
from pathlib import Path

from proxiq import harness, rates

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README's library example has no python block"
    # the example ends with its own assertion, so running it is the check
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_readme_config_parses():
    # a config key the parser no longer knows cannot stay documented
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1, "README should document exactly one JSON config"
    harness.parse_config(json.loads(blocks[0]))


def test_readme_names_every_config_key():
    # the converse: a key the parser accepts cannot go undocumented.  Each
    # leaf field of the config's spec classes is a key of the JSON block or
    # a name in backticks
    text = README.read_text()
    block = json.loads(re.findall(r"```json\n(.*?)```", text, re.DOTALL)[0])
    named = set(re.findall(r"`([^`\n]+)`", text)) | set(block)
    named |= {key for value in block.values() if isinstance(value, dict) for key in value}
    specs = (harness.ExperimentConfig, harness.ProblemSpec, harness.OracleSpec,
             harness.SolverSpec)
    keys = {field.name for spec in specs for field in fields(spec)
            if not field.type.endswith("Spec")}
    assert keys - named == set()


def test_readme_names_every_curve_kind():
    # the rates kinds table of the command line section names exactly the
    # kinds the command takes, each with the parameter names it takes
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    documented = {re.fullmatch(r"\s*`(\w+)`\s*", kind).group(1):
                  tuple(re.findall(r"`(\w+)`", names)) for kind, names in rows}
    assert len(documented) == len(rows)
    assert documented == {kind: rates._CURVES[kind][1] for kind in rates.CURVE_KINDS}


def test_readme_states_the_sweep_split():
    # the README's one-process-per-cell rule names the threshold the sweep uses
    text = " ".join(README.read_text().split())
    rule = re.search(r"fewer than two cells per CPU whose `rows` matrix holds at least "
                     r"(\d+) MiB gets one chunk per cell", text)
    assert rule is not None, "README no longer states when a sweep forks one process per cell"
    assert int(rule.group(1)) * 2 ** 20 == harness._PER_CELL_ROWS_BYTES


def _documented_columns():
    """{file name as README writes it: header line} from its "Output files" list."""
    section = README.read_text().split("## Output files", 1)[1].split("\n## ", 1)[0]
    columns = {}
    for item in section.split("\n- ")[1:]:
        name = re.match(r"`([^`]+)`", item)
        header = re.search(r"columns\s+`([^`]+)`", item)
        if name and header:
            columns[name.group(1)] = header.group(1)
    return columns


def test_readme_output_columns_match_a_sweep(tmp_path):
    # the documented columns cannot drift from what a sweep writes; the
    # worst-case sweep writes the same files with a worst_ prefix and no
    # bound curves
    documented = _documented_columns()
    config = harness.parse_config({
        "version": 1, "output_dir": str(tmp_path / "plain"),
        "problem": {"n": 4, "N": 6, "radius": 1.0},
        "oracle": {"degrees": [0.5], "noise_bounds": [0.25]},
        "solver": {"iterations": 3}, "worst_case_directions": 2})
    harness.run_experiment(config)
    harness.run_worst_case(replace(config, output_dir=str(tmp_path / "worst")))
    trace_name = "trace_q{q}_delta{delta}_rep{r}.csv"
    files = {trace_name: trace_name.format(q=0.5, delta=0.25, r=0),
             "summary.csv": "summary.csv"}
    bounds = {"bound_q_delta.csv": "bound_q_delta.csv"}
    for run, prefix, expected in [("plain", "", {**files, **bounds}),
                                  ("worst", "worst_", files)]:
        out = tmp_path / run
        assert sorted(path.name for path in out.iterdir()) == \
            sorted(prefix + name for name in expected.values())
        for documented_name, name in expected.items():
            header = (out / (prefix + name)).read_text().splitlines()[0]
            assert header == documented[documented_name], prefix + name
