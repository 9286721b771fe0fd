"""README: the documented library example and config run against the package as built."""

import json
import re
from pathlib import Path

from proxiq import harness

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
