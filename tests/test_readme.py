"""README: the documented library example runs against the package as built."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README's library example has no python block"
    # the example ends with its own assertion, so running it is the check
    exec(compile(block.group(1), "README.md", "exec"), {})
