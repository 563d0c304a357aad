"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library'"
    return match.group(1)


def test_readme_library_example_runs():
    namespace: dict = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    assert namespace["report"].passed
    assert namespace["cert"].certified
    assert namespace["check"].holds
