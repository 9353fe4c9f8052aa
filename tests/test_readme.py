"""The README's python examples run against the library.

The fenced python blocks run in order in one namespace, as a reader
would type them: a later block uses names an earlier one defines
(``regime`` from the profile example).
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
