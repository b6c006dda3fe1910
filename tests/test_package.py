import re
from pathlib import Path

import mmsqc

README = Path(__file__).resolve().parent.parent / "README.md"


def test_top_level_exports_match_readme_example():
    """`mmsqc` exports exactly the names README's library example imports."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    imported = re.search(r"from mmsqc import \((.*?)\)", block, re.DOTALL).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert names == set(mmsqc.__all__)
    for name in names:
        assert getattr(mmsqc, name).__name__ == name
