import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import mmsqc

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src"


def test_top_level_exports_match_readme_example():
    """`mmsqc` exports exactly the names README's library example imports."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    imported = re.search(r"from mmsqc import \((.*?)\)", block, re.DOTALL).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert names == set(mmsqc.__all__)
    for name in names:
        assert getattr(mmsqc, name).__name__ == name


def test_cold_start_loads_only_what_the_caller_uses():
    """`import mmsqc` imports no stage module; each exported name imports
    its own module on first access. Run in a fresh interpreter, since this
    test session has imported every module already."""
    probe = textwrap.dedent("""
        import sys
        import mmsqc
        loaded = lambda: {name for name in sys.modules if name.startswith("mmsqc.")}
        assert loaded() == set(), loaded()
        assert set(mmsqc.__all__) <= set(dir(mmsqc))
        try:
            mmsqc.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("an unknown attribute resolved")
        mmsqc.build_model("I")
        assert "mmsqc.models" in sys.modules
        for name in ("mmsqc.sqc", "mmsqc.dataset", "mmsqc.surrogate", "mmsqc.analysis",
                     "concurrent.futures"):
            assert name not in sys.modules, name
        assert "build_model" in vars(mmsqc)   # resolved once, then cached
        from mmsqc import sqc
        assert mmsqc.run_ensemble is sqc.run_ensemble
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
