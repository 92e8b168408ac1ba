"""The README's library quick start runs as written, and its metric table
lists the harness's metrics."""

import re
from pathlib import Path

from hawkpath import harness

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", section("Library quick start"), re.S).group(1)
    exec(compile(block, "README.md: Library quick start", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_metrics_table_lists_the_metric_table_in_order():
    names = re.findall(r"^\| `(\w+)`", section("Metrics"), re.M)
    assert names == list(harness.METRICS)
