"""The README's Python quick start runs as written, and its scenario block loads."""

import re
from pathlib import Path

from homctl import load_scenario
from homctl.scenario import _KEYS, _REQUIRED

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (Python)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "trace.csv").stat().st_size > 0
    assert (tmp_path / "controller.json").exists()
    assert "all checks passed" in capsys.readouterr().out


def _scenario_block() -> str:
    section = README.read_text(encoding="utf-8").split("**Scenario file** (INI):", 1)[1]
    return re.search(r"```ini\n(.*?)```", section, re.S).group(1)


def _load_variant(tmp_path, block, pattern, line):
    """Load the block with the line matching ``pattern`` replaced by ``line``."""
    path = tmp_path / "scenario.ini"
    path.write_text(re.sub(pattern, line, block, count=1, flags=re.M), encoding="utf-8")
    return load_scenario(path)


def test_readme_scenario_block_loads_every_documented_integrator(tmp_path):
    block = _scenario_block()
    values = re.search(r"^# integrator = (.+?)\s+\(optional\)$", block, re.M).group(1).split(" | ")
    assert "dense" in values
    for value in values:
        # the dense mode refuses the block's noise and disturbance, so its
        # variant leaves the [perturbations] section out
        variant = block.split("[perturbations]")[0] if value == "dense" else block
        config = _load_variant(tmp_path, variant, r"^# integrator = .*$", f"integrator = {value}")
        assert config.integrator == value


def test_readme_scenario_block_loads_every_documented_disturbance(tmp_path):
    block = _scenario_block()
    spellings = re.search(r"^disturbance = .*?#\s*(.+)$", block, re.M).group(1).split(" | ")
    assert [s.split()[0] for s in spellings] == ["none", "matched_sin", "constant"]
    for spelling in spellings:
        config = _load_variant(tmp_path, block, r"^disturbance = .*$", f"disturbance = {spelling}")
        assert config.disturbance.kind == spelling.split()[0]


def test_readme_scenario_block_lists_the_readers_keys():
    # the documented format and the accepted one are one list; a key shown
    # commented out is optional, so the reader must not require it
    keys, optional, section = {}, set(), None
    for line in _scenario_block().splitlines():
        if match := re.match(r"\[(\w+)\]", line):
            section = match.group(1)
            keys[section] = set()
        elif match := re.match(r"(#\s*)?(\w+) = ", line):
            keys[section].add(match.group(2))
            if match.group(1):
                optional.add((section, match.group(2)))
    assert keys == {section: set(table) for section, table in _KEYS.items()}
    assert not optional & {(section, key) for section, required in _REQUIRED.items() for key in required}
