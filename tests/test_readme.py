"""The README's library example runs and prints the values it shows, and its command lines run."""

import shlex
from pathlib import Path

import pytest

from dimwitness.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first ``python`` code block under the README's "Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def command_lines() -> list[str]:
    """The ``dimwitness`` lines of the first code block under the README's "Command line" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("dimwitness ")]


def test_command_lines_run(monkeypatch, tmp_path):
    # in order, in one directory: a later line reads what an earlier one wrote
    monkeypatch.chdir(tmp_path)
    lines = command_lines()
    assert len(lines) == 7
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_library_example_gives_the_values_it_shows():
    code = library_example()
    namespace: dict = {}
    exec(code, namespace)
    dw, value = namespace["dw"], namespace["value"]
    assert "# 12.25" in code
    assert value == pytest.approx(12.25, abs=1e-12)
    assert namespace["same"] == pytest.approx(value, abs=1e-12)
    certified = dw.certify_dimension(dw.WitnessKind.QUADRATIC, 7, value)
    assert "\n# CertifiedDimensions(min_quantum_d=2, min_classical_d=3)\n" in code
    assert repr(certified) == "CertifiedDimensions(min_quantum_d=2, min_classical_d=3)"
    assert namespace["noisy"].empirical
