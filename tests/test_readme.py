"""The README's examples run: its config builds and its cinbench lines exit 0."""

import json
import re
import shlex
from pathlib import Path

from cinet.cli import main
from cinet.config import build_model

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def blocks(lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def test_readme_config_example_builds():
    (example,) = blocks("json")
    model = build_model(json.loads(example))
    assert model.out_frame_shape(tuple(json.loads(example)["input"]["shape"]))


def test_readme_cinbench_lines_exit_zero(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the lines name configs relative to the repository root
    (cli,) = [b for b in blocks("bash") if "\ncinbench " in b]
    lines = [ln for ln in cli.replace("\\\n", " ").splitlines() if ln.startswith("cinbench ")]
    assert len(lines) >= 3
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
