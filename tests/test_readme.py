"""README's command examples run as written, and README names no
private function.

Each `coverpebble ...` line of README's fenced blocks goes through
cli.run_cli, in order and in one directory, so `gen --out w4.txt` makes
the file the later `--graph w4.txt` reads.  Every example exits 0,
except the one whose text says it exits 1.
"""

import pathlib
import re
import shlex

from coverpebble.cli import run_cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# the wheel 5 stack one short that the search refutes in 222 states
UNSOLVABLE = "coverpebble solve --family wheel --n 5 --config \"0 14 0 0 0 0\" --budget 1000"


def _examples():
    fenced = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("coverpebble "):
            yield line


def test_every_readme_example_exits_as_its_text_says(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = list(_examples())
    assert len(examples) == 13 and UNSOLVABLE in examples, examples
    for line in examples:
        code = run_cli(shlex.split(line)[1:])
        out = capsys.readouterr().out
        if line == UNSOLVABLE:
            assert code == 1 and "unsolvable" in out and "states=222" in out, (line, code, out)
        else:
            assert code == 0, (line, code, out)


def test_readme_names_no_private_function():
    # a private function's docstring owns its rule; README points there
    prose = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    private = [span for span in spans if re.search(r"(?<![\w.])(?:\w+\.)*_[^\W_]", span)]
    assert not private, private
