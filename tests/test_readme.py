import doctest
import json
import shlex
from pathlib import Path

from collidersim.cli import _config_dict, main
from collidersim.oracle import OracleConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    # a blank line must close each pycon block's last output, or doctest
    # reads the closing fence as expected output
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_config_file_example_loads(tmp_path, capsys):
    # the documented keys are the ones --config reads: an unknown key exits 2,
    # and the example leaves none of a run's config block out
    section = README.read_text(encoding="utf-8").split("### Config files", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert sorted(json.loads(example)) == sorted(_config_dict(OracleConfig()))
    path = tmp_path / "run.json"
    path.write_text(example, encoding="utf-8")
    code = main(["estimate", "--mass", "rational:1/3", "--k", "1", "--config", str(path)])
    assert capsys.readouterr().err == ""
    assert code == 0


def test_shell_examples_exit_as_documented(tmp_path, monkeypatch, capsys):
    # every collidersim line of the CLI examples, the advice one reading the
    # Advice tables section's example table as table.tsv
    text = README.read_text(encoding="utf-8")
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    table = text.split("### Advice tables", 1)[1].split("```\n", 2)[1]
    (tmp_path / "table.tsv").write_text(table, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    codes = []
    for line in block.splitlines():
        if line.startswith("collidersim "):
            codes.append(main(shlex.split(line)[1:]))
            assert capsys.readouterr().err == ""
    # the adversarial mass defeats its schedule: the measurement times out
    assert codes == [0, 0, 3, 0, 0]
