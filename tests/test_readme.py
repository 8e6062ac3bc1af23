"""The README's command-line walkthrough and Python API example run as written and
print what they say."""

import ast
import pathlib
import re
import shlex

from quantdist.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"), re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    records = namespace["extract_records"](
        namespace["sentence"], namespace["config"], namespace["registry"]
    )
    assert [record[1:4] for record in records] == [
        ("ADJ", "fast", "car"),
        ("NOUN", "car", "drove"),
        ("VERB", "drove", ""),
    ]
    # the comment under the call in the second block lists these records in full
    comment = blocks[1].split("extract_records(sentence, config, registry)\n", 1)[1]
    assert ast.literal_eval("".join(line.lstrip("# ") for line in comment.splitlines())) == records
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[0].startswith("{'median': ")


def test_cli_walkthrough_prints_its_comments(tmp_path, monkeypatch, capsys):
    """Each ``# `` line under a ``quantdist`` command, but ``# ...``, is a line of its stdout."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text("utf-8"), re.M | re.S)
    (block,) = [block for block in blocks if "<<'EOF'" in block]
    corpus, commands = re.fullmatch(
        r"cat > corpus\.txt <<'EOF'\n(.*?)^EOF\n(.*)", block, re.M | re.S
    ).groups()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.txt").write_text(corpus, encoding="utf-8")
    outputs, checked = [], []
    for line in commands.splitlines():
        if line.startswith("quantdist "):
            assert main(shlex.split(line)[1:]) == 0, line
            outputs.append(capsys.readouterr().out.splitlines())
        elif line.startswith("# ") and line != "# ...":
            assert line[2:] in outputs[-1], line
            checked.append(line[2:])
    assert len(outputs) == 5
    assert checked == ["object: car (pos=UNKNOWN)", "median: 99.7 km/h", "range: 10-100 km/h", ">"]
