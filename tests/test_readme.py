"""The README's Python API example runs as written and returns what it says."""

import ast
import pathlib
import re

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
