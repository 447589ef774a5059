"""README's examples run as written."""

import json
import re
from pathlib import Path

import numpy as np

from mcce import ConceptSchema, load_dataset, save_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def samples_example() -> list[str]:
    """The lines of README's samples.jsonl example: the one block that opens with a meta line naming `attributes`."""
    pattern = r'^ *```\n( *\{"meta": \{"attributes".*?)^ *```'
    [block] = re.findall(pattern, README.read_text(encoding="utf-8"), re.S | re.M)
    return [line.strip() for line in block.splitlines()]


def test_samples_example_loads_and_saves_back_to_its_own_text(tmp_path):
    lines = samples_example()
    meta = json.loads(lines[0])["meta"]
    rows = [json.loads(line) for line in lines[1:]]
    at = meta["columns"].index("concepts")
    # each attribute's levels: the labels the rows give it, in order
    levels = [dict.fromkeys(row[at][a] for row in rows) for a in range(len(meta["attributes"]))]
    schema = ConceptSchema.of(zip(meta["attributes"], levels))
    (tmp_path / "schema.json").write_text(json.dumps(schema.to_obj()))
    samples = tmp_path / "samples.jsonl"
    samples.write_text("".join(line + "\n" for line in lines))
    rng = np.random.default_rng(0)
    for key, width in (("embedding", 3), ("logits", 5)):
        np.save(tmp_path / meta[key], rng.standard_normal((len(rows), width)))

    dataset = load_dataset(samples, None, tmp_path / "schema.json")
    assert dataset.ids.tolist() == [row[0] for row in rows]
    assert dataset.gold.tolist() == [-1 if row[2] is None else row[2] for row in rows]
    paths = save_dataset(dataset, tmp_path / "again")
    assert paths["samples"].read_text() == samples.read_text()
