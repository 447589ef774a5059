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


def example(opening: str) -> list[str]:
    """The lines of README's one example block whose first line opens with `opening`."""
    pattern = rf"^ *```\n( *{re.escape(opening)}.*?)^ *```"
    [block] = re.findall(pattern, README.read_text(encoding="utf-8"), re.S | re.M)
    return [line.strip() for line in block.splitlines()]


def write_samples_example(root: Path) -> tuple[Path, Path]:
    """README's samples.jsonl in `root`, a schema made from its labels and random float columns.

    Returns the samples and schema paths.
    """
    lines = example('{"meta": {"attributes"')
    meta = json.loads(lines[0])["meta"]
    rows = [json.loads(line) for line in lines[1:]]
    at = meta["columns"].index("concepts")
    # each attribute's levels: the labels the rows give it, in order
    levels = [dict.fromkeys(row[at][a] for row in rows) for a in range(len(meta["attributes"]))]
    schema = ConceptSchema.of(zip(meta["attributes"], levels))
    (root / "schema.json").write_text(json.dumps(schema.to_obj()))
    samples = root / "samples.jsonl"
    samples.write_text("".join(line + "\n" for line in lines))
    rng = np.random.default_rng(0)
    for key, width in (("embedding", 3), ("logits", 5)):
        np.save(root / meta[key], rng.standard_normal((len(rows), width)))
    return samples, root / "schema.json"


def test_samples_example_loads_and_saves_back_to_its_own_text(tmp_path):
    samples, schema = write_samples_example(tmp_path)
    rows = [json.loads(line) for line in samples.read_text().splitlines()[1:]]
    dataset = load_dataset(samples, None, schema)
    assert dataset.ids.tolist() == [row[0].encode() for row in rows]
    assert dataset.gold.tolist() == [-1 if row[2] is None else row[2] for row in rows]
    paths = save_dataset(dataset, tmp_path / "again")
    assert paths["samples"].read_text() == samples.read_text()


def test_pairs_example_edits_food_of_the_samples_example(tmp_path):
    samples, schema = write_samples_example(tmp_path)
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(line + "\n" for line in example('{"meta": {"columns": ["original_id"')))
    dataset = load_dataset(samples, pairs, schema)
    assert dataset.ids[dataset.pairs.edited].tolist() == [b"s000000__food__neg"]
    assert [name.tolist() for name in dataset.pair_names(0)] == ["s000000", "food", "pos", "neg"]
    paths = save_dataset(dataset, tmp_path / "again")
    assert paths["pairs"].read_text() == pairs.read_text()
