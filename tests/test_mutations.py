"""The exit-code contract under structural mutation: each of a fixed, seeded
set of one-edit changes to one of the demo pipeline's input files, run
through a subcommand that reads it, exits 0 or 3, and an exit 3 names the
mutated file.

An edit replaces a JSON leaf or container, adds or deletes an object key,
or replaces a line's field, duplicates a line or cuts it short. An exit 0 on
a bad value cannot be judged here; the test claims only that no edit
reaches exit 4 or an error that does not say which file is at fault. A
defect it finds is mended and kept as a named test of its own in
`test_cli.py`; the seed never changes.
"""

import functools
import json
import random
import re

import pytest

from triagerl.cli import run_cli

from conftest import DEMO_CONFIG, run_pipeline, with_keys, write_demo_inputs
from test_cli import subcommand

SEED = 2031
TRIALS = 300

# Each input file's format, and the subcommands of `subcommand` that read it.
# One training epoch keeps `train`, the slowest reader, to about 0.1 s a run.
FORMATS = {"report": "json", "meta": "json", "checkpoint": "json", "warnings": "json lines",
           "features": "json lines", "labels": "lines", "splits": "lines", "outcomes": "lines",
           "verdicts": "lines", "config": "lines"}
READERS = {
    "report": ["ingest", "triage"],
    "meta": ["featurize", "triage"],
    "checkpoint": ["evaluate", "importance", "triage"],
    "warnings": ["split", "featurize", "train", "evaluate", "importance", "fuzz-validate"],
    "features": ["train", "evaluate", "importance"],
    "labels": ["split", "train", "evaluate", "report", "importance", "fuzz-validate"],
    "splits": ["train", "evaluate", "importance"],
    "outcomes": ["triage"],
    "verdicts": ["report"],
    "config": ["ingest", "split", "featurize", "train", "evaluate", "report", "importance",
               "fuzz-validate", "triage"],
}
# The files `subcommand` leaves out that a run of the subcommand may also read.
EXTRA_FLAGS = {"triage": ("--meta", "meta"), "fuzz-validate": ("--labels", "labels")}

# What a replaced JSON value or line field becomes.
JSON_VALUES = ["null", "true", "false", '"x"', '""', "-1", "0", "0.5", "2.9", "1e308", "-1e308",
               "1" + "0" * 400, "[]", "{}", "[1]", '{"a": 1}']
FIELDS = ["", "x", "-1", "0", "1", "0.5", "nan", "inf", "1e308", "1" + "0" * 400, "tp", "fp",
          "train", "test", "crash", "not_run", "-", "true"]

_DECODE = json.JSONDecoder().raw_decode
_BLANK = re.compile(r"[ \t\n\r]*")


def skip(text, i):
    """The first position at or after `i` that is not JSON white space."""
    return _BLANK.match(text, i).end()


def json_nodes(text, start, path, key_at, out):
    """Append (path, key_at, start, end, kind) for the JSON value at `start`
    in `text`, and then for each of its object members or its array's first
    three elements (later ones add nothing new, and a checkpoint's weight
    lists hold thousands); return the value's end. `key_at` is where the
    member's key starts, or None for an array element or the whole text."""
    end = _DECODE(text, start)[1]
    out.append((path, key_at, start, end, text[start]))
    if text[start] == "{":
        i = skip(text, start + 1)
        while text[i] == '"':
            key, after = _DECODE(text, i)
            value = skip(text, skip(text, after) + 1)  # past the ':'
            i = skip(text, json_nodes(text, value, (*path, key), i, out))
            i = skip(text, i + 1) if text[i] == "," else i
    elif text[start] == "[":
        i = skip(text, start + 1)
        for k in range(3):
            if text[i] == "]":
                break
            i = skip(text, json_nodes(text, i, (*path, k), None, out))
            i = skip(text, i + 1) if text[i] == "," else i
    return end


@functools.cache
def nodes_of(text):
    """The nodes `json_nodes` finds in `text`, one JSON document: found once per text."""
    nodes = []
    json_nodes(text, skip(text, 0), (), None, nodes)
    return nodes


def mutate_json(text, rng):
    """`text`, one JSON document, with one edit, and the edit's description."""
    path, key_at, start, end, kind = rng.choice(nodes_of(text))
    edit = rng.choice(["replace", "replace", "delete key", "add key"])
    if edit == "delete key" and key_at is not None:
        after = skip(text, end)
        if text[after] == ",":  # the member and the comma after it
            return text[:key_at] + text[after + 1:], f"delete {path}"
        before = text[:key_at].rstrip()  # the last member: the comma before it, if any
        cut = len(before) - 1 if before.endswith(",") else key_at
        return text[:cut] + text[end:], f"delete {path}"
    if edit == "add key" and kind == "{":
        empty = text[skip(text, start + 1)] == "}"
        member = '"mutant": 1' + ("" if empty else ", ")
        return text[:start + 1] + member + text[start + 1:], f"add key to {path}"
    value = rng.choice(JSON_VALUES)
    return text[:start] + value + text[end:], f"replace {path} with {value[:12]}"


def mutate_lines(text, rng, json_lines):
    """`text`, a line file, with one edit to one of its lines, and the edit's description."""
    lines = text.split("\n")
    n = rng.choice([i for i, line in enumerate(lines) if line.strip()])
    edit = rng.choice(["field", "field", "duplicate", "truncate"])
    if edit == "duplicate":
        lines.insert(rng.randrange(len(lines)), lines[n])
    elif edit == "truncate":
        lines[n] = lines[n][:rng.randrange(len(lines[n]))]
    elif json_lines:
        lines[n], edit = mutate_json(lines[n], rng)
    else:
        sep = "=" if " = " in lines[n] else "\t"
        fields = lines[n].split(sep)
        k = rng.randrange(len(fields))
        other = rng.choice(lines).split(sep)
        fields[k] = rng.choice([*FIELDS, other[k] if k < len(other) else ""])
        lines[n] = sep.join(fields)
    return "\n".join(lines), f"line {n + 1}: {edit}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    inputs = write_demo_inputs(root)
    inputs["config"].write_text(with_keys(DEMO_CONFIG, "train.epochs_max = 1\n"))
    return run_pipeline(inputs, root)


def test_every_mutation_exits_0_or_3_naming_the_file(pipeline, tmp_path, capsys):
    rng = random.Random(SEED)
    texts = {name: pipeline[name].read_text() for name in FORMATS}
    faults = []
    for trial in range(TRIALS):
        name = rng.choice(list(FORMATS))
        command = rng.choice(READERS[name])
        if FORMATS[name] == "json":
            data, edit = mutate_json(texts[name], rng)
        else:
            data, edit = mutate_lines(texts[name], rng, FORMATS[name] == "json lines")
        bad = tmp_path / f"bad_{pipeline[name].name}"
        bad.write_text(data)
        paths = {**pipeline, name: bad}
        argv = subcommand(paths, command, tmp_path / "out")
        if command in EXTRA_FLAGS:
            flag, file = EXTRA_FLAGS[command]
            argv += [flag, str(paths[file])]
        code = run_cli(argv)
        err = capsys.readouterr().err
        if code not in (0, 3) or code == 3 and str(bad) not in err:
            faults.append(f"trial {trial}: {command} on {name}, {edit}: exit {code}: {err}")
    assert not faults, "\n".join(faults)
