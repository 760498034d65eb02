"""One rule for every reader: a bad input file raises dataset.InputFileError,
whose message starts with the file's path."""
from __future__ import annotations

import json
import re

import numpy as np
import pytest

from epsnode import autoencoder as ae
from epsnode import cli
from epsnode import dataset as ds
from epsnode import features as feat
from epsnode import novelty as nov
from epsnode import simulator as sim

GRID = ds.GridMap(origin=(1.0, 1.25), nx=2, ny=2, cell_size=0.5)


def write_dataset(path):
    ds.save(sim.generate_dataset(sim.scenario("nominal"), GRID, 1, 2, seed=5), path)


def write_bundle(path):
    scaler = feat.fit_scaler(np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]]))
    ae.save_bundle(path, ae.build(4, 8, 12, 8, seed=9), feat.Pipeline.RNG, scaler, None,
                   [0, 1, 2, 3])


def write_error_map(path):
    nov.write_error_map_csv(nov.ErrorMap(GRID, np.ones((2, 2)), np.ones((2, 2), dtype=int)), path)


def write_config(path):
    path.write_text(json.dumps({"dataset": "n.jsonl", "pipeline": "RNG", "out_dir": "out"}), encoding="utf-8")


def read_config(path):
    return cli._load_train_config(cli._build_parser().parse_args(["train", "--config", str(path)]))


def as_list(text):
    return json.dumps([json.loads(text)])


def set_key(key, value):
    return lambda text: json.dumps(json.loads(text) | {key: value})


def dataset_with_int_cell(text):
    header, first, *rest = text.splitlines()
    return "\n".join([header, json.dumps(json.loads(first) | {"cell": 5}), *rest])


# reader: (write a valid file, read it, wrong top-level type, wrong value type)
READERS = {
    "dataset": (write_dataset, ds.load,
                lambda text: "\n".join(as_list(line) for line in text.splitlines()),
                dataset_with_int_cell),
    "model-bundle": (write_bundle, ae.load_bundle, as_list, set_key("dims", 5)),
    "environment": (lambda path: sim.save_environment(sim.scenario("B"), path),
                    sim.load_environment, as_list, set_key("room", 5)),
    "error-map": (write_error_map, nov.read_error_map_csv, lambda text: '["i", "j"]\n',
                  lambda text: text.replace("0,0,1.0,1", "0,0,one,1")),
    "train-config": (write_config, read_config, as_list, set_key("val_fraction", "x")),
}


@pytest.mark.parametrize(
    "corruption", ["missing", "truncated", "wrong-top-level-type", "wrong-value-type"]
)
@pytest.mark.parametrize("reader", READERS)
def test_bad_input_file_is_one_located_error(tmp_path, reader, corruption):
    write, read, wrong_top_level, wrong_value = READERS[reader]
    path = tmp_path / "input"
    write(path)
    read(path)  # the valid file reads
    if corruption == "missing":
        path.unlink()
    else:
        change = {
            "truncated": lambda text: text[: len(text) // 2],
            "wrong-top-level-type": wrong_top_level,
            "wrong-value-type": wrong_value,
        }[corruption]
        path.write_text(change(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(ds.InputFileError, match=f"^{re.escape(str(path))}"):
        read(path)


def set_in_line(number, change):
    """A corruption that passes the JSON object on line ``number`` (from 1)
    through ``change``, which edits it in place or returns the value that
    takes its place."""
    def corrupt(text):
        lines = text.splitlines()
        obj = json.loads(lines[number - 1])
        lines[number - 1] = json.dumps(change(obj) or obj)
        return "\n".join(lines) + "\n"
    return corrupt


def first_anchor(key, value):
    return lambda obj: obj["anchors"][0].update({key: value})


def first_sample(value):
    return lambda obj: obj["anchors"][1]["cir"].__setitem__(5, value)


# each dataset field at a wrong JSON type, or too large: (line, change, the error's reason)
DATASET_TYPES = {
    "cell-float": (2, lambda obj: obj.update(cell=[1.9, 0]), "'cell': expected an integer, got 1.9"),
    "pass-string": (3, lambda obj: obj.update({"pass": "7"}), "'pass': expected an integer, got '7'"),
    "id-float": (2, first_anchor("id", 1.4), "'id': expected an integer, got 1.4"),
    "range-string": (3, first_anchor("range", "1.5"), "'range': expected a number, got '1.5'"),
    "range-too-large": (3, first_anchor("range", 10**400), "'range': int too large to convert to float"),
    "cir-string": (2, first_sample("0.25"), "'cir': expected numbers, got '0.25'"),
    "cir-bool": (3, first_sample(True), "'cir': expected numbers, got True"),
    "cir-too-large": (2, first_sample(10**400), "'cir': int too large to convert to float"),
    "record-list": (3, lambda obj: [obj], "expected a JSON object, got list"),
    "scenario-int": (1, lambda obj: obj.update(scenario=5), "'scenario': expected a string, got 5"),
    "nx-float": (1, lambda obj: obj["grid"].update(nx=2.7), "'nx': expected an integer, got 2.7"),
    "ny-string": (1, lambda obj: obj["grid"].update(ny="2"), "'ny': expected an integer, got '2'"),
    "ny-too-large": (1, lambda obj: obj["grid"].update(ny=2**64 + 1),
                     "grid 2x18446744073709551617 has more cells than one numpy array of floats holds"),
    "origin-string": (1, lambda obj: obj["grid"].update(origin=[1.0, "1.25"]),
                      "'origin': expected a number, got '1.25'"),
    "cell-size-bool": (1, lambda obj: obj["grid"].update(cell_size=True),
                       "'cell_size': expected a number, got True"),
    "seed-bool": (1, lambda obj: obj.update(seed=True), "'seed': expected an integer, got True"),
    "grid-list": (1, lambda obj: obj.update(grid=[1, 2]), "expected a JSON object, got list"),
    "anchor-list": (3, lambda obj: obj["anchors"].__setitem__(1, [1, 2]), "expected a JSON object, got list"),
}


@pytest.mark.parametrize("case", DATASET_TYPES)
def test_dataset_value_of_wrong_json_type_exits_2(tmp_path, capsys, case):
    number, change, reason = DATASET_TYPES[case]
    path = tmp_path / "data.jsonl"
    write_dataset(path)
    path.write_text(set_in_line(number, change)(path.read_text(encoding="utf-8")), encoding="utf-8")
    out_dir = tmp_path / "model"
    rc = cli.main(["train", "--dataset", str(path), "--pipeline", "RNG", "--architecture", "8", "12",
                   "8", "--out-dir", str(out_dir)])
    what = "header" if number == 1 else "record"
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}: line {number}: invalid {what}: {reason}\n"
    assert not out_dir.exists()


# each environment value at a wrong JSON type: (change, the error's reason)
ENVIRONMENT_TYPES = {
    "id-float": (lambda obj: obj["anchors"][1].update(id=1.5), "'id': expected an integer, got 1.5"),
    "position-string": (first_anchor("position", [0.0, "0.0"]),
                        "'position': expected a number, got '0.0'"),
    "room-bool": (lambda obj: obj.update(room=[0.0, 0.0, True, 5.0]), "'room': expected a number, got True"),
    "reflectivity-string": (lambda obj: obj["obstacles"][0].update(reflectivity="0.9"),
                            "'reflectivity': expected a number, got '0.9'"),
    "wall-reflectivity-string": (lambda obj: obj.update(wall_reflectivity="0.5"),
                                 "'wall_reflectivity': expected a number, got '0.5'"),
    "anchor-list": (lambda obj: obj["anchors"].__setitem__(2, [1, 2]), "expected a JSON object, got list"),
}


@pytest.mark.parametrize("case", ENVIRONMENT_TYPES)
def test_environment_value_of_wrong_json_type_exits_2(tmp_path, capsys, case):
    change, reason = ENVIRONMENT_TYPES[case]
    path = tmp_path / "env.json"
    sim.save_environment(sim.scenario("B"), path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    change(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "data.jsonl"
    rc = cli.main(["simulate", "--env-file", str(path), "--grid", "3.5,2.5,2,2,0.5", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}: invalid environment file: {reason}\n"
    assert not out.exists()
