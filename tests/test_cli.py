import hashlib
import io
import json
import multiprocessing
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from contextlib import closing, suppress
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import literati
from literati import map_decoder, report_parser
from literati.cli import PARSE_CHUNK, run
from literati.shards import WorkerLostError, ordered_map, worker_count
from literati.synthetic import make_planted_maps, planted_coco
from literati.map_decoder import MapMeta, save_map


FIXTURES = resources.files("literati").joinpath("data/fixtures")


def _write_maps(tmp_path, n=6, seed=11, peaks=1, **planting):
    maps_dir = tmp_path / "maps"
    planted = make_planted_maps(n, seed=seed, peaks_per_image=peaks, **planting)
    for p in planted:
        save_map(maps_dir, p.meta, p.logits)
    ann_path = tmp_path / "ann.json"
    ann_path.write_text(json.dumps(planted_coco(planted)), encoding="utf-8")
    return maps_dir, ann_path, planted


def _one_line_error(caplog, message):
    """The run logged exactly one error, on one line, holding ``message``."""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0], errors
    assert message in errors[0]
    assert "Traceback" not in caplog.text


# --- exit codes and global flags ------------------------------------------------

def test_unknown_flag_exits_1(capsys):
    assert run(["decode", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err



@pytest.mark.parametrize("argv, message", [
    (["parse", "--rep", "x", "--level", "referring", "--out", "o"],
     "unrecognized arguments: --rep x"),
    (["decode", "--bogus"], "unrecognized arguments: --bogus"),
    (["tune", "--maps", "m", "--budgets", "3"], "unrecognized arguments: --budgets 3"),
    # with no stray flag, the missing required flags are named as before
    (["parse", "--reports", "r", "--level", "referring"],
     "the following arguments are required: --out"),
    (["decode"], "the following arguments are required: --maps, --out"),
    # a stray flag before the subcommand is named too, with any after it
    (["--bogus", "parse"], "unrecognized arguments: --bogus"),
    (["--bogus", "parse", "--rep", "x"], "unrecognized arguments: --bogus --rep x"),
], ids=["parse-rep", "decode-bogus", "tune-budgets", "parse-no-out", "decode-bare",
        "bogus-parse", "bogus-parse-rep"])
def test_stray_flag_is_named_before_missing_required_flags(tmp_path, monkeypatch, capsys,
                                                             argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"literati: error: {message}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["mix", "--pos", "pos.txt", "--neg", "neg.txt", "--ratio", "-1"],
    ["mix", "--ratio", "-1", "--pos", "pos.txt", "--neg", "neg.txt"],
], ids=["last", "first"])
def test_negative_flag_value_is_a_value(tmp_path, monkeypatch, caplog, argv):
    # a value that starts with "-" is no stray flag: mix refuses the ratio itself
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pos.txt").write_text("a\nb\n", encoding="utf-8")
    (tmp_path / "neg.txt").write_text("c\nd\n", encoding="utf-8")
    assert run(argv) == 1
    _one_line_error(caplog, "ratio must be a positive finite number, not -1.0")

def test_unknown_command_exits_1():
    assert run(["frobnicate"]) == 1


@pytest.mark.parametrize("argv, message", [
    # --h is no --help: it used to print the help and exit 0, checking nothing
    (["gradcheck", "--h"], "unrecognized arguments: --h"),
    # --rep is no --reports, and is named before the --reports it lacks
    (["parse", "--rep", "reports.jsonl", "--level", "referring", "--out", "out.jsonl"],
     "unrecognized arguments: --rep reports.jsonl"),
], ids=["gradcheck-h", "parse-rep"])
def test_abbreviated_flag_exits_1(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    err = capsys.readouterr().err
    usage = [line for line in err.splitlines() if line.startswith("usage:")]
    assert len(usage) == 1 and usage[0].startswith("usage: literati [-h] [--version]")
    assert [line for line in err.splitlines() if "error" in line] == [
        f"literati: error: {message}"]
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["tune", "demo", "split", "mix", "gradcheck"])
# an Arabic-Indic one and a superscript two pass str.isdigit but are not ASCII
@pytest.mark.parametrize("seed", ["-1", "1.5", "\u0661", "\u00b2"])
def test_bad_seed_exits_1_naming_the_flag(tmp_path, capsys, command, seed):
    # refused while parsing the flags, before any input is read
    out = tmp_path / "out"
    argv = {"tune": ["tune", "--maps", str(tmp_path), "--ann", str(tmp_path / "ann.json"),
                     "--out", str(out)],
            "demo": ["demo", "--out", str(out)],
            "split": ["split", "--ids", str(tmp_path / "ids.txt"), "--out", str(out)],
            "mix": ["mix", "--pos", str(tmp_path / "p.txt"), "--neg", str(tmp_path / "n.txt"),
                    "--out", str(out)],
            "gradcheck": ["gradcheck"]}[command]
    assert run([*argv, "--seed", seed]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"literati: error: argument --seed: must be an integer >= 0, not '{seed}'"]
    assert "Traceback" not in err
    assert not out.exists()


def test_version(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("literati ")
    assert "formats:" in out


def test_help_describes_the_tool_not_its_implementation(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: literati [-h] [--version]")
    assert "Weakly supervised disease detection" in out
    assert "exit codes: 0 success, 1 invalid arguments or input, 2 I/O error" in out
    assert "LITERATI_THREADS" in out
    for note in ("pipe", "fork", "import", "numpy"):
        assert note not in out
    assert len(out.splitlines()) < 30


def test_missing_file_exits_2(tmp_path):
    assert run(["split", "--ids", str(tmp_path / "nope.txt"),
                "--out", str(tmp_path / "o.json")]) == 2


def test_invalid_content_exits_1(tmp_path):
    ids = tmp_path / "ids.txt"
    ids.write_text("a\nb\n", encoding="utf-8")
    assert run(["split", "--ids", str(ids), "--ratios", "0.5,0.4,0.2",
                "--out", str(tmp_path / "o.json")]) == 1


@pytest.mark.parametrize("missing", ["classes", "image_id"])
def test_sidecar_missing_field_exits_1(tmp_path, caplog, missing):
    maps_dir, _, planted = _write_maps(tmp_path, n=1)
    sidecar = maps_dir / f"{planted[0].meta.image_id}.json"
    doc = json.loads(sidecar.read_text())
    del doc[missing]
    sidecar.write_text(json.dumps(doc))
    assert run(["decode", "--maps", str(maps_dir),
                "--out", str(tmp_path / "det.json")]) == 1
    assert f"{sidecar}: missing field '{missing}'" in caplog.text
    assert "Traceback" not in caplog.text


# a format-1 sidecar's scale must be the one its 64-cell-wide map implies
_SCALE = "{sidecar}: 'map_to_net_scale' must be 416 / 64 (416 over the map's width in cells), "


@pytest.mark.parametrize("edit, message", [
    ("[]", "{sidecar}: top level must be a JSON object, not list"),
    ('{"image_id": ', "{sidecar}: invalid JSON"),
    ({"image_id": 5}, "{sidecar}: 'image_id' must be a non-empty string, not 5"),
    ({"image_id": ""}, "{sidecar}: 'image_id' must be a non-empty string, not ''"),
    ({"classes": "ab"}, "{sidecar}: 'classes' must be a list of strings, not 'ab'"),
    ({"classes": ["background", 1]}, "{sidecar}: 'classes' must be a list of strings"),
    ({"classes": ["background", ""]},
     "{sidecar}: class names must be non-empty, not ['background', '']"),
    ({"classes": ["pneumonia", "pneumonia"]},
     "{sidecar}: class names must be unique, not ['pneumonia', 'pneumonia']"),
    ({"map_to_net_scale": "x"}, _SCALE + "not 'x'"),
    ({"map_to_net_scale": -1}, _SCALE + "not -1"),
    ({"map_to_net_scale": 0}, _SCALE + "not 0"),
    ({"map_to_net_scale": float("nan")}, _SCALE + "not nan"),
    ({"map_to_net_scale": True}, _SCALE + "not True"),
    ({"map_to_net_scale": 1.0}, _SCALE + "not 1.0"),
    ({"space": 5}, "{sidecar}: 'space' must be 'map', not 5"),
    ({"space": "net416"}, "{sidecar}: 'space' must be 'map', not 'net416'"),
    (b'{"image_id": "\xff"}', "{sidecar}: not UTF-8 (invalid start byte at byte 14)"),
], ids=["array", "invalid-json", "number-id", "empty-id", "string-classes", "number-class",
        "empty-class", "repeated-class", "string-scale", "negative-scale", "zero-scale",
        "nan-scale", "bool-scale", "unit-scale", "number-space", "net416-space", "not-utf-8"])
def test_sidecar_malformed_exits_1(tmp_path, caplog, edit, message):
    maps_dir, _, planted = _write_maps(tmp_path, n=1)
    sidecar = maps_dir / f"{planted[0].meta.image_id}.json"
    if isinstance(edit, dict):
        edit = json.dumps({**json.loads(sidecar.read_text()), **edit})
    sidecar.write_bytes(edit if isinstance(edit, bytes) else edit.encode())
    out = tmp_path / "det.json"
    assert run(["decode", "--maps", str(maps_dir), "--space", "net416", "--out", str(out)]) == 1
    _one_line_error(caplog, message.format(sidecar=sidecar))
    assert not out.exists()


@pytest.mark.parametrize("shape", [(2, 4, 0), (2, 0, 4)])
def test_map_without_cells_exits_1(tmp_path, caplog, shape):
    maps_dir = tmp_path / "maps"
    maps_dir.mkdir()
    np.save(maps_dir / "x.npy", np.zeros(shape, dtype=np.float32))
    (maps_dir / "x.json").write_text('{"image_id": "x", "classes": ["background", "pneumonia"]}')
    out = tmp_path / "det.json"
    assert run(["decode", "--maps", str(maps_dir), "--out", str(out)]) == 1
    _one_line_error(caplog, f"map x.npy: no cells (shape {shape})")
    assert not out.exists()


def _nan_map():
    logits = np.zeros((2, 4, 4), dtype=np.float32)
    logits[1, 2, 1] = np.nan
    return logits


_MAP_REFUSALS = {
    "nan": (lambda path: np.save(path, _nan_map()), "non-finite logit at channel 1, cell (2, 1)"),
    "2-d": (lambda path: np.save(path, np.zeros((4, 4), dtype=np.float32)),
            "logit map must be [K, H, W], got shape (4, 4)"),
    "one-channel": (lambda path: np.save(path, np.zeros((1, 4, 4), dtype=np.float32)),
                    "logit map needs at least 2 channels (background + class)"),
    "channel-count": (lambda path: np.save(path, np.zeros((3, 4, 4), dtype=np.float32)),
                      "3 channels but 2 class names in sidecar"),
    "float64": (lambda path: np.save(path, np.zeros((2, 4, 4))), "expected float32, got float64"),
    "empty-file": (lambda path: path.write_bytes(b""), "No data left in file"),
}


@pytest.mark.parametrize("command, write, message", [
    pytest.param(command, write, message, id=name if command == "decode" else f"tune-{name}")
    for command in ("decode", "tune") for name, (write, message) in _MAP_REFUSALS.items()])
def test_map_refusal_names_the_map(tmp_path, caplog, command, write, message):
    # tune loads its maps through the loader that decode's workers use
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=2)  # x.npy is refused among good maps
    write(maps_dir / "x.npy")
    (maps_dir / "x.json").write_text('{"image_id": "x", "classes": ["background", "pneumonia"]}')
    out = tmp_path / "out.json"
    argv = [command, "--maps", str(maps_dir), "--out", str(out)]
    if command == "tune":
        argv += ["--ann", str(ann_path), "--budget", "2"]
    assert run(argv) == 1
    _one_line_error(caplog, f"map x.npy: {message}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["decode", "tune"])
def test_two_maps_with_one_image_id_exit_1(tmp_path, caplog, command):
    maps_dir, ann_path, planted = _write_maps(tmp_path, n=3)
    first, second = (maps_dir / p.meta.image_id for p in planted[:2])
    doc = json.loads(second.with_suffix(".json").read_text())
    doc["image_id"] = planted[0].meta.image_id
    second.with_suffix(".json").write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    argv = {"decode": ["decode", "--maps", str(maps_dir), "--out", str(out)],
            "tune": ["tune", "--maps", str(maps_dir), "--ann", str(ann_path),
                     "--budget", "2", "--out", str(out)]}[command]
    assert run(argv) == 1
    _one_line_error(caplog, f"{first}.npy and {second}.npy both hold "
                            f"image_id {planted[0].meta.image_id!r}")
    assert not out.exists()


@pytest.mark.parametrize("missing", ["confidence", "box", "space", "centroid", "image_id",
                                     "class"])
def test_detections_missing_field_exits_1(tmp_path, caplog, missing):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=2)
    det = tmp_path / "det.json"
    assert run(["decode", "--maps", str(maps_dir), "--out", str(det)]) == 0
    entries = json.loads(det.read_text())
    del entries[1][missing]
    det.write_text(json.dumps(entries))
    assert run(["eval", "--detections", str(det), "--ann", str(ann_path),
                "--out", str(tmp_path / "t.csv")]) == 1
    assert f"{det}: entry 1: missing field '{missing}'" in caplog.text
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("fault, message", [
    ("box", "box must be a list of 4 numbers"),
    ("centroid", "centroid must be a list of 2 numbers"),
    ("entry", "not an object"),
    ("class-number", "'class' must be a non-empty string, not 7"),
    ("class-empty", "'class' must be a non-empty string, not ''"),
], ids=["box", "centroid", "entry", "class-number", "class-empty"])
def test_detections_malformed_entry_exits_1(tmp_path, caplog, fault, message):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=2)
    det = tmp_path / "det.json"
    assert run(["decode", "--maps", str(maps_dir), "--out", str(det)]) == 0
    entries = json.loads(det.read_text())
    if fault == "entry":
        entries[1] = "not a detection"
    elif fault.startswith("class"):
        entries[1]["class"] = 7 if fault == "class-number" else ""
    else:
        entries[1][fault] = entries[1][fault][:-1]
    det.write_text(json.dumps(entries))
    assert run(["eval", "--detections", str(det), "--ann", str(ann_path),
                "--out", str(tmp_path / "t.csv")]) == 1
    assert f"{det}: entry 1: {message}" in caplog.text
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("edit, message", [
    ("[{", "{det}: invalid JSON"),
    ({"confidence": None}, "{det}: entry 1: 'confidence' must be a finite number, not None"),
    ({"confidence": True}, "{det}: entry 1: 'confidence' must be a finite number, not True"),
    ({"centroid": [None, 2]},
     "{det}: entry 1: centroid must be a list of 2 numbers, each finite, not [None, 2]"),
    ({"box": [1, float("nan"), 2, 3]},
     "{det}: entry 1: box must be a list of 4 numbers, each finite, not [1, nan, 2, 3]"),
    ({"box": [1, 2, 0, 3]}, "{det}: entry 1: box dims must be positive"),
    ({"image_id": ["a"]}, "{det}: entry 1: 'image_id' must be a non-empty string, not ['a']"),
    ({"space": "nowhere"}, "{det}: entry 1: unknown coordinate space 'nowhere'"),
], ids=["invalid-json", "null-confidence", "bool-confidence", "null-centroid", "nan-box",
        "zero-width", "array-id", "unknown-space"])
def test_detections_bad_value_exits_1(tmp_path, caplog, edit, message):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=2)
    det = tmp_path / "det.json"
    assert run(["decode", "--maps", str(maps_dir), "--space", "net416", "--out", str(det)]) == 0
    if isinstance(edit, dict):
        entries = json.loads(det.read_text())
        entries[1].update(edit)
        edit = json.dumps(entries)
    det.write_text(edit)
    assert run(["eval", "--detections", str(det), "--ann", str(ann_path),
                "--out", str(tmp_path / "t.csv")]) == 1
    _one_line_error(caplog, message.format(det=det))


@pytest.mark.parametrize("array, key", [
    ("images", "id"), ("categories", "id"), ("annotations", "image_id"),
])
def test_coco_missing_id_exits_1(tmp_path, caplog, array, key):
    _, ann_path, _ = _write_maps(tmp_path, n=2)
    det = tmp_path / "det.json"
    det.write_text("[]")
    doc = json.loads(ann_path.read_text())
    del doc[array][0][key]
    ann_path.write_text(json.dumps(doc))
    assert run(["eval", "--detections", str(det), "--ann", str(ann_path),
                "--out", str(tmp_path / "t.csv")]) == 1
    assert f"{array}[0] is missing '{key}'" in caplog.text
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("key, value, message", [
    ("width", "640", "images[0] 'width' is not a finite number: '640'"),
    ("height", True, "images[0] 'height' is not a finite number: True"),
    ("width", None, "images[0] 'width' is not a finite number: None"),
    ("height", 0, "non-positive dimensions"),
    ("width", 10 ** 400, f"images[0] 'width' is not a finite number: {10 ** 400}"),
    ("width", 0.5, "images[0] 'width' is not a whole number: 0.5"),
    ("height", 100.9, "images[0] 'height' is not a whole number: 100.9"),
], ids=["str-width", "bool-height", "null-width", "zero-height", "huge-width",
        "fractional-width", "fractional-height"])
def test_coco_bad_dimension_exits_1(tmp_path, caplog, key, value, message):
    _, ann_path, _ = _write_maps(tmp_path, n=2)
    det = tmp_path / "det.json"
    det.write_text("[]")
    doc = json.loads(ann_path.read_text())
    doc["images"][0][key] = value
    ann_path.write_text(json.dumps(doc))
    assert run(["eval", "--detections", str(det), "--ann", str(ann_path),
                "--out", str(tmp_path / "t.csv")]) == 1
    assert message in caplog.text
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: 5, "top level must be a JSON object, not int"),
    (lambda doc: {**doc, "images": 5}, "'images' must be an array, not int"),
    (lambda doc: {**doc, "annotations": 5}, "'annotations' must be an array, not int"),
    (lambda doc: {**doc, "categories": "pneumonia"}, "'categories' must be an array, not str"),
], ids=["top-level", "images", "annotations", "categories"])
def test_coco_wrong_type_exits_1(tmp_path, caplog, mutate, message):
    _, ann_path, _ = _write_maps(tmp_path, n=2)
    det = tmp_path / "det.json"
    det.write_text("[]")
    ann_path.write_text(json.dumps(mutate(json.loads(ann_path.read_text()))))
    assert run(["eval", "--detections", str(det), "--ann", str(ann_path),
                "--out", str(tmp_path / "t.csv")]) == 1
    _one_line_error(caplog, message)


@pytest.mark.parametrize("bbox, shown", [
    (5, "5"),
    ([10, "x", 30, 40], "[10, 'x', 30, 40]"),
    ([10, float("nan"), 30, 40], "[10, nan, 30, 40]"),
    ([10, True, 30, 40], "[10, True, 30, 40]"),
    ([10, 20, 30], "[10, 20, 30]"),
], ids=["number", "string-value", "nan", "bool", "three-values"])
def test_coco_bad_bbox_exits_1(tmp_path, caplog, bbox, shown):
    _, ann_path, _ = _write_maps(tmp_path, n=2)
    det = tmp_path / "det.json"
    det.write_text("[]")
    doc = json.loads(ann_path.read_text())
    doc["annotations"][1]["bbox"] = bbox
    ann_path.write_text(json.dumps(doc))
    assert run(["eval", "--detections", str(det), "--ann", str(ann_path),
                "--out", str(tmp_path / "t.csv")]) == 1
    _one_line_error(caplog, f"annotations[1] 'bbox' is not an array of 4 finite numbers: {shown}")


@pytest.mark.parametrize("array, key, value", [
    ("categories", "id", [1]), ("annotations", "category_id", {"id": 1}),
], ids=["array-category", "object-category-id"])
def test_coco_unhashable_category_id_exits_1(tmp_path, caplog, array, key, value):
    _, ann_path, _ = _write_maps(tmp_path, n=2)
    det = tmp_path / "det.json"
    det.write_text("[]")
    doc = json.loads(ann_path.read_text())
    doc[array][0][key] = value
    ann_path.write_text(json.dumps(doc))
    assert run(["eval", "--detections", str(det), "--ann", str(ann_path),
                "--out", str(tmp_path / "t.csv")]) == 1
    _one_line_error(caplog, f"{array}[0] {key!r} must be a string or a number, not {value!r}")


@pytest.mark.parametrize("array, repeat, message", [
    ("images", {"id": "a", "width": 50, "height": 50}, "images[1] repeats image id 'a'"),
    ("categories", {"id": "1", "name": "pneumothorax"}, "categories[1] repeats category id '1'"),
], ids=["image", "category"])
def test_coco_repeated_id_exits_1(tmp_path, caplog, array, repeat, message):
    # ids are compared after str(), so the category id "1" repeats 1
    doc = {"images": [{"id": "a", "width": 100, "height": 100}],
           "categories": [{"id": 1, "name": "pneumonia"}],
           "annotations": [{"id": 1, "image_id": "a", "bbox": [10, 10, 20, 20],
                            "category_id": 1}]}
    doc[array].append(repeat)
    ann_path = tmp_path / "ann.json"
    ann_path.write_text(json.dumps(doc))
    det = tmp_path / "det.json"
    det.write_text("[]")
    out = tmp_path / "t.csv"
    assert run(["eval", "--detections", str(det), "--ann", str(ann_path),
                "--out", str(out)]) == 1
    _one_line_error(caplog, f"{ann_path}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (b'{"images": [\n', "invalid JSON (Expecting value: line 2 column 1 (char 13))"),
    (b'{"images": 5}', "'images' must be an array, not int"),
    (b'\xff{}', "not UTF-8 (invalid start byte at byte 0)"),
    (b'{"images": [], "annotations": [{"image_id": "z"}], "categories": []}',
     "annotation references unknown image id 'z'"),
    (b'{"images": [{"id": "a", "width": 0, "height": 5}], "annotations": [], "categories": []}',
     "image a: non-positive dimensions 0x5"),
    (b'{"images": [{"id": "a", "width": 5, "height": 5}], "annotations": '
     b'[{"image_id": "a", "bbox": [0, 0, 1, 1], "caption": ["x"]}], "categories": []}',
     "annotations[0] 'caption' must be a string or null, not ['x']"),
    (b'{"images": [{"id": "a", "width": 5, "height": 5}], "annotations": '
     b'[{"image_id": "a", "bbox": [0, 0, 1, 1], "phrase": {"x": 1}}], "categories": []}',
     "annotations[0] 'phrase' must be a string or null, not {'x': 1}"),
], ids=["truncated", "images-not-array", "not-utf-8", "dangling-image-id", "zero-width",
        "array-caption", "object-phrase"])
@pytest.mark.parametrize("command", ["eval", "tune"])
def test_coco_refusal_starts_with_its_path(tmp_path, caplog, command, content, message):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=2)
    det = tmp_path / "det.json"
    det.write_text("[]")
    ann_path.write_bytes(content)
    out = tmp_path / "out"
    argv = {"eval": ["eval", "--detections", str(det)],
            "tune": ["tune", "--maps", str(maps_dir), "--budget", "1"]}[command]
    assert run([*argv, "--ann", str(ann_path), "--out", str(out)]) == 1
    _one_line_error(caplog, message)
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{ann_path}: {message}"]
    assert not out.exists()


def test_detections_not_an_array_exits_1(tmp_path, caplog):
    _, ann_path, _ = _write_maps(tmp_path, n=2)
    det = tmp_path / "det.json"
    det.write_text("5")
    assert run(["eval", "--detections", str(det), "--ann", str(ann_path),
                "--out", str(tmp_path / "t.csv")]) == 1
    assert f"{det}: top level must be a JSON array, not int" in caplog.text
    assert "Traceback" not in caplog.text


# --- parse -------------------------------------------------------------------------

def test_parse_scene_labels_closed_vocabulary(tmp_path):
    out = tmp_path / "expr.jsonl"
    assert run(["parse", "--reports", str(FIXTURES / "reports_sample.jsonl"),
                "--level", "scene_label", "--out", str(out)]) == 0
    phrases = [json.loads(line)["phrase"] for line in out.read_text().splitlines()]
    allowed = {"pneumonia", "pneumothorax", "pneumonia and pneumothorax", "no pneumo"}
    assert phrases and set(phrases) <= allowed
    assert set(phrases) == allowed  # the sample covers all four


def test_parse_referring_level(tmp_path):
    out = tmp_path / "expr.jsonl"
    assert run(["parse", "--reports", str(FIXTURES / "reports_sample.jsonl"),
                "--level", "referring", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(row["level"] == "referring" for row in rows)
    assert all(any(c["category"] == "R1" for c in row["components"]) for row in rows)


@pytest.mark.parametrize("line, message", [
    ('[1]', "expected a JSON object, not list"),
    ('{"subject_id": "s9", "study_id": "st9", "text": 5}', "'text' must be a string, not 5"),
    ('{"subject_id": null, "study_id": "st9", "text": "No pneumonia."}',
     "'subject_id' must be a string or an integer, not None"),
    ('{"subject_id": "s9", "study_id": ["st9"], "text": "No pneumonia."}',
     "'study_id' must be a string or an integer, not ['st9']"),
], ids=["array-line", "int-text", "null-subject", "list-study"])
def test_parse_malformed_report_exits_1(tmp_path, caplog, line, message):
    reports = tmp_path / "reports.jsonl"
    reports.write_text('{"subject_id": "s1", "study_id": "st1", "text": "No pneumonia."}\n'
                       + line + "\n", encoding="utf-8")
    assert run(["parse", "--reports", str(reports), "--level", "referring",
                "--out", str(tmp_path / "expr.jsonl")]) == 1
    _one_line_error(caplog, f"{reports}:2: {message}")


@pytest.mark.parametrize("key", ["subject_id", "study_id"])
def test_parse_integer_id_0_is_an_id(tmp_path, key):
    # an integer id is never empty, 0 included
    doc = {"subject_id": 5, "study_id": 7, "text": "No pneumothorax."}
    doc[key] = 0
    reports = tmp_path / "reports.jsonl"
    reports.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    out = tmp_path / "expr.jsonl"
    assert run(["parse", "--reports", str(reports), "--level", "scene_label",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["report_id"] == f"{doc['subject_id']}/{doc['study_id']}"


@pytest.mark.parametrize("key", ["subject_id", "study_id"])
def test_parse_empty_string_id_exits_1(tmp_path, caplog, key):
    doc = {"subject_id": "s2", "study_id": "st2", "text": "No pneumothorax."}
    doc[key] = ""
    reports = tmp_path / "reports.jsonl"
    reports.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    out = tmp_path / "expr.jsonl"
    assert run(["parse", "--reports", str(reports), "--level", "scene_label",
                "--out", str(out)]) == 1
    _one_line_error(caplog, f"{reports}:1: report ids must be non-empty")
    assert not out.exists()


@pytest.mark.parametrize("level", report_parser.LEVELS)
@pytest.mark.parametrize("key", ["subject_id", "study_id", "text"])
def test_parse_lone_surrogate_exits_1_naming_the_line(tmp_path, caplog, level, key):
    # JSON can escape half of a surrogate pair, which UTF-8 cannot encode
    doc = {"subject_id": "s2", "study_id": "st2", "text": "Large left pneumothorax."}
    doc[key] = "x\ud800" + doc[key]
    reports = tmp_path / "reports.jsonl"
    reports.write_text('{"subject_id": "s1", "study_id": "st1", "text": "No pneumonia."}\n'
                       + json.dumps(doc) + "\n", encoding="ascii")
    out = tmp_path / "expr.jsonl"
    assert run(["parse", "--reports", str(reports), "--level", level,
                "--out", str(out)]) == 1
    _one_line_error(caplog, f"{reports}:2: '{key}' holds a lone surrogate '\\ud800' at character 1")
    assert not out.exists()


def test_parse_surrogate_pair_is_one_character(tmp_path):
    # a pair escapes one character outside the BMP, which is kept as it is
    reports = tmp_path / "reports.jsonl"
    reports.write_text('{"subject_id": "s\\ud83d\\ude00", "study_id": "st1", '
                       '"text": "Large \\ud83d\\ude00 pneumothorax."}\n', encoding="ascii")
    out = tmp_path / "expr.jsonl"
    assert run(["parse", "--reports", str(reports), "--level", "disease_emphasis",
                "--out", str(out)]) == 0
    row = json.loads(out.read_text(encoding="utf-8"))
    assert row["report_id"] == "s\U0001f600/st1"
    assert row["phrase"] == "Large \U0001f600 pneumothorax"


def test_parse_line_not_utf8_exits_1_naming_it(tmp_path, caplog):
    reports = tmp_path / "reports.jsonl"
    reports.write_bytes(b'{"subject_id": "s1", "study_id": "st1", "text": "No pneumonia."}\n'
                        b'{"subject_id": "s2", "study_id": "st2", "text": "\xff"}\n')
    out = tmp_path / "expr.jsonl"
    assert run(["parse", "--reports", str(reports), "--level", "referring",
                "--out", str(out)]) == 1
    _one_line_error(caplog, f"{reports}:2: not UTF-8 (invalid start byte at byte 49)")
    assert not out.exists()


def test_parse_idempotent_bytes(tmp_path):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        assert run(["parse", "--reports", str(FIXTURES / "reports_sample.jsonl"),
                    "--level", "disease_emphasis", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# sha256 of `literati parse` on the bundled sample, recorded before the
# segmenter and the scans were rebuilt; any change to the output bytes shows.
PARSE_DIGESTS = {
    "scene_label": "2cbe363ffb329f069d20b5aa10d9db88dc4b50a268313351d84b665f5fecf03a",
    "referring": "3d499df2b0307e5ba6de06ace89a8837a35ff448fbb6ae9574c183888385218a",
    "disease_emphasis": "4fe34911a64d2c73f54cb1ef219852f00282c2288b594b3f894a27fcacbf21c8",
}


@pytest.mark.parametrize("level", sorted(PARSE_DIGESTS))
def test_parse_output_digest_is_pinned(tmp_path, level):
    out = tmp_path / "expr.jsonl"
    assert run(["parse", "--reports", str(FIXTURES / "reports_sample.jsonl"),
                "--level", level, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PARSE_DIGESTS[level]


@pytest.mark.parametrize("existing", [None, b"old output\n"], ids=["new-file", "existing-file"])
def test_parse_bad_line_leaves_no_partial_output(tmp_path, caplog, existing):
    good = '{"subject_id": "s%d", "study_id": "st", "text": "Large left pneumothorax."}\n'
    reports = tmp_path / "reports.jsonl"
    reports.write_text(good % 1 + good % 2 + '{"subject_id": "s3"\n' + good % 4,
                       encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "expr.jsonl"
    if existing is not None:
        out.write_bytes(existing)
    assert run(["parse", "--reports", str(reports), "--level", "referring",
                "--out", str(out)]) == 1
    _one_line_error(caplog, f"{reports}:3: invalid JSON")
    # neither the two expressions parsed before line 3 nor a temporary file
    assert [p.name for p in out_dir.iterdir()] == ([] if existing is None else ["expr.jsonl"])
    if existing is not None:
        assert out.read_bytes() == existing


def test_parse_out_through_a_symlink_replaces_its_target(tmp_path):
    real = tmp_path / "real.jsonl"
    real.write_text("old\n", encoding="utf-8")
    real.chmod(0o600)
    link = tmp_path / "link.jsonl"
    link.symlink_to(real)
    assert run(["parse", "--reports", str(FIXTURES / "reports_sample.jsonl"),
                "--level", "scene_label", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert stat.S_IMODE(real.stat().st_mode) == 0o600
    assert hashlib.sha256(real.read_bytes()).hexdigest() == PARSE_DIGESTS["scene_label"]


def test_parse_out_to_a_pipe_writes_into_it(tmp_path):
    # a pipe cannot be replaced by a rename; parse writes straight into it
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run(["parse", "--reports", str(FIXTURES / "reports_sample.jsonl"),
                "--level", "scene_label", "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert hashlib.sha256(got[0]).hexdigest() == PARSE_DIGESTS["scene_label"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def _bundled_lexicon() -> dict:
    ref = resources.files("literati").joinpath("data/lexicon.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _set_pneumonia_synonyms(synonyms):
    def mutate(doc):
        doc["disease_terms"]["pneumonia"] = synonyms
        return doc
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: [doc], "top level must be a JSON object, not list"),
    (lambda doc: {**doc, "disease_terms": []}, "disease_terms must be an object"),
    (lambda doc: {**doc, "r1_terms": [1]}, "r1_terms must be a list of strings"),
    (lambda doc: {**doc, "r1_terms": "opacity"}, "r1_terms must be a list of strings"),
    (_set_pneumonia_synonyms("pneumonia"),
     "disease_terms['pneumonia'] must be a list of strings"),
    (lambda doc: {**doc, "negation_cues": doc["negation_cues"] + ["No"]},
     "negation_cues: term not lowercase: 'No'"),
    (_set_pneumonia_synonyms(["Pneumonia"]),
     "disease_terms['pneumonia']: term not lowercase: 'Pneumonia'"),
    (lambda doc: {**doc, "r1_terms": doc["r1_terms"] + [""]}, "r1_terms: empty term ''"),
    (_set_pneumonia_synonyms(["pneumonia", " "]), "disease_terms['pneumonia']: empty term ' '"),
    (lambda doc: {k: v for k, v in doc.items() if k != "r6_terms"},
     "lexicon file missing key 'r6_terms'"),
], ids=["top-level-array", "disease-terms-array", "non-string-term", "bare-string-terms",
        "bare-string-synonyms", "uppercase-cue", "uppercase-synonym", "empty-term",
        "blank-synonym", "missing-key"])
def test_parse_bad_lexicon_exits_1(tmp_path, caplog, mutate, message):
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps(mutate(_bundled_lexicon())), encoding="utf-8")
    assert run(["parse", "--reports", str(FIXTURES / "reports_sample.jsonl"),
                "--level", "referring", "--lexicon", str(lexicon),
                "--out", str(tmp_path / "expr.jsonl")]) == 1
    assert f"{lexicon}: {message}" in caplog.text
    assert "Traceback" not in caplog.text


def test_parse_lexicon_invalid_json_exits_1(tmp_path, caplog):
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text('{"r1_terms": [', encoding="utf-8")
    assert run(["parse", "--reports", str(FIXTURES / "reports_sample.jsonl"),
                "--level", "referring", "--lexicon", str(lexicon),
                "--out", str(tmp_path / "expr.jsonl")]) == 1
    assert f"{lexicon}: invalid JSON" in caplog.text
    assert "Traceback" not in caplog.text


def test_parse_bundled_lexicon_file_matches_default(tmp_path):
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps(_bundled_lexicon()), encoding="utf-8")
    outs = []
    for extra in ([], ["--lexicon", str(lexicon)]):
        out = tmp_path / f"expr{len(extra)}.jsonl"
        assert run(["parse", "--reports", str(FIXTURES / "reports_sample.jsonl"),
                    "--level", "referring", "--out", str(out), *extra]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# --- split / mix ----------------------------------------------------------------------

def test_split_and_mix_flow(tmp_path, capsys):
    ids = tmp_path / "ids.txt"
    ids.write_text("\n".join(f"id{i}" for i in range(20)) + "\n", encoding="utf-8")
    out = tmp_path / "split.json"
    assert run(["split", "--ids", str(ids), "--ratios", "0.8,0.1,0.1",
                "--seed", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (len(doc["train_ids"]), len(doc["val_ids"]), len(doc["test_ids"])) == (16, 2, 2)

    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("\n".join(doc["train_ids"][:4]) + "\n", encoding="utf-8")
    neg.write_text("\n".join(f"n{i}" for i in range(30)) + "\n", encoding="utf-8")
    assert run(["mix", "--pos", str(pos), "--neg", str(neg),
                "--ratio", "1.0", "--seed", "3"]) == 0
    mixed = capsys.readouterr().out.strip().splitlines()
    assert len(mixed) == 8


@pytest.mark.parametrize("command", ["split", "mix"])
def test_split_and_mix_replace_their_out(tmp_path, command):
    # the output is renamed onto --out, so a hard link to the old file keeps
    # the old bytes
    ids = tmp_path / "ids.txt"
    ids.write_text("\n".join(f"id{i}" for i in range(20)) + "\n", encoding="utf-8")
    neg = tmp_path / "neg.txt"
    neg.write_text("\n".join(f"n{i}" for i in range(30)) + "\n", encoding="utf-8")
    argv = {"split": ["split", "--ids", str(ids)],
            "mix": ["mix", "--pos", str(ids), "--neg", str(neg)]}[command]
    fresh = tmp_path / "fresh.txt"
    assert run([*argv, "--out", str(fresh)]) == 0
    out = tmp_path / "out.txt"
    out.write_bytes(b"old output\n")
    link = tmp_path / "link.txt"
    os.link(out, link)
    assert run([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert link.read_bytes() == b"old output\n"


def _split_or_mix(tmp_path, command, value, out):
    ids = tmp_path / "ids.txt"
    ids.write_text("a\nb\n", encoding="utf-8")
    neg = tmp_path / "neg.txt"
    neg.write_text("x\ny\nz\n", encoding="utf-8")
    return {"split": ["split", "--ids", str(ids), f"--ratios={value}"],
            "mix": ["mix", "--pos", str(ids), "--neg", str(neg), f"--ratio={value}"],
            }[command] + ["--out", str(out)]


@pytest.mark.parametrize("command, value, shown", [
    ("mix", "inf", "inf"), ("mix", "nan", "nan"), ("mix", "-inf", "-inf"), ("mix", "0", "0.0"),
    ("split", "nan,0.5,0.5", "(nan, 0.5, 0.5)"), ("split", "0.5,inf,0", "(0.5, inf, 0.0)"),
    ("split", "0.5,0.5", "(0.5, 0.5)"), ("split", "x,0,0", "'x,0,0'"),
])
def test_bad_ratio_exits_1_naming_the_value(tmp_path, caplog, command, value, shown):
    out = tmp_path / "out.txt"
    assert run(_split_or_mix(tmp_path, command, value, out)) == 1
    _one_line_error(caplog, f"not {shown}")
    assert not out.exists()


@pytest.mark.parametrize("pos, neg, fault", [
    ("a,a,b", "a,x,x", "{pos}: id 'a' is listed twice"),
    ("a,b", "a,x,x", "{neg}: id 'a' is also listed in {pos}"),
    ("a,b", "x,x", "{neg}: id 'x' is listed twice"),
], ids=["twice-in-pos", "in-both", "twice-in-neg"])
def test_mix_refuses_an_id_listed_twice(tmp_path, caplog, pos, neg, fault):
    # as split refuses a repeated id: a repeat would be mixed in twice
    paths = {"pos": tmp_path / "pos.txt", "neg": tmp_path / "neg.txt"}
    for name, ids in (("pos", pos), ("neg", neg)):
        paths[name].write_text(ids.replace(",", "\n") + "\n", encoding="utf-8")
    out = tmp_path / "mixed.txt"
    assert run(["mix", "--pos", str(paths["pos"]), "--neg", str(paths["neg"]),
                "--out", str(out)]) == 1
    _one_line_error(caplog, fault.format(**paths))
    assert not out.exists()


@pytest.mark.parametrize("command, value", [("split", "0.5,0.5,0"), ("mix", "1")])
def test_id_file_not_utf8_exits_1_naming_it(tmp_path, caplog, command, value):
    out = tmp_path / "out.txt"
    argv = _split_or_mix(tmp_path, command, value, out)
    (tmp_path / "ids.txt").write_bytes(b"a\n\xff\n")
    assert run(argv) == 1
    _one_line_error(caplog, f"{tmp_path / 'ids.txt'}: not UTF-8 (invalid start byte at byte 2)")
    assert not out.exists()


@pytest.mark.parametrize("ratio", ["100", "1e308"])
def test_mix_ratio_beyond_the_pool_takes_the_whole_pool(tmp_path, caplog, ratio):
    # 2 positives at 1e308 ask for more negatives than a float holds
    out = tmp_path / "mixed.txt"
    assert run(_split_or_mix(tmp_path, "mix", ratio, out)) == 0
    assert sorted(out.read_text(encoding="utf-8").split()) == ["a", "b", "x", "y", "z"]
    assert any("taking the whole pool" in r.getMessage() for r in caplog.records)


@pytest.mark.parametrize("n", ["0", "-1", "1.5"])
def test_demo_without_images_exits_1_before_any_output(tmp_path, capsys, n):
    out = tmp_path / "demo"
    assert run(["demo", "--n-images", n, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"literati: error: argument --n-images: must be an integer >= 1, not '{n}'"]
    assert not out.exists()


# an id file: blank lines, duplicates, and maybe a last line that is not UTF-8
_ID_FILE = st.builds(lambda lines, tail: b"\n".join(lines) + tail,
                     st.lists(st.sampled_from([b"a", b"b", b"c", b"a", b"", b"  "]), max_size=8),
                     st.sampled_from([b"", b"\n", b"\n\xff", b"\nid\xc3("]))
_RATIO = st.one_of(st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e308", "1e400", "x", ""]),
                   st.floats().map(repr))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["split", "mix"]),
       files=st.lists(_ID_FILE, min_size=2, max_size=2),
       ratios=st.lists(_RATIO, min_size=1, max_size=4))
def test_split_and_mix_fuzz_exit_cleanly(tmp_path, capsys, caplog, command, files, ratios):
    # every run returns 0, 1 or 2; a refusal is one line and leaves no --out
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        pos, neg, out = Path(tmp) / "pos.txt", Path(tmp) / "neg.txt", Path(tmp) / "out.txt"
        for path, data in zip((pos, neg), files):
            path.write_bytes(data)
        argv = {"split": ["split", "--ids", str(pos), f"--ratios={','.join(ratios)}"],
                "mix": ["mix", "--pos", str(pos), "--neg", str(neg), f"--ratio={ratios[0]}"],
                }[command]
        capsys.readouterr()
        caplog.clear()
        code = run([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err + caplog.text
        if code:
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            errors += [line for line in err.splitlines() if line.startswith("literati: error:")]
            assert len(errors) == 1 and "\n" not in errors[0], errors
            assert not out.exists()
        else:
            assert out.exists()


# --- decode / eval ----------------------------------------------------------------------

def test_decode_eval_round_trip(tmp_path, capsys):
    maps_dir, ann_path, _ = _write_maps(tmp_path)
    dets = tmp_path / "detections.json"
    assert run(["decode", "--maps", str(maps_dir), "--space", "net416",
                "--out", str(dets)]) == 0
    entries = json.loads(dets.read_text())
    assert entries and all(e["space"] == "net416" for e in entries)
    assert all(e["class"] == "pneumonia" for e in entries)

    table = tmp_path / "table.csv"
    assert run(["eval", "--detections", str(dets), "--ann", str(ann_path),
                "--mode", "top1", "--format", "csv", "--out", str(table),
                "--diagnostics", str(tmp_path / "diag.json")]) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "IOU,0.1,0.2,0.3,0.4,0.5"
    assert lines[1].endswith("1.000,1.000,1.000,1.000,1.000")
    assert (tmp_path / "diag.json").exists()


def test_decode_eval_on_48_cell_maps(tmp_path, capsys):
    # the planted COCO images are as large as their maps, so that the
    # net416 rescaling of ground truth and detections agrees
    maps_dir, ann_path, _ = _write_maps(tmp_path, shape=(48, 48))
    dets, table = tmp_path / "detections.json", tmp_path / "table.csv"
    assert run(["decode", "--maps", str(maps_dir), "--space", "net416", "--out", str(dets)]) == 0
    assert run(["eval", "--detections", str(dets), "--ann", str(ann_path),
                "--out", str(table)]) == 0
    assert table.read_text().splitlines()[1] == "detections,1.000,1.000,1.000,1.000,1.000"


@pytest.mark.parametrize("shape", [(32, 64), (64, 32)], ids=["wide", "tall"])
def test_decode_eval_and_tune_on_non_square_maps(tmp_path, capsys, shape):
    # net416 stretches each axis of a map on its own, as it does ground truth
    maps_dir, ann_path, _ = _write_maps(tmp_path, shape=shape)
    dets, table, trials = (tmp_path / name for name in ("dets.json", "t.csv", "trials.json"))
    assert run(["decode", "--maps", str(maps_dir), "--space", "net416", "--out", str(dets)]) == 0
    assert run(["eval", "--detections", str(dets), "--ann", str(ann_path),
                "--out", str(table)]) == 0
    assert table.read_text().splitlines()[1] == "detections,1.000,1.000,1.000,1.000,1.000"
    assert run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path), "--budget", "1",
                "--out", str(trials)]) == 0
    assert json.loads(trials.read_text())[0]["objective"] == 1.0


def test_format_1_sidecar_decodes_as_format_2(tmp_path):
    maps_dir, _, planted = _write_maps(tmp_path, shape=(32, 64))
    argv = ["decode", "--maps", str(maps_dir), "--space", "net416", "--out"]
    assert run(argv + [str(tmp_path / "det2.json")]) == 0
    for p in planted:  # format 1 also held the space and the width's scale
        sidecar = maps_dir / f"{p.meta.image_id}.json"
        doc = json.loads(sidecar.read_text())
        assert sorted(doc) == ["classes", "image_id"]
        sidecar.write_text(json.dumps({**doc, "space": "map", "map_to_net_scale": 416 / 64}))
    assert run(argv + [str(tmp_path / "det1.json")]) == 0
    assert (tmp_path / "det1.json").read_bytes() == (tmp_path / "det2.json").read_bytes()


def test_tied_peaks_keep_decode_order_in_eval(tmp_path, capsys):
    # a class-1 and a class-2 plateau, both of probability 1.0: decode puts
    # class 1 first, and the ground truth is on it
    logits = np.zeros((3, 32, 32))
    logits[1, 18:23, 18:23] = 40.0
    logits[2, 3:8, 3:8] = 40.0
    maps_dir = tmp_path / "maps"
    save_map(maps_dir, MapMeta("tie", ("background", "pneumonia", "pneumothorax"), (32, 32)),
             logits)
    ann_path = tmp_path / "ann.json"
    ann_path.write_text(json.dumps({
        "images": [{"id": "tie", "width": 32, "height": 32}],
        "annotations": [{"id": 1, "image_id": "tie", "bbox": [18, 18, 5, 5],
                         "category_id": 1}],
        "categories": [{"id": 1, "name": "pneumonia"}]}))
    dets, table, trials = (tmp_path / name for name in ("dets.json", "t.csv", "trials.json"))
    assert run(["decode", "--maps", str(maps_dir), "--space", "net416", "--out", str(dets)]) == 0
    entries = json.loads(dets.read_text())
    assert [e["class"] for e in entries] == ["pneumonia", "pneumothorax"]
    assert entries[0]["confidence"] == entries[1]["confidence"]
    assert run(["eval", "--detections", str(dets), "--ann", str(ann_path),
                "--out", str(table)]) == 0
    assert table.read_text().splitlines()[1] == "detections,1.000,1.000,1.000,1.000,1.000"
    assert run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path), "--budget", "1",
                "--out", str(trials)]) == 0
    assert json.loads(trials.read_text())[0]["objective"] == 1.0


def _multi_detection_input(tmp_path):
    """Native-space detections and ground truth of 40 images on a coarse
    grid, so that IOUs and confidences tie: 0-4 detections and 0-3 boxes
    per image."""
    rng = np.random.default_rng(7)

    def box():
        x, y = (8 * rng.integers(0, 6, size=2)).tolist()
        w, h = (8 * rng.integers(1, 4, size=2)).tolist()
        return [x, y, w, h]

    images, annotations, entries = [], [], []
    for i in range(40):
        image_id = f"im{i:02d}"
        images.append({"id": image_id, "width": 64, "height": 48})
        for _ in range(int(rng.integers(0, 4))):
            annotations.append({"id": len(annotations), "image_id": image_id, "bbox": box(),
                                "category_id": 1})
        for _ in range(int(rng.integers(0, 5))):
            x, y, w, h = box()
            entries.append({"image_id": image_id, "class": "pneumonia", "box": [x, y, w, h],
                            "space": "native", "confidence": float(rng.choice([0.9, 0.6, 0.3])),
                            "centroid": [y + h / 2, x + w / 2]})
    ann_path, det_path = tmp_path / "ann.json", tmp_path / "det.json"
    ann_path.write_text(json.dumps({"images": images, "annotations": annotations,
                                    "categories": [{"id": 1, "name": "pneumonia"}]}))
    det_path.write_text(json.dumps(entries))
    return det_path, ann_path


# sha256 of the `eval --diagnostics` file on _multi_detection_input, by mode
EVAL_DIAGNOSTICS_DIGESTS = {
    "top1": "8925ed2e8493b1fcd56612176aca1cf85af632d56ed2d242e1ea1530ac0b3425",
    "greedy_multi": "779c0ef4496e35691bda0e7a90d68d1a538bf86b1c6910732bf7af321d390d95",
}


@pytest.mark.parametrize("mode", sorted(EVAL_DIAGNOSTICS_DIGESTS))
def test_eval_diagnostics_digest_is_pinned(tmp_path, capsys, mode):
    det_path, ann_path = _multi_detection_input(tmp_path)
    diag = tmp_path / "diag.json"
    assert run(["eval", "--detections", str(det_path), "--ann", str(ann_path), "--mode", mode,
                "--out", str(tmp_path / "t.csv"), "--diagnostics", str(diag)]) == 0
    assert hashlib.sha256(diag.read_bytes()).hexdigest() == EVAL_DIAGNOSTICS_DIGESTS[mode]


@pytest.mark.parametrize("fmt, method", [
    ("csv", "a,b"), ("csv", "x\ry"), ("markdown", "a|b"), ("markdown", "x\ny"),
], ids=["csv-comma", "csv-return", "markdown-pipe", "markdown-newline"])
def test_eval_row_label_that_splits_the_table_exits_1(tmp_path, caplog, capsys, fmt, method):
    det_path, ann_path = _multi_detection_input(tmp_path)
    out = tmp_path / "table"
    assert run(["eval", "--detections", str(det_path), "--ann", str(ann_path),
                "--format", fmt, "--method", method, "--out", str(out)]) == 1
    _one_line_error(caplog, f"row label {method!r} holds ',', '|' or a line break")
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_eval_refuses_a_row_label_before_reading_any_input(tmp_path, caplog, capsys):
    # the label is refused first, so a missing input is never reached
    out, diag = tmp_path / "table.csv", tmp_path / "diag.json"
    assert run(["eval", "--detections", str(tmp_path / "missing.json"),
                "--ann", str(tmp_path / "missing_ann.json"), "--method", "a,b",
                "--out", str(out), "--diagnostics", str(diag)]) == 1
    _one_line_error(caplog, "row label 'a,b' holds ',', '|' or a line break")
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == ""


def test_eval_space_mismatch_exits_1(tmp_path, capsys):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=2)
    dets = tmp_path / "detections.json"
    # map-space detections vs native ground truth must be refused
    assert run(["decode", "--maps", str(maps_dir), "--space", "map",
                "--out", str(dets)]) == 0
    assert run(["eval", "--detections", str(dets), "--ann", str(ann_path),
                "--out", str(tmp_path / "t.csv")]) == 1



def _no_detections_read(path):
    raise RuntimeError("detections were read")


@pytest.mark.parametrize("unwritable", ["out", "diagnostics"])
def test_eval_unwritable_path_writes_nothing(tmp_path, monkeypatch, caplog, capsys, unwritable):
    det_path, ann_path = _multi_detection_input(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    paths = {"out": out_dir / "table.csv", "diagnostics": out_dir / "diag.json"}
    paths[unwritable] = tmp_path / "missing" / paths[unwritable].name
    kept = paths["diagnostics" if unwritable == "out" else "out"]
    kept.write_bytes(b"old output\n")
    monkeypatch.setattr("literati.detections.detections_from_json", _no_detections_read)
    assert run(["eval", "--detections", str(det_path), "--ann", str(ann_path),
                "--out", str(paths["out"]), "--diagnostics", str(paths["diagnostics"])]) == 2
    _one_line_error(caplog, "I/O error")
    assert "detections were read" not in caplog.text
    assert [p.name for p in out_dir.iterdir()] == [kept.name]
    assert kept.read_bytes() == b"old output\n"
    assert capsys.readouterr().out == ""


def test_eval_refuses_one_file_for_out_and_diagnostics(tmp_path, caplog, capsys):
    det_path, ann_path = _multi_detection_input(tmp_path)
    out = tmp_path / "table.csv"
    assert run(["eval", "--detections", str(det_path), "--ann", str(ann_path),
                "--out", str(out), "--diagnostics", str(tmp_path / "." / "table.csv")]) == 1
    _one_line_error(caplog, "--out and --diagnostics name the same file")
    assert not out.exists()

def test_decode_idempotent_bytes(tmp_path):
    maps_dir, _, _ = _write_maps(tmp_path, n=3)
    outs = []
    for name in ("d1.json", "d2.json"):
        out = tmp_path / name
        assert run(["decode", "--maps", str(maps_dir), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_decode_at_a_radius_past_the_map_equals_the_map_wide_radius(tmp_path, capsys):
    # on 64 x 64 maps a window of radius 63 covers the map from every cell,
    # so a radius of 10**9 finds the same peaks, at the same cost
    assert run(["demo", "--seed", "3", "--n-images", "4", "--out", str(tmp_path / "demo")]) == 0
    outs = []
    for d in ("1000000000", "63"):
        out = tmp_path / f"d{d}.json"
        assert run(["decode", "--maps", str(tmp_path / "demo" / "maps"), "--d", d,
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _pinned_decode_maps(tmp_path):
    """The noise maps, a map whose image id and class name need escaping in
    JSON, filed first but last by image id, and a map with no detections."""
    maps_dir = _write_noise_maps(tmp_path)
    rng = np.random.default_rng(5)
    smooth = ndimage.gaussian_filter(rng.normal(size=(2, 24, 32)), sigma=(0, 2, 2))
    npy = save_map(maps_dir, MapMeta('é "quoted" id', ("background", "épanchement\tpleural"),
                                     size=(32, 24)), 3 * smooth / smooth.std())
    npy.rename(maps_dir / "a.npy")
    npy.with_suffix(".json").rename(maps_dir / "a.json")
    background = np.stack([np.full((8, 8), 9.0), np.zeros((8, 8)), np.zeros((8, 8))])
    save_map(maps_dir, MapMeta("nothing", ("background", "pneumonia", "pneumothorax"),
                               size=(8, 8)), background)
    return maps_dir


# sha256 of detections.json, recorded before each map's entries were
# encoded in the worker that decodes it
DECODE_DIGESTS = {
    "map": "9fe06f26bc277c16a8ebbefe5fbc75d7615aa77ad5f6ec84390b9bbcf64a0dc1",
    "net416": "31c9e4f532bc3428d49b354322e9beb36d8fee8e09dc1a4301736c57d235258e",
}
DEMO_DETECTIONS_DIGEST = "0bd668942f0f85cbcfd8e65925935b4b1716ae3f4015d9eea927bb2d6ddb46a0"
# sha256 of `demo --seed 3`'s table.csv, which it also prints, recorded
# while demo still scored the detections it held rather than its file
DEMO_TABLE_DIGEST = "56692c50db178b7ee8d3049afa0a2339ac1afb71449af23bea14e8e8b5eb69ba"


@pytest.mark.parametrize("space", sorted(DECODE_DIGESTS))
def test_decode_output_digest_is_pinned(tmp_path, space):
    maps_dir = _pinned_decode_maps(tmp_path)
    out = tmp_path / "detections.json"
    assert run(["decode", "--maps", str(maps_dir), "--space", space, "--out", str(out)]) == 0
    entries = json.loads(out.read_text(encoding="utf-8"))
    assert {e["image_id"] for e in entries} == {f"noise{i}" for i in range(5)} | {
        'é "quoted" id'}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DECODE_DIGESTS[space]


def test_demo_detections_digest_is_pinned(tmp_path, capsys):
    assert run(["demo", "--seed", "3", "--out", str(tmp_path / "demo")]) == 0
    got = hashlib.sha256((tmp_path / "demo" / "detections.json").read_bytes()).hexdigest()
    assert got == DEMO_DETECTIONS_DIGEST


def test_demo_table_and_stdout_digests_are_pinned(tmp_path, capsys):
    assert run(["demo", "--seed", "3", "--out", str(tmp_path / "demo")]) == 0
    table = (tmp_path / "demo" / "table.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == DEMO_TABLE_DIGEST
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DEMO_TABLE_DIGEST


@pytest.mark.parametrize("seed, n_images", [(0, 50), (7, 3)])
def test_demo_table_is_eval_of_its_own_outputs(tmp_path, monkeypatch, capsys, seed, n_images):
    # both score through one function, demo on the file it has just written,
    # which is shorter than a write buffer at 3 images
    from literati import eval_harness

    real = eval_harness.match_detections_file
    calls = []

    def recorded(path, coco, mode):
        calls.append((Path(path).read_bytes(), mode))
        return real(path, coco, mode)

    monkeypatch.setattr(eval_harness, "match_detections_file", recorded)
    demo = tmp_path / "demo"
    assert run(["demo", "--seed", str(seed), "--n-images", str(n_images),
                "--out", str(demo)]) == 0
    table = tmp_path / "table.csv"
    assert run(["eval", "--detections", str(demo / "detections.json"),
                "--ann", str(demo / "annotations.json"), "--mode", "top1",
                "--method", f"synthetic demo (seed {seed})", "--out", str(table)]) == 0
    assert table.read_bytes() == (demo / "table.csv").read_bytes()
    assert calls == [((demo / "detections.json").read_bytes(), "top1")] * 2


def _decode_or_tune(command, tmp_path, out):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=3)
    argv = [command, "--maps", str(maps_dir), "--out", str(out)]
    return argv + ["--ann", str(ann_path), "--budget", "4"] if command == "tune" else argv


class _NoMapPrepared(map_decoder.PreparedMap):
    def __init__(self, logits):
        raise RuntimeError("a map was prepared")


@pytest.mark.parametrize("command", ["decode", "tune"])
def test_unwritable_out_fails_before_any_map_is_decoded(tmp_path, monkeypatch, caplog, command):
    argv = _decode_or_tune(command, tmp_path, tmp_path / "missing" / "out.json")
    monkeypatch.setattr(map_decoder, "PreparedMap", _NoMapPrepared)
    assert run(argv) == 2
    _one_line_error(caplog, "I/O error")
    assert "prepared" not in caplog.text


def test_tune_reports_a_bad_coco_file_before_a_bad_map(tmp_path, caplog):
    # as decode does, tune lists its maps, reads what it scores against and
    # opens --out before it loads a map
    maps_dir, ann_path, planted = _write_maps(tmp_path, n=3)
    (maps_dir / f"{planted[1].meta.image_id}.npy").write_bytes(b"")
    ann_path.write_text('{"images": 5}', encoding="utf-8")
    out = tmp_path / "trials.json"
    assert run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path), "--budget", "2",
                "--out", str(out)]) == 1
    _one_line_error(caplog, f"{ann_path}: 'images' must be an array, not int")
    assert not out.exists()


@pytest.mark.parametrize("command", ["decode", "tune"])
def test_failed_run_keeps_the_old_out(tmp_path, monkeypatch, caplog, command):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "out.json"
    out.write_bytes(b"old output\n")
    argv = _decode_or_tune(command, tmp_path, out)
    monkeypatch.setattr(map_decoder, "PreparedMap", _NoMapPrepared)
    assert run(argv) == 1
    _one_line_error(caplog, "a map was prepared")
    assert [p.name for p in out_dir.iterdir()] == ["out.json"]
    assert out.read_bytes() == b"old output\n"



def test_a_top1_tune_imports_no_multiprocessing(tmp_path):
    # in a fresh interpreter: neither the import of the CLI nor a tune in
    # either mode, which scores in this process, pays for importing
    # multiprocessing
    maps_dir, ann_path, _ = _write_maps(tmp_path)
    script = ("import sys\n"
              "import literati.cli\n"
              "assert 'multiprocessing' not in sys.modules, 'imported by literati.cli'\n"
              "for mode in ('top1', 'greedy_multi'):\n"
              "    assert literati.cli.run([*sys.argv[1:], '--mode', mode]) == 0\n"
              "    assert 'multiprocessing' not in sys.modules, f'imported by a {mode} tune'\n")
    argv = ["tune", "--maps", str(maps_dir), "--ann", str(ann_path), "--budget", "5",
            "--out", str(tmp_path / "trials.json")]
    env = {**os.environ, "PYTHONPATH": str(Path(literati.__file__).parents[1]),
           "LITERATI_THREADS": "2"}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    summaries = json.loads("[" + done.stdout.replace("}\n{", "},{") + "]")
    assert [summary["trials"] for summary in summaries] == [5, 5]


def test_parse_split_mix_and_gradcheck_import_no_scipy(tmp_path):
    # in a fresh interpreter: the import of the CLI, --version, --help,
    # parse and eval load neither numpy nor scipy; split, mix and gradcheck
    # load numpy only (the imports add up, so those run last)
    det_path, ann_path = _multi_detection_input(tmp_path)
    (tmp_path / "ids.txt").write_text("".join(f"id{i}\n" for i in range(20)))
    (tmp_path / "neg.txt").write_text("".join(f"neg{i}\n" for i in range(20)))
    runs = [
        (["--version"], []),
        (["--help"], []),
        (["parse", "--reports", str(FIXTURES / "reports_sample.jsonl"),
          "--level", "referring", "--out", str(tmp_path / "expressions.jsonl")], []),
        (["eval", "--detections", str(det_path), "--ann", str(ann_path),
          "--out", str(tmp_path / "table.csv")], []),
        (["split", "--ids", str(tmp_path / "ids.txt"), "--out", str(tmp_path / "split.json")],
         ["numpy"]),
        (["mix", "--pos", str(tmp_path / "ids.txt"), "--neg", str(tmp_path / "neg.txt"),
          "--out", str(tmp_path / "mixed.txt")], ["numpy"]),
        (["gradcheck"], ["numpy"]),
    ]
    script = ("import json, sys\n"
              "import literati.cli\n"
              "def heavy():\n"
              "    return {m for m in ('numpy', 'scipy') if m in sys.modules}\n"
              "assert not heavy(), f'{heavy()} imported by literati.cli'\n"
              "for argv, allowed in json.loads(sys.argv[1]):\n"
              "    assert literati.cli.run(argv) == 0, argv\n"
              "    assert heavy() <= set(allowed), f'{heavy()} imported by {argv[0]}'\n")
    env = {**os.environ, "PYTHONPATH": str(Path(literati.__file__).parents[1]),
           "LITERATI_THREADS": "2"}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "expressions.jsonl").stat().st_size > 0

# --- tune --------------------------------------------------------------------------------

def test_tune_writes_trials(tmp_path, capsys):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=4, seed=19)
    trials = tmp_path / "trials.json"
    assert run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path),
                "--budget", "6", "--seed", "1", "--out", str(trials)]) == 0
    log = json.loads(trials.read_text())
    assert len(log) == 6
    assert log[0]["params"] == {"d": 3, "tau": 0.5, "alpha": 0.5}
    summary = json.loads(capsys.readouterr().out)
    assert summary["objective"] >= log[0]["objective"]


def test_tune_space_without_the_defaults(tmp_path, caplog):
    # d = 3 is the decoder default; a choice without it cannot hold trial 0
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=4, seed=19)
    space = tmp_path / "space.json"
    space.write_text(json.dumps([
        {"name": "d", "kind": "choice", "choices": [1, 4, 8]},
        {"name": "tau", "kind": "uniform", "low": 0.1, "high": 0.9},
    ]), encoding="utf-8")
    trials = tmp_path / "trials.json"
    assert run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path), "--space", str(space),
                "--budget", "25", "--seed", "4", "--out", str(trials)]) == 0
    log = json.loads(trials.read_text())
    assert len(log) == 25
    assert {t["params"]["d"] for t in log} <= {1, 4, 8}
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("seed, unmapped", [(11, False), (23, False), (40, False), (11, True)],
                         ids=["11", "23", "40", "11-unmapped"])
def test_tune_objective_is_eval_top1_accuracy(tmp_path, capsys, seed, unmapped):
    # one box moved off its peak and one image left unannotated, so that
    # the accuracy is neither 0 nor 1 and the excluded image matters;
    # an annotated image whose map is removed is a miss for both
    maps_dir, ann_path, planted = _write_maps(tmp_path, n=6, seed=seed)
    doc = json.loads(ann_path.read_text())
    missed, unannotated = planted[seed % 3].meta.image_id, planted[3 + seed % 3].meta.image_id
    for a in doc["annotations"]:
        if a["image_id"] == missed:
            a["bbox"][0] += a["bbox"][2] + 5
    doc["annotations"] = [a for a in doc["annotations"] if a["image_id"] != unannotated]
    ann_path.write_text(json.dumps(doc))
    if unmapped:
        mapless = planted[(seed + 1) % 3].meta.image_id
        for suffix in (".npy", ".json"):
            (maps_dir / f"{mapless}{suffix}").unlink()

    dets, table, diag = (tmp_path / name for name in ("dets.json", "t.csv", "diag.json"))
    trials = tmp_path / "trials.json"
    assert run(["decode", "--maps", str(maps_dir), "--space", "net416", "--out", str(dets)]) == 0
    assert run(["eval", "--detections", str(dets), "--ann", str(ann_path), "--mode", "top1",
                "--out", str(table), "--diagnostics", str(diag)]) == 0
    assert run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path), "--budget", "1",
                "--out", str(trials)]) == 0
    objective = json.loads(trials.read_text())[0]["objective"]
    images = json.loads(diag.read_text())["images"]
    assert 0 < objective < 1
    assert objective == sum(im["outcomes"]["0.1"]["hit"] for im in images) / len(images)
    assert table.read_text().splitlines()[1].split(",")[1] == f"{objective:.3f}"
    assert len(images) == 5


def _tune_input(tmp_path, fixture):
    """(maps dir, annotations, extra flags) of a pinned tune run."""
    if fixture == "planted":  # weak bumps: the defaults find nothing
        maps_dir, ann_path, _ = _write_maps(tmp_path, n=8, seed=40, baseline=2.5,
                                            amplitude_range=(2.35, 2.45),
                                            sigma_range=(2.8, 3.2))
        return maps_dir, ann_path, ["--iou", "0.1"]
    # two peaks per map, boxes drawn at alpha 0.85 and matched at IoU 0.7: the
    # trials score from 0 to 1, and their thresholds fall between the first
    # regions memoised by earlier trials
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=12, seed=0, peaks=2, alpha=0.85)
    return maps_dir, ann_path, ["--iou", "0.7"]


# sha256 of the `tune --budget 30 --seed 4` trial log and stdout, by input
# and mode, recorded before each map's top class and each first region's
# detection were memoised
TUNE_DIGESTS = {
    ("planted", "top1"): (
        "c4a3137babb2d8f95b9a715063c0dc576a311130fa0762ac7185bdbad4c7e0d5",
        "7e93b1d8d1e9190f6b0ff57876b16f703d59495a4223cb05f8d974030811b4cf"),
    ("planted", "greedy_multi"): (
        "c4a3137babb2d8f95b9a715063c0dc576a311130fa0762ac7185bdbad4c7e0d5",
        "7e93b1d8d1e9190f6b0ff57876b16f703d59495a4223cb05f8d974030811b4cf"),
    ("two-peak", "top1"): (
        "3f5f2a4384a6bde8eb2a6cde9c49a40c98aaf3fc10fd9285edfeece06de3f90b",
        "02da1c759a0928586f19725a592974650187e1b6df937cdcb1c448ea97259822"),
    ("two-peak", "greedy_multi"): (
        "6f075b6240d80ea36cdcc549cbb3775362a0087b83bf3e8016ac691e0c690a42",
        "02da1c759a0928586f19725a592974650187e1b6df937cdcb1c448ea97259822"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fixture, mode", sorted(TUNE_DIGESTS))
def test_tune_outputs_are_pinned(tmp_path, monkeypatch, capsys, fixture, mode, workers):
    maps_dir, ann_path, extra = _tune_input(tmp_path, fixture)
    monkeypatch.setenv("LITERATI_THREADS", str(workers))
    trials = tmp_path / "trials.json"
    assert run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path), *extra,
                "--mode", mode, "--budget", "30", "--seed", "4", "--out", str(trials)]) == 0
    got = (hashlib.sha256(trials.read_bytes()).hexdigest(),
           hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert got == TUNE_DIGESTS[fixture, mode]


_TAU = {"name": "tau", "kind": "uniform", "low": 0.1, "high": 0.9}


@pytest.mark.parametrize("space, message", [
    ({"params": [_TAU]}, "{path}: top level must be a JSON array, not dict"),
    ([_TAU, "alpha"], "{path}: entry 1: not an object"),
    ([{"kind": "uniform", "low": 0.1, "high": 0.9}], "{path}: entry 0: missing 'name'"),
    ([{"name": "tau", "low": 0.1, "high": 0.9}], "{path}: entry 0: missing 'kind'"),
    ([_TAU, {"name": "alpha", "kind": "uniform", "low": "0.2", "high": 0.9}],
     "{path}: entry 1: 'low' must be a number, not '0.2'"),
    ([{"name": "d", "kind": "choice", "choices": 3}],
     "{path}: entry 0: 'choices' must be an array"),
    ([{"name": 5, "kind": "uniform", "low": 0.1, "high": 0.9}],
     "{path}: entry 0: 'name' must be a string, not 5"),
    ([{"name": "tau", "kind": "uniform", "low": 0.9, "high": 0.1}],
     "{path}: entry 0: param 'tau': low must be < high"),
    ([_TAU, {"name": "gamma", "kind": "uniform", "low": 0.1, "high": 0.9}],
     "search space parameter 'gamma' is not a decoder parameter (d, tau, alpha)"),
    ([{"name": "d", "kind": "integer_uniform", "low": 1, "high": 1e300}],
     "{path}: entry 0: param 'd': integer range [1, 1e+300] holds more than 10000 values"),
    ([{"name": "d", "kind": "integer_uniform", "low": 1, "high": 10 ** 400}],
     "{path}: entry 0: param 'd': bounds must be finite"),
    ([{"name": "tau", "kind": "uniform", "low": -1e308, "high": 1e308}],
     "{path}: entry 0: param 'tau': high - low must be finite"),
    ([{"name": "d", "kind": "choice", "choices": [True, [1]]}],
     "{path}: entry 0: 'choices' must be an array of strings, numbers, booleans or nulls"),
    ([_TAU, {"name": "d", "kind": "choice", "choices": [2, 2.0, 5]}],
     "{path}: entry 1: param 'd': choices 2 and 2.0 are equal"),
    ([{"name": "d", "kind": "choice", "choices": [1, True]}],
     "{path}: entry 0: param 'd': choices 1 and True are equal"),
    ([{"name": "d", "kind": "choice", "choices": ["a", "a"]}],
     "{path}: entry 0: param 'd': choices 'a' and 'a' are equal"),
], ids=["top-level-object", "entry-string", "missing-name", "missing-kind",
        "string-bound", "number-choices", "number-name", "inverted-bounds", "unknown-name",
        "huge-integer-range", "integer-beyond-float", "range-beyond-float", "array-choice",
        "equal-int-float-choices", "equal-int-bool-choices", "equal-string-choices"])
def test_tune_bad_space_exits_1(tmp_path, caplog, space, message):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=2)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space), encoding="utf-8")
    assert run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path),
                "--space", str(path), "--budget", "3",
                "--out", str(tmp_path / "trials.json")]) == 1
    _one_line_error(caplog, message.format(path=path))


_NOT_INTEGER_D = ("search space parameter 'd' must be integer_uniform or a choice of "
                  "integers, not ")
_REFUSED = "search space parameter '{}' reaches {}, which the decoder refuses: {}"


@pytest.mark.parametrize("iou, space, message", [
    ("1.5", None, "IOU threshold must be in (0, 1], got 1.5"),
    ("0.1", [_TAU, {"name": "gamma", "kind": "uniform", "low": 0.1, "high": 0.9}],
     "search space parameter 'gamma' is not a decoder parameter"),
    # the decoder takes d as an integer, so a d that can be anything else is refused
    ("0.1", [_TAU, {"name": "d", "kind": "choice", "choices": [1.5, 2.5]}],
     _REFUSED.format("d", "1.5", "d must be an integer >= 1, got 1.5")),
    ("0.1", [{"name": "d", "kind": "uniform", "low": 1, "high": 8}],
     _NOT_INTEGER_D + "kind 'uniform'"),
    ("0.1", [{"name": "d", "kind": "log_uniform", "low": 1, "high": 8}],
     _NOT_INTEGER_D + "kind 'log_uniform'"),
    ("0.1", [{"name": "d", "kind": "choice", "choices": [2, True]}],
     "search space parameter 'd' reaches True, which is not a number"),
    ("0.1", [{"name": "d", "kind": "choice", "choices": [2, float("inf")]}],
     "search space parameter 'd' reaches inf, which is not a number"),
    # a value the decoder refuses could only fail its trial: each end of a
    # range can be drawn, and each choice
    ("0.1", [{"name": "tau", "kind": "uniform", "low": 0.5, "high": 1.5},
             {"name": "d", "kind": "integer_uniform", "low": -3, "high": 2}],
     _REFUSED.format("tau", "1.5", "tau must be in [0, 1), got 1.5")),
    ("0.1", [{"name": "d", "kind": "integer_uniform", "low": -3, "high": 2}],
     _REFUSED.format("d", "-3", "d must be an integer >= 1, got -3")),
    ("0.1", [{"name": "d", "kind": "choice", "choices": [2, 0]}],
     _REFUSED.format("d", "0", "d must be an integer >= 1, got 0")),
    ("0.1", [{"name": "tau", "kind": "uniform", "low": 0.5, "high": 1}],
     _REFUSED.format("tau", "1", "tau must be in [0, 1), got 1")),
    ("0.1", [{"name": "tau", "kind": "uniform", "low": -0.1, "high": 0.5}],
     _REFUSED.format("tau", "-0.1", "tau must be in [0, 1), got -0.1")),
    ("0.1", [{"name": "tau", "kind": "choice", "choices": [0.2, 1.0]}],
     _REFUSED.format("tau", "1.0", "tau must be in [0, 1), got 1.0")),
    ("0.1", [{"name": "alpha", "kind": "uniform", "low": 0, "high": 0.9}],
     _REFUSED.format("alpha", "0", "alpha must be in (0, 1], got 0")),
    ("0.1", [{"name": "alpha", "kind": "log_uniform", "low": 0.5, "high": 2}],
     _REFUSED.format("alpha", "2", "alpha must be in (0, 1], got 2")),
    ("0.1", [{"name": "tau", "kind": "choice", "choices": [0.2, True]}],
     "search space parameter 'tau' reaches True, which is not a number"),
    ("0.1", [{"name": "alpha", "kind": "choice", "choices": [0.5, "0.7"]}],
     "search space parameter 'alpha' reaches '0.7', which is not a number"),
], ids=["iou", "space-name", "d-fractional-choices", "d-uniform", "d-log-uniform",
        "d-bool-choice", "d-infinite-choice", "tau-above-one-and-d-negative", "d-negative",
        "d-zero-choice", "tau-range-to-one", "tau-negative", "tau-choice-one", "alpha-zero",
        "alpha-above-one", "tau-bool-choice", "alpha-string-choice"])
def test_tune_checks_its_arguments_before_loading_a_map(tmp_path, monkeypatch, caplog, iou,
                                                         space, message):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=3)
    out = tmp_path / "trials.json"
    argv = ["tune", "--maps", str(maps_dir), "--ann", str(ann_path), "--iou", iou,
            "--budget", "3", "--out", str(out)]
    if space:
        (tmp_path / "space.json").write_text(json.dumps(space), encoding="utf-8")
        argv += ["--space", str(tmp_path / "space.json")]
    loads = []
    real = map_decoder.load_map
    monkeypatch.setattr(map_decoder, "load_map", lambda path: loads.append(path) or real(path))
    assert run(argv) == 1
    _one_line_error(caplog, message)
    assert loads == []
    assert not out.exists()


def test_tune_decodes_a_d_of_integral_floats_as_integers(tmp_path, capsys):
    # 2.0 and 3.0 are integers: they are drawn and scored as 2 and 3 are
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=4)
    logs = []
    for choices in ([2.0, 3.0], [2, 3]):
        space = tmp_path / "space.json"
        space.write_text(json.dumps([{"name": "d", "kind": "choice", "choices": choices}, _TAU]),
                         encoding="utf-8")
        out = tmp_path / "trials.json"
        assert run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path), "--space",
                    str(space), "--budget", "14", "--out", str(out)]) == 0
        logs.append(json.loads(out.read_text(encoding="utf-8")))
    assert {t["params"]["d"] for t in logs[0][1:]} == {2.0, 3.0}
    assert logs[0] == logs[1]  # 2.0 == 2


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_tune_refuses_a_bad_budget_before_loading_a_map(tmp_path, monkeypatch, capsys, budget):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=3)
    out = tmp_path / "trials.json"
    loads = []
    real = map_decoder.load_map
    monkeypatch.setattr(map_decoder, "load_map", lambda path: loads.append(path) or real(path))
    assert run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path),
                "--budget", budget, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"literati: error: argument --budget: must be an integer >= 1, not '{budget}'"]
    assert loads == []
    assert not out.exists()


# --- gradcheck / demo -------------------------------------------------------------------

def test_gradcheck_passes(capsys):
    assert run(["gradcheck", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "deconv2d" in out and "FAIL" not in out


# sha256 of `literati gradcheck --seed N` stdout, recorded before grad_check
# took each op's forward pass and VJP from one table
GRADCHECK_DIGESTS = {
    0: "398ddedf50ad4ff14733f95e113b783d164c0866af8397184c8cf076de588425",
    1: "41d9083212dd94db1e83cd550855d2c9708d86a4a901ba20c8ed0330872242af",
    2: "d2ca3e959f18d85bf8e1e410dfc1af8c98ae07b01ed89467f032697b104417f9",
    3: "44c5ea00ddef797808ce786c10dbcf60b1785ea0829256c1abe484ae0d48fe47",
}


@pytest.mark.parametrize("seed", sorted(GRADCHECK_DIGESTS))
def test_gradcheck_output_digest_is_pinned(capsys, seed):
    assert run(["gradcheck", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GRADCHECK_DIGESTS[seed]


def test_demo_prints_perfect_table(tmp_path, capsys):
    assert run(["demo", "--seed", "3", "--n-images", "12",
                "--out", str(tmp_path / "demo")]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "IOU,0.1,0.2,0.3,0.4,0.5"
    # accuracy 1.000 at IOU 0.3 (third numeric column)
    assert lines[1].split(",")[3] == "1.000"
    assert (tmp_path / "demo" / "table.csv").exists()
    # demo's detections are those of `decode` on the maps it wrote
    redecoded = tmp_path / "redecoded.json"
    assert run(["decode", "--maps", str(tmp_path / "demo" / "maps"), "--space", "net416",
                "--out", str(redecoded)]) == 0
    assert (tmp_path / "demo" / "detections.json").read_bytes() == redecoded.read_bytes()


@pytest.mark.parametrize("name", ["annotations.json", "detections.json", "table.csv"])
def test_demo_unwritable_output_writes_nothing(tmp_path, capsys, caplog, name):
    # every output is opened before the first map is written
    out = tmp_path / "demo"
    out.mkdir()
    (out / name).mkdir()
    others = {other: f"old {other}\n".encode()
              for other in ("annotations.json", "detections.json", "table.csv") if other != name}
    for other, old in others.items():
        (out / other).write_bytes(old)
    assert run(["demo", "--seed", "3", "--n-images", "4", "--out", str(out)]) == 2
    _one_line_error(caplog, "I/O error")
    assert sorted(p.name for p in out.iterdir()) == sorted([name, *others])
    assert list((out / name).iterdir()) == []
    for other, old in others.items():
        assert (out / other).read_bytes() == old
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "rerun"])
def test_demo_failed_map_write_leaves_maps_as_they_were(tmp_path, monkeypatch, capsys,
                                                        caplog, rerun):
    out = tmp_path / "demo"
    argv = ["demo", "--seed", "3", "--n-images", "5", "--out", str(out)]
    old = {}
    if rerun:
        assert run(argv) == 0
        for path in [*(out / "maps").iterdir(), *out.glob("*.*")]:
            path.write_bytes(f"old {path.name}\n".encode())
            old[path.relative_to(out)] = path.read_bytes()
    capsys.readouterr()
    calls = []
    real = map_decoder.save_map

    def third_write_fails(*args, **kwargs):
        calls.append(args[1].image_id)
        if len(calls) == 3:
            raise OSError("disk full")
        return real(*args, **kwargs)

    monkeypatch.setattr(map_decoder, "save_map", third_write_fails)
    assert run(argv) == 2
    _one_line_error(caplog, "disk full")
    assert len(calls) == 3
    # no map moved in, no temporary directory left, every old file as it was
    files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert files == old
    assert sorted(p.name for p in out.iterdir()) == (
        ["annotations.json", "detections.json", "maps", "table.csv"] if rerun else [])
    assert capsys.readouterr().out == ""


def test_demo_refuses_a_pipe_for_its_detections(tmp_path, capsys, caplog):
    # demo reads back the detections it writes, which a pipe would not give
    out = tmp_path / "demo"
    out.mkdir()
    os.mkfifo(out / "detections.json")
    assert _finishes(lambda: run(["demo", "--n-images", "2", "--out", str(out)])) == 1
    _one_line_error(caplog, f"{out / 'detections.json'} is a pipe or device")
    assert [p.name for p in out.iterdir()] == ["detections.json"]
    assert capsys.readouterr().out == ""


def test_demo_refuses_maps_of_another_run(tmp_path, capsys, caplog):
    out = tmp_path / "demo"
    argv = ["demo", "--seed", "3", "--n-images", "5", "--out", str(out)]
    assert run(argv) == 0
    assert run(argv) == 0  # the same run again writes the same maps
    detections = (out / "detections.json").read_bytes()
    for seed, n in (("4", "5"), ("3", "4")):
        caplog.clear()
        assert run(["demo", "--seed", seed, "--n-images", n, "--out", str(out)]) == 1
        _one_line_error(caplog, f"{out / 'maps'} holds")
        assert (out / "detections.json").read_bytes() == detections
    assert len(list((out / "maps").glob("*.npy"))) == 5


# --- worker processes -------------------------------------------------------------------

WORKER_COUNTS = (1, 2, 3)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert multiprocessing.active_children() == []


def _finishes(fn, seconds=60):
    """fn(), run in a thread that must end within ``seconds``, so a hang fails
    this test instead of stalling the test run."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()), daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    return result[0]


def _write_corpus(tmp_path, n=3 * PARSE_CHUNK + 17, bad_line=None):
    """``n`` reports cycling through the bundled sample, over several parse chunks;
    line ``bad_line`` (1-based) is not JSON."""
    sample = (FIXTURES / "reports_sample.jsonl").read_text(encoding="utf-8").splitlines()
    lines = []
    for i in range(n):
        doc = json.loads(sample[i % len(sample)])
        doc["subject_id"] = f"s{i}"
        lines.append(json.dumps(doc))
    if bad_line is not None:
        lines[bad_line - 1] = '{"subject_id": "s%d"' % bad_line
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_noise_maps(tmp_path, n=5, seed=2):
    # smoothed noise: many peaks and regions per map, on two map sizes
    rng = np.random.default_rng(seed)
    maps_dir = tmp_path / "noise"
    for i in range(n):
        side = (40, 56)[i % 2]
        smooth = ndimage.gaussian_filter(rng.normal(size=(3, side, side)), sigma=(0, 2, 2))
        meta = MapMeta(f"noise{i}", ("background", "pneumonia", "pneumothorax"),
                       size=(side, side))
        save_map(maps_dir, meta, 3 * smooth / smooth.std())
    return maps_dir


@pytest.mark.parametrize("command", ["decode", "tune"])
@pytest.mark.parametrize("value", ["x", "0", "-2"])
def test_bad_worker_count_exits_1(tmp_path, monkeypatch, caplog, command, value):
    # checked before any input is read: the missing inputs go unreported
    maps_dir, ann_path = tmp_path / "no-maps", tmp_path / "no-ann.json"
    out = tmp_path / "out.json"
    argv = {"decode": ["decode", "--maps", str(maps_dir), "--out", str(out)],
            "tune": ["tune", "--maps", str(maps_dir), "--ann", str(ann_path),
                     "--budget", "3", "--out", str(out)]}[command]
    monkeypatch.setenv("LITERATI_THREADS", value)
    assert run(argv) == 1
    _one_line_error(caplog, f"LITERATI_THREADS must be an integer >= 1, got '{value}'")
    assert not out.exists()


@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}])
def test_default_worker_count_is_the_cpu_affinity(monkeypatch, cpus):
    monkeypatch.delenv("LITERATI_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert worker_count() == len(cpus)


@pytest.mark.parametrize("iou, shown", [("1.5", "1.5"), ("nan", "nan"), ("0", "0.0")])
def test_tune_iou_outside_unit_interval_exits_1(tmp_path, caplog, iou, shown):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=2)
    trials = tmp_path / "trials.json"
    assert run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path), "--iou", iou,
                "--budget", "3", "--out", str(trials)]) == 1
    _one_line_error(caplog, f"IOU threshold must be in (0, 1], got {shown}")
    assert not trials.exists()


@pytest.mark.parametrize("maps", ["noise", "planted"])
def test_decode_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, maps):
    maps_dir = (_write_noise_maps(tmp_path) if maps == "noise"
                else _write_maps(tmp_path, n=7, peaks=2)[0])
    outs = set()
    for workers in WORKER_COUNTS:
        monkeypatch.setenv("LITERATI_THREADS", str(workers))
        out = tmp_path / f"det{workers}.json"
        assert run(["decode", "--maps", str(maps_dir), "--space", "net416",
                    "--out", str(out)]) == 0
        outs.add(out.read_bytes())
        _no_child_left()
    assert len(outs) == 1
    assert len({e["image_id"] for e in json.loads(outs.pop())}) >= 5


@pytest.mark.parametrize("workers", [2, 3])
def test_decode_sends_its_workers_map_indices(tmp_path, monkeypatch, workers):
    # each worker loads the maps it decodes, so only indices go down the pipe
    import literati.cli as cli

    maps_dir, _, _ = _write_maps(tmp_path, n=5)
    chunks = []

    def recorded(fn, items):
        items = list(items)
        chunks.extend(items)
        return ordered_map(fn, items)

    monkeypatch.setattr(cli, "ordered_map", recorded)
    monkeypatch.setenv("LITERATI_THREADS", str(workers))
    assert run(["decode", "--maps", str(maps_dir), "--out", str(tmp_path / "det.json")]) == 0
    assert chunks == list(range(5))
    _no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_decode_parent_gets_counts_not_detections(tmp_path, monkeypatch, caplog, workers):
    # a worker sends back its map's meta, count of detections and their
    # text, so the parent unpickles no Detection
    import literati.cli as cli

    maps_dir, _, _ = _write_maps(tmp_path, n=5, peaks=2)
    received = []

    def recorded(fn, items):
        with closing(ordered_map(fn, items)) as results:
            for result in results:
                received.append(result)
                yield result

    monkeypatch.setattr(cli, "ordered_map", recorded)
    monkeypatch.setenv("LITERATI_THREADS", str(workers))
    caplog.set_level("INFO", logger="literati")
    det = tmp_path / "det.json"
    assert run(["decode", "--maps", str(maps_dir), "--out", str(det)]) == 0
    assert len(received) == 5
    assert all([type(x) for x in result] == [MapMeta, int, str] for result in received)
    n = len(json.loads(det.read_text(encoding="utf-8")))
    assert n > 5 and sum(count for _, count, _ in received) == n
    assert f"decoded 5 maps -> {n} detections" in caplog.text
    _no_child_left()


@pytest.mark.parametrize("command", ["decode", "demo"])
@pytest.mark.parametrize("workers", [2, 3])
def test_decode_loads_each_map_once_in_a_worker(tmp_path, monkeypatch, workers, command):
    # demo decodes the map files it writes, as `decode` reads them
    maps_dir, _, planted = _write_maps(tmp_path, n=7)
    out = tmp_path / "demo"
    argv = {"decode": ["decode", "--maps", str(maps_dir), "--out", str(tmp_path / "det.json")],
            "demo": ["demo", "--n-images", "7", "--out", str(out)]}[command]
    log = tmp_path / "loads.txt"
    real = map_decoder.load_map

    def recorded(path):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {Path(path).name}\n")
        return real(path)

    monkeypatch.setattr(map_decoder, "load_map", recorded)
    monkeypatch.setenv("LITERATI_THREADS", str(workers))
    assert run(argv) == 0
    if command == "demo":
        maps_dir = out / "maps"
    loads = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    assert sorted(name for _, name in loads) == sorted(p.name for p in maps_dir.glob("*.npy"))
    assert len(loads) == len(planted)
    pids = {int(pid) for pid, _ in loads}
    assert os.getpid() not in pids
    assert len(pids) == workers
    _no_child_left()


def test_decode_on_one_worker_holds_one_map_at_a_time(tmp_path, monkeypatch):
    maps_dir, _, _ = _write_maps(tmp_path, n=5)
    real = map_decoder.load_map
    alive, most = [0], [0]

    def counted(path):
        m = real(path)
        alive[0] += 1
        most[0] = max(most[0], alive[0])
        weakref.finalize(m, lambda: alive.__setitem__(0, alive[0] - 1))
        return m

    monkeypatch.setattr(map_decoder, "load_map", counted)
    monkeypatch.setenv("LITERATI_THREADS", "1")
    assert run(["decode", "--maps", str(maps_dir), "--out", str(tmp_path / "det.json")]) == 0
    assert most[0] == 1 and alive[0] == 0


def _fresh_peak_mb(argv) -> float:
    """The peak RSS in MB of ``literati <argv>`` in a fresh interpreter at 2
    workers. The peak is the interpreter's own VmHWM: its RUSAGE_SELF peak
    starts at this test process's size, which the kernel carries from fork
    to exec."""
    script = ("import sys\n"
              "import literati.cli\n"
              "assert literati.cli.run(sys.argv[1:]) == 0\n"
              "print(next(line.split()[1] for line in open('/proc/self/status')\n"
              "           if line.startswith('VmHWM:')))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(literati.__file__).parents[1]),
           "LITERATI_THREADS": "2"}
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1]) / 1024  # VmHWM is in kB, printed last


def test_decode_parent_memory_does_not_grow_with_the_maps(tmp_path):
    # the parent's peak RSS for 32 maps of 3 x 256 x 256 is that for 8
    # (each map is 1.5 MB as float64)
    rng = np.random.default_rng(5)
    peaks = []
    for n in (8, 32):
        maps_dir = tmp_path / f"maps{n}"
        for i in range(n):
            logits = np.zeros((3, 256, 256))
            logits[1 + i % 2, rng.integers(256), rng.integers(256)] = 4.0
            save_map(maps_dir, MapMeta(f"m{i:02d}", ("background", "a", "b"), (256, 256)),
                     logits)
        peaks.append(_fresh_peak_mb(["decode", "--maps", str(maps_dir),
                                     "--out", str(tmp_path / f"det{n}.json")]))
    assert abs(peaks[1] - peaks[0]) < 10, peaks


def test_tune_memory_grows_by_prepared_maps_only(tmp_path):
    # tune keeps each map prepared (its class channels' probabilities, 1 MB
    # for 3 x 256 x 256) and drops its float64 logits (1.5 MB) once
    # prepared, so 24 more maps raise the peak by their prepared maps and
    # not by their logits as well (60 MB)
    rng = np.random.default_rng(5)
    peaks = []
    for n in (8, 32):
        maps_dir = tmp_path / f"maps{n}"
        images, annotations = [], []
        for i in range(n):
            logits = np.zeros((3, 256, 256))
            r, c = rng.integers(8, 248, size=2)
            logits[1 + i % 2, r, c] = 4.0
            save_map(maps_dir, MapMeta(f"m{i:02d}", ("background", "a", "b"), (256, 256)),
                     logits)
            images.append({"id": f"m{i:02d}", "width": 256, "height": 256})
            annotations.append({"image_id": f"m{i:02d}", "bbox": [int(c) - 2, int(r) - 2, 5, 5],
                                "category_id": 1 + i % 2})
        ann_path = tmp_path / f"ann{n}.json"
        ann_path.write_text(json.dumps({"images": images, "annotations": annotations,
                                        "categories": [{"id": 1, "name": "a"},
                                                       {"id": 2, "name": "b"}]}))
        peaks.append(_fresh_peak_mb(["tune", "--maps", str(maps_dir), "--ann", str(ann_path),
                                     "--budget", "2", "--out", str(tmp_path / f"trials{n}.json")]))
    assert peaks[1] - peaks[0] < 30, peaks


def test_decode_error_in_an_earlier_map_comes_before_a_later_refusal(tmp_path, monkeypatch,
                                                                     caplog):
    # maps are loaded as they are decoded, so the first failing map in path
    # order is the one reported, whether it fails to load or to decode
    maps_dir, _, planted = _write_maps(tmp_path, n=5)
    ids = sorted(p.meta.image_id for p in planted)
    (maps_dir / f"{ids[3]}.npy").write_bytes(b"")
    real = map_decoder.detection_to_net416

    def failing(det, meta):
        if meta.image_id == ids[1]:
            raise ValueError(f"cannot place {meta.image_id}")
        return real(det, meta)

    monkeypatch.setattr(map_decoder, "detection_to_net416", failing)
    for workers in WORKER_COUNTS:
        monkeypatch.setenv("LITERATI_THREADS", str(workers))
        caplog.clear()
        assert run(["decode", "--maps", str(maps_dir), "--space", "net416",
                    "--out", str(tmp_path / "det.json")]) == 1
        _one_line_error(caplog, f"cannot place {ids[1]}")
        assert not (tmp_path / "det.json").exists()
        _no_child_left()


_DROP = object()  # a JSON field to delete


def _sidecar_with(**fields):
    def edit(data, _):
        doc = json.loads(data)
        for key, value in fields.items():
            if value is _DROP:
                del doc[key]
            else:
                doc[key] = value
        return json.dumps(doc).encode()
    return edit


def _npy_with(change):
    def edit(data, u):
        arr = np.load(io.BytesIO(data))
        buf = io.BytesIO()
        np.save(buf, change(arr, u))
        return buf.getvalue()
    return edit


def _set_cell(value):
    def change(arr, u):
        arr.flat[int(u * arr.size)] = value
        return arr
    return change


def _truncated(data, u):
    text = data.rstrip()  # a sidecar cut only before its final newline still parses
    return text[:1 + int(u * (len(text) - 1))]


# One mutation of one file of a valid 3-map directory: (file suffix, name,
# how to rewrite the file's bytes given a random number in [0, 1)).
_MAP_MUTATIONS = [
    (".json", "top-level-array", lambda data, _: b"[" + data + b"]"),
    (".json", "number-image-id", _sidecar_with(image_id=7)),
    (".json", "list-image-id", _sidecar_with(image_id=["x"])),
    (".json", "null-image-id", _sidecar_with(image_id=None)),
    (".json", "string-classes", _sidecar_with(classes="background")),
    (".json", "object-classes", _sidecar_with(classes={"0": "background"})),
    (".json", "number-class", _sidecar_with(classes=["background", 1])),
    (".json", "no-image-id", _sidecar_with(image_id=_DROP)),
    (".json", "no-classes", _sidecar_with(classes=_DROP)),
    (".json", "truncated", _truncated),
    (".json", "empty", lambda data, _: b""),
    (".npy", "nan", _npy_with(_set_cell(np.nan))),
    (".npy", "inf", _npy_with(_set_cell(-np.inf))),
    (".npy", "float64", _npy_with(lambda arr, _: arr.astype(np.float64))),
    (".npy", "2-d", _npy_with(lambda arr, _: arr[1])),
    (".npy", "truncated", _truncated),
    (".npy", "empty", lambda data, _: b""),
]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=st.sampled_from(_MAP_MUTATIONS), which=st.integers(0, 2),
       u=st.floats(0, 1, exclude_max=True))
def test_malformed_map_is_refused_on_one_line(tmp_path, monkeypatch, caplog, mutation, which,
                                              u):
    suffix, _, edit = mutation
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        maps_dir, _, planted = _write_maps(Path(tmp), n=3)
        target = maps_dir / f"{sorted(p.meta.image_id for p in planted)[which]}{suffix}"
        target.write_bytes(edit(target.read_bytes(), u))
        out = Path(tmp) / "det.json"
        errors = set()
        for workers in (1, 2):
            monkeypatch.setenv("LITERATI_THREADS", str(workers))
            caplog.clear()
            assert run(["decode", "--maps", str(maps_dir), "--out", str(out)]) in (1, 2)
            [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert "\n" not in error and "Traceback" not in caplog.text, caplog.text
            assert target.stem in error
            assert not out.exists()
            _no_child_left()
            errors.add(error)
        assert len(errors) == 1, errors


# The JSON inputs of tune, eval and parse: the base file that a mutation
# rewrites, and a command line that reads it, where {name} is file name's path.
_JSON_INPUTS = {
    "tune --space": ("space", "tune --maps {maps} --ann {ann} --space {space} --budget 12"),
    "tune --ann": ("ann", "tune --maps {maps} --ann {ann} --budget 12"),
    "eval --ann": ("ann", "eval --detections {detections} --ann {ann}"),
    "eval --detections": ("detections", "eval --detections {detections} --ann {ann}"),
    "parse --lexicon": ("lexicon",
                        "parse --reports {reports} --lexicon {lexicon} --level referring"),
    "parse --reports": ("reports", "parse --reports {reports} --level referring"),
}
_JSON_MUTATIONS = ["swap-type", "drop-key", "nan", "infinity", "1e300",
                   "truncate", "not-utf-8", "top-level"]
_NUMBERS = {"nan": float("nan"), "infinity": float("inf"), "1e300": 1e300}
_JSON_VALUES = [0, 1.5, "x", True, None, [], {}]  # one of each JSON type, bool apart


def _json_kind(value):
    return "number" if type(value) in (int, float) else type(value)


def _json_nodes(doc, path=()):
    """(path, value) of every node below the top level of a JSON document."""
    if not isinstance(doc, (dict, list)):
        return
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield path + (key,), value
        yield from _json_nodes(value, path + (key,))


def _mutated_json(doc, mutation, draw, shortest_cut=0) -> bytes:
    """``doc`` as JSON text after one mutation; a cut keeps at least
    ``shortest_cut`` bytes."""
    text = json.dumps(doc).encode()
    if mutation == "truncate":
        return text[:draw(st.integers(shortest_cut, len(text) - 1))]
    if mutation == "not-utf-8":
        i = draw(st.integers(0, len(text)))
        return text[:i] + b"\xff" + text[i:]
    if mutation == "top-level":
        return json.dumps(draw(st.sampled_from(
            [v for v in _JSON_VALUES if type(v) is not type(doc)]))).encode()
    doc = json.loads(text)  # a copy to edit
    nodes = list(_json_nodes(doc))
    if mutation == "drop-key":
        path, _ = draw(st.sampled_from([n for n in nodes if isinstance(n[0][-1], str)]))
        value = _DROP
    elif mutation == "swap-type":
        path, old = draw(st.sampled_from(nodes))
        value = draw(st.sampled_from([v for v in _JSON_VALUES
                                      if _json_kind(v) != _json_kind(old)]))
    else:
        numbers = [n for n in nodes if _json_kind(n[1]) == "number"]
        path, _ = draw(st.sampled_from(numbers or nodes))
        value = _NUMBERS[mutation]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc).encode()


def _json_input_bases(tmp_path):
    """Valid files for every JSON input, written on the first call:
    (paths by name, documents by name; the reports as a list of lines)."""
    base = tmp_path / "base"
    paths = {name: base / f"{name}.json" for name in ("ann", "detections", "space", "lexicon")}
    paths.update(maps=base / "maps", reports=base / "reports.jsonl")
    if not base.exists():
        _write_maps(base, n=3)
        assert run(["decode", "--maps", str(paths["maps"]), "--space", "net416",
                    "--out", str(paths["detections"])]) == 0
        space = [{"name": "d", "kind": "integer_uniform", "low": 1, "high": 8},
                 {"name": "tau", "kind": "uniform", "low": 0.05, "high": 0.9},
                 {"name": "alpha", "kind": "uniform", "low": 0.2, "high": 0.95}]
        paths["space"].write_text(json.dumps(space), encoding="utf-8")
        paths["lexicon"].write_text(json.dumps(_bundled_lexicon()), encoding="utf-8")
        reports = FIXTURES.joinpath("reports_sample.jsonl").read_text(encoding="utf-8")
        paths["reports"].write_text("".join(reports.splitlines(True)[:6]), encoding="utf-8")
    docs = {name: json.loads(paths[name].read_text(encoding="utf-8"))
            for name in ("ann", "detections", "space", "lexicon")}
    docs["reports"] = [json.loads(line)
                       for line in paths["reports"].read_text(encoding="utf-8").splitlines()]
    return paths, docs


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(sorted(_JSON_INPUTS)), mutation=st.sampled_from(_JSON_MUTATIONS),
       data=st.data())
def test_malformed_json_input_is_refused_on_one_line(tmp_path, monkeypatch, capsys, caplog,
                                                     target, mutation, data):
    # a refusal is exit 1 or 2, one ERROR line, no traceback and no output
    # left; a file that is not UTF-8, is cut short or has the wrong top level
    # is refused with exit 1 on a line that starts with its path (a report's
    # with its path:lineno)
    monkeypatch.setenv("LITERATI_THREADS", "1")
    paths, docs = _json_input_bases(tmp_path)
    name, command = _JSON_INPUTS[target]
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        paths = {**paths, name: Path(tmp) / paths[name].name}
        if name == "reports":
            lines = [json.dumps(doc).encode() for doc in docs["reports"]]
            i = data.draw(st.integers(0, len(lines) - 1))
            bad = _mutated_json(docs["reports"][i], mutation, data.draw, shortest_cut=1)
            rest = lines[i + 1:] if mutation != "truncate" else []
            paths[name].write_bytes(b"\n".join([*lines[:i], bad, *rest]))
            prefix = f"{paths[name]}:{i + 1}: "
        else:
            paths[name].write_bytes(_mutated_json(docs[name], mutation, data.draw))
            prefix = f"{paths[name]}: "
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        argv = [arg.format(**{k: str(v) for k, v in paths.items()}) for arg in command.split()]
        capsys.readouterr()
        caplog.clear()
        code = run([*argv, "--out", str(out_dir / "result")])
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert "Traceback" not in capsys.readouterr().err + caplog.text
        if mutation in ("truncate", "not-utf-8", "top-level"):
            assert code == 1
            assert errors and errors[0].startswith(prefix), errors
        if code:
            assert code in (1, 2)
            assert len(errors) == 1 and "\n" not in errors[0], errors
            assert list(out_dir.iterdir()) == []
        else:
            assert errors == [] and [p.name for p in out_dir.iterdir()] == ["result"]


def test_demo_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, capsys):
    outputs = set()
    for workers in WORKER_COUNTS:
        monkeypatch.setenv("LITERATI_THREADS", str(workers))
        out = tmp_path / str(workers)
        assert run(["demo", "--seed", "3", "--out", str(out)]) == 0
        outputs.add((capsys.readouterr().out,
                     *((out / name).read_bytes()
                       for name in ("annotations.json", "detections.json", "table.csv"))))
        _no_child_left()
    assert len(outputs) == 1


@pytest.mark.parametrize("space, mode", [
    (None, "top1"),
    ([{"name": "d", "kind": "choice", "choices": [1, 4, 8]}, _TAU], "top1"),
    (None, "greedy_multi"),
], ids=["default", "d-choice", "greedy_multi"])
def test_tune_log_does_not_depend_on_worker_count(tmp_path, monkeypatch, capsys, space, mode):
    # weak bumps, so that the trials score differently
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=7, seed=40, amplitude_range=(2.35, 2.45),
                                        baseline=2.5, sigma_range=(2.8, 3.2))
    extra = []
    if space:
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space), encoding="utf-8")
        extra = ["--space", str(path)]
    outputs = set()
    for workers in WORKER_COUNTS:
        monkeypatch.setenv("LITERATI_THREADS", str(workers))
        trials = tmp_path / f"trials{workers}.json"
        assert run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path), *extra,
                    "--mode", mode, "--budget", "14", "--seed", "4", "--out", str(trials)]) == 0
        outputs.add((trials.read_bytes(), capsys.readouterr().out))
        _no_child_left()
    assert len(outputs) == 1
    log = json.loads(outputs.pop()[0])
    assert len({t["objective"] for t in log}) > 1


@pytest.mark.parametrize("level", report_parser.LEVELS)
def test_parse_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, level):
    reports = _write_corpus(tmp_path)
    outs = set()
    for workers in WORKER_COUNTS:
        monkeypatch.setenv("LITERATI_THREADS", str(workers))
        out = tmp_path / f"expr{workers}.jsonl"
        assert run(["parse", "--reports", str(reports), "--level", level,
                    "--out", str(out)]) == 0
        outs.add(out.read_bytes())
        _no_child_left()
    assert len(outs) == 1
    serial = tmp_path / "serial.jsonl"
    report_parser.write_expressions_jsonl(serial, [
        e for r in report_parser.read_reports_jsonl(reports)
        for e in report_parser.parse_report(r, report_parser.default_lexicon(), level)])
    assert outs.pop() == serial.read_bytes()


@pytest.mark.parametrize("existing", [None, b"old output\n"], ids=["new-file", "existing-file"])
def test_parse_bad_line_in_a_late_chunk_at_2_workers(tmp_path, monkeypatch, caplog, existing):
    bad_line = 3 * PARSE_CHUNK + 5
    reports = _write_corpus(tmp_path, n=4 * PARSE_CHUNK, bad_line=bad_line)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "expr.jsonl"
    if existing is not None:
        out.write_bytes(existing)
    monkeypatch.setenv("LITERATI_THREADS", "2")
    assert run(["parse", "--reports", str(reports), "--level", "referring",
                "--out", str(out)]) == 1
    _one_line_error(caplog, f"{reports}:{bad_line}: invalid JSON")
    assert [p.name for p in out_dir.iterdir()] == ([] if existing is None else ["expr.jsonl"])
    if existing is not None:
        assert out.read_bytes() == existing
    _no_child_left()


def test_decode_error_in_a_worker_is_the_inline_error(tmp_path, monkeypatch, caplog):
    maps_dir, _, planted = _write_maps(tmp_path, n=7)
    ids = sorted(p.meta.image_id for p in planted)  # the order decode loads them in
    real = map_decoder.detection_to_net416

    def failing(det, meta):
        if meta.image_id in (ids[2], ids[4]):
            raise ValueError(f"cannot place {meta.image_id}")
        return real(det, meta)

    monkeypatch.setattr(map_decoder, "detection_to_net416", failing)
    for workers in WORKER_COUNTS:
        monkeypatch.setenv("LITERATI_THREADS", str(workers))
        caplog.clear()
        assert run(["decode", "--maps", str(maps_dir), "--space", "net416",
                    "--out", str(tmp_path / "det.json")]) == 1
        _one_line_error(caplog, f"cannot place {ids[2]}")
        _no_child_left()


def _job(tmp_path, command, out):
    """(argv, (module, name) of the per-item function that runs in the workers)."""
    if command == "parse":
        argv = ["parse", "--reports", str(_write_corpus(tmp_path)), "--level", "referring",
                "--out", str(out)]
        return argv, (report_parser, "parse_report")
    maps_dir, _, _ = _write_maps(tmp_path, n=4)
    argv = {"decode": ["decode", "--maps", str(maps_dir), "--out", str(out)],
            "demo": ["demo", "--n-images", "4", "--out", str(out)]}[command]
    return argv, (map_decoder, "decode")


@pytest.mark.parametrize("command", ["decode", "demo", "parse"])
@pytest.mark.parametrize("workers", [2, 3])
def test_killed_worker_exits_1(tmp_path, monkeypatch, caplog, command, workers):
    out = tmp_path / "out.json"
    argv, (module, name) = _job(tmp_path, command, out)
    parent = os.getpid()
    real = getattr(module, name)

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(module, name, dying)
    monkeypatch.setenv("LITERATI_THREADS", str(workers))
    assert _finishes(lambda: run(argv)) == 1
    _one_line_error(caplog, "ended unexpectedly (exit code -9)")
    assert not (out / "detections.json" if command == "demo" else out).exists()
    if command == "demo":  # the maps move into maps/ only once the whole run succeeds
        assert not (out / "maps").exists()
    _no_child_left()


@pytest.mark.parametrize("command", ["decode", "demo", "parse"])
@pytest.mark.parametrize("workers", [1, 2])
def test_interrupt_exits_130(tmp_path, monkeypatch, caplog, command, workers):
    out = tmp_path / "out"
    argv, (module, name) = _job(tmp_path, command, out)
    parent = os.getpid()
    first = tmp_path / "interrupted"

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        with suppress(FileExistsError):  # one Ctrl-C, from the first worker to get here
            os.close(os.open(first, os.O_CREAT | os.O_EXCL))
            os.kill(parent, signal.SIGINT)
        time.sleep(30)  # ends when the pool kills the worker

    monkeypatch.setattr(module, name, interrupted)
    monkeypatch.setenv("LITERATI_THREADS", str(workers))
    start = time.monotonic()
    try:
        code = run(argv)
    except KeyboardInterrupt:  # fail this test, not the whole session
        pytest.fail("the interrupt escaped run()")
    assert code == 130
    assert time.monotonic() - start < 10  # the busy workers were killed, not awaited
    assert [r.getMessage() for r in caplog.records] == ["interrupted"]
    assert not (out / "detections.json" if command == "demo" else out).exists()
    _no_child_left()



@pytest.mark.parametrize("mode, workers", [("top1", 1), ("top1", 2),
                                           ("greedy_multi", 1), ("greedy_multi", 2)],
                         ids=["1", "2", "greedy_multi-1", "greedy_multi-2"])
def test_interrupt_during_a_top1_tune_exits_130(tmp_path, monkeypatch, caplog, mode, workers):
    # tune trials are scored in the parent in both modes, with no worker to stop
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=4)
    out = tmp_path / "trials.json"
    calls = []

    def interrupted(*args):
        calls.append(args)
        if len(calls) == nth:  # in the second trial
            raise KeyboardInterrupt
        return real(*args)

    # a top-1 trial reads all its maps in one call, a greedy_multi trial
    # makes one call per map or more
    name, nth = ("top_detections", 2) if mode == "top1" else ("iter_regions", 6)
    real = getattr(map_decoder, name)
    monkeypatch.setattr(map_decoder, name, interrupted)
    monkeypatch.setenv("LITERATI_THREADS", str(workers))
    try:
        code = run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path), "--budget", "3",
                    "--mode", mode, "--out", str(out)])
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped run()")
    assert code == 130
    assert [r.getMessage() for r in caplog.records] == ["interrupted"]
    assert not out.exists() and list(tmp_path.glob(".trials.json*")) == []
    _no_child_left()

# ordered_map, the stream that `parse`, `decode` and `demo` run on

@pytest.mark.parametrize("n_chunks", [2, 9])
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_stream_keeps_chunk_order(monkeypatch, workers, n_chunks):
    monkeypatch.setenv("LITERATI_THREADS", str(workers))

    def fn(chunk):
        time.sleep(0.01 * (chunk % 3))  # later chunks can finish first
        return chunk * chunk, os.getpid()

    results = list(ordered_map(fn, range(n_chunks)))
    assert [r[0] for r in results] == [c * c for c in range(n_chunks)]
    pids = {r[1] for r in results}
    assert len(pids) == min(workers, n_chunks)
    assert (pids == {os.getpid()}) == (workers == 1)
    _no_child_left()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_stream_raises_the_first_error_in_chunk_order(monkeypatch, workers):
    monkeypatch.setenv("LITERATI_THREADS", str(workers))

    def fn(chunk):
        if chunk == 5:
            raise KeyError(f"chunk {chunk}")
        if chunk == 3:
            time.sleep(0.2)  # chunk 5 fails first in time
            raise ValueError(f"chunk {chunk}")
        return chunk

    got = []
    with pytest.raises(ValueError, match="^chunk 3$"):
        for result in ordered_map(fn, range(9)):
            got.append(result)
    assert got == [0, 1, 2]
    _no_child_left()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_stream_reads_its_input_lazily_and_boundedly(monkeypatch, workers):
    monkeypatch.setenv("LITERATI_THREADS", str(workers))
    pulled = 0

    def chunks():
        nonlocal pulled
        for chunk in range(40):
            pulled += 1
            yield chunk

    got = []
    for result in ordered_map(lambda chunk: chunk, chunks()):
        assert pulled - len(got) <= workers + 1
        got.append(result)
    assert got == list(range(40))
    _no_child_left()


def test_stream_workers_run_fn_on_their_only_thread(monkeypatch):
    # a worker holds one chunk at a time, so it needs no thread to read ahead
    monkeypatch.setenv("LITERATI_THREADS", "2")
    results = list(ordered_map(lambda chunk: (os.getpid(), threading.active_count()),
                               range(5)))
    assert os.getpid() not in {pid for pid, _ in results}
    assert [count for _, count in results] == [1] * 5
    _no_child_left()


def test_stream_passes_large_chunks_and_results(monkeypatch):
    # both directions at once over one pipe, each message far beyond its buffer
    monkeypatch.setenv("LITERATI_THREADS", "2")
    chunks = [bytes([i]) * 1_500_000 for i in range(6)]
    results = _finishes(lambda: list(ordered_map(lambda chunk: chunk + chunk, chunks)))
    assert results == [chunk + chunk for chunk in chunks]
    _no_child_left()


@pytest.mark.parametrize("chunks", [[], [7]], ids=["no-chunk", "one-chunk"])
def test_stream_of_at_most_one_chunk_forks_nothing(monkeypatch, chunks):
    monkeypatch.setenv("LITERATI_THREADS", "3")
    forked = []
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        lambda self: forked.append(self))
    assert list(ordered_map(lambda chunk: (chunk, os.getpid()), chunks)) == [
        (chunk, os.getpid()) for chunk in chunks]
    assert forked == []


@pytest.mark.parametrize("workers", [2, 3])
def test_stream_closed_early_kills_its_busy_workers(monkeypatch, workers):
    monkeypatch.setenv("LITERATI_THREADS", str(workers))

    def fn(chunk):
        if chunk > 0:
            time.sleep(30)  # ends when the stream kills the worker
        return chunk

    start = time.monotonic()
    with closing(ordered_map(fn, range(8))) as results:
        assert next(results) == 0
    assert time.monotonic() - start < 10
    _no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_reports_a_lost_worker(monkeypatch, workers):
    monkeypatch.setenv("LITERATI_THREADS", str(workers))

    def fn(chunk):
        if chunk == 4:
            os.kill(os.getpid(), signal.SIGKILL)
        return chunk

    def use_stream():
        got = []
        with pytest.raises(WorkerLostError, match=r"ended unexpectedly \(exit code -9\)"):
            for result in ordered_map(fn, range(7)):
                got.append(result)
        return got

    got = _finishes(use_stream)
    assert got == list(range(len(got))) and len(got) <= 4  # never chunk 4's result
    _no_child_left()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_pool_leaves_no_child_after_an_interrupt(monkeypatch, workers):
    monkeypatch.setenv("LITERATI_THREADS", str(workers))
    parent = os.getpid()

    def fn(chunk):
        if chunk == 0:
            os.kill(parent, signal.SIGINT)
        time.sleep(30)  # ends when the stream kills the worker

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        list(ordered_map(fn, range(4)))
    assert time.monotonic() - start < 10  # the busy workers were killed, not awaited
    _no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_workers_leave_an_interrupt_to_the_parent(monkeypatch, workers):
    # Ctrl-C reaches every process of the group; the workers carry on
    monkeypatch.setenv("LITERATI_THREADS", str(workers))

    def fn(chunk):
        os.kill(os.getpid(), signal.SIGINT)
        return chunk

    assert list(ordered_map(fn, range(5))) == list(range(5))
    _no_child_left()
