import hashlib
import json
import multiprocessing
import os
import signal
import stat
import threading
import time
from contextlib import closing, suppress
from importlib import resources

import numpy as np
import pytest
from scipy import ndimage

from literati import map_decoder, report_parser
from literati.cli import PARSE_CHUNK, run
from literati.shards import ShardPool, WorkerLostError, ordered_map, worker_count
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


def test_unknown_command_exits_1():
    assert run(["frobnicate"]) == 1


@pytest.mark.parametrize("command", ["tune", "demo", "split", "mix", "gradcheck"])
@pytest.mark.parametrize("seed", ["-1", "1.5"])
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
    ({"map_to_net_scale": "x"}, _SCALE + "not 'x'"),
    ({"map_to_net_scale": -1}, _SCALE + "not -1"),
    ({"map_to_net_scale": 0}, _SCALE + "not 0"),
    ({"map_to_net_scale": float("nan")}, _SCALE + "not nan"),
    ({"map_to_net_scale": True}, _SCALE + "not True"),
    ({"map_to_net_scale": 1.0}, _SCALE + "not 1.0"),
    ({"space": 5}, "{sidecar}: 'space' must be 'map', not 5"),
    ({"space": "net416"}, "{sidecar}: 'space' must be 'map', not 'net416'"),
], ids=["array", "invalid-json", "number-id", "empty-id", "string-classes", "number-class",
        "string-scale", "negative-scale", "zero-scale", "nan-scale", "bool-scale",
        "unit-scale", "number-space", "net416-space"])
def test_sidecar_malformed_exits_1(tmp_path, caplog, edit, message):
    maps_dir, _, planted = _write_maps(tmp_path, n=1)
    sidecar = maps_dir / f"{planted[0].meta.image_id}.json"
    if isinstance(edit, dict):
        edit = json.dumps({**json.loads(sidecar.read_text()), **edit})
    sidecar.write_text(edit)
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


@pytest.mark.parametrize("write, message", [
    (lambda path: np.save(path, _nan_map()), "non-finite logit at channel 1, cell (2, 1)"),
    (lambda path: np.save(path, np.zeros((4, 4), dtype=np.float32)),
     "logit map must be [K, H, W], got shape (4, 4)"),
    (lambda path: np.save(path, np.zeros((1, 4, 4), dtype=np.float32)),
     "logit map needs at least 2 channels (background + class)"),
    (lambda path: np.save(path, np.zeros((3, 4, 4), dtype=np.float32)),
     "3 channels but 2 class names in sidecar"),
    (lambda path: np.save(path, np.zeros((2, 4, 4))), "expected float32, got float64"),
    (lambda path: path.write_bytes(b""), "No data left in file"),
], ids=["nan", "2-d", "one-channel", "channel-count", "float64", "empty-file"])
def test_map_refusal_names_the_map(tmp_path, caplog, write, message):
    maps_dir, _, _ = _write_maps(tmp_path, n=2)  # x.npy is refused among good maps
    write(maps_dir / "x.npy")
    (maps_dir / "x.json").write_text('{"image_id": "x", "classes": ["background", "pneumonia"]}')
    out = tmp_path / "det.json"
    assert run(["decode", "--maps", str(maps_dir), "--out", str(out)]) == 1
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


@pytest.mark.parametrize("missing", ["confidence", "box", "space", "centroid", "image_id"])
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
], ids=["box", "centroid", "entry"])
def test_detections_malformed_entry_exits_1(tmp_path, caplog, fault, message):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=2)
    det = tmp_path / "det.json"
    assert run(["decode", "--maps", str(maps_dir), "--out", str(det)]) == 0
    entries = json.loads(det.read_text())
    if fault == "entry":
        entries[1] = "not a detection"
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
], ids=["str-width", "bool-height", "null-width", "zero-height", "huge-width"])
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
    (lambda doc: 5, "document must be a JSON object, not int"),
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


@pytest.mark.parametrize("content, message", [
    (b'{"images": [\n', "malformed JSON at offset 13 (line 2): Expecting value"),
    (b'{"images": 5}', "'images' must be an array, not int"),
    (b'\xff{}', "not UTF-8 text at offset 0 (invalid start byte)"),
    (b'{"images": [], "annotations": [{"image_id": "z"}], "categories": []}',
     "annotation references unknown image id 'z'"),
    (b'{"images": [{"id": "a", "width": 0, "height": 5}], "annotations": [], "categories": []}',
     "image a: non-positive dimensions 0x5"),
], ids=["truncated", "images-not-array", "not-utf-8", "dangling-image-id", "zero-width"])
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
    assert f"{det}: expected a JSON array of detections" in caplog.text
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


def test_eval_space_mismatch_exits_1(tmp_path, capsys):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=2)
    dets = tmp_path / "detections.json"
    # map-space detections vs native ground truth must be refused
    assert run(["decode", "--maps", str(maps_dir), "--space", "map",
                "--out", str(dets)]) == 0
    assert run(["eval", "--detections", str(dets), "--ann", str(ann_path),
                "--out", str(tmp_path / "t.csv")]) == 1


def test_decode_idempotent_bytes(tmp_path):
    maps_dir, _, _ = _write_maps(tmp_path, n=3)
    outs = []
    for name in ("d1.json", "d2.json"):
        out = tmp_path / name
        assert run(["decode", "--maps", str(maps_dir), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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


_TAU = {"name": "tau", "kind": "uniform", "low": 0.1, "high": 0.9}


@pytest.mark.parametrize("space, message", [
    ({"params": [_TAU]}, "{path}: top level must be a JSON array of parameters, not dict"),
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
], ids=["top-level-object", "entry-string", "missing-name", "missing-kind",
        "string-bound", "number-choices", "number-name", "inverted-bounds", "unknown-name"])
def test_tune_bad_space_exits_1(tmp_path, caplog, space, message):
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=2)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space), encoding="utf-8")
    assert run(["tune", "--maps", str(maps_dir), "--ann", str(ann_path),
                "--space", str(path), "--budget", "3",
                "--out", str(tmp_path / "trials.json")]) == 1
    _one_line_error(caplog, message.format(path=path))


# --- gradcheck / demo -------------------------------------------------------------------

def test_gradcheck_passes(capsys):
    assert run(["gradcheck", "--seed", "5", "--h", "1e-6"]) == 0
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


@pytest.mark.parametrize("space", [None, [{"name": "d", "kind": "choice", "choices": [1, 4, 8]},
                                          _TAU]], ids=["default", "d-choice"])
def test_tune_log_does_not_depend_on_worker_count(tmp_path, monkeypatch, capsys, space):
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
                    "--budget", "14", "--seed", "4", "--out", str(trials)]) == 0
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
    maps_dir, ann_path, _ = _write_maps(tmp_path, n=4)
    argv = {"decode": ["decode", "--maps", str(maps_dir), "--out", str(out)],
            "tune": ["tune", "--maps", str(maps_dir), "--ann", str(ann_path),
                     "--budget", "3", "--out", str(out)],
            "demo": ["demo", "--n-images", "4", "--out", str(out)]}[command]
    # the top-1 objective reads only each map's first tie group
    return argv, (map_decoder, "top_detections" if command == "tune" else "decode")


@pytest.mark.parametrize("command", ["decode", "tune", "parse"])
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
    assert not out.exists()
    _no_child_left()


@pytest.mark.parametrize("command", ["decode", "tune", "demo", "parse"])
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


# ShardPool itself, at each worker count

@pytest.mark.parametrize("n_items", [2, 7])
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_pool_keeps_item_order_and_each_item_in_one_worker(monkeypatch, workers, n_items):
    monkeypatch.setenv("LITERATI_THREADS", str(workers))
    items = [{"i": i, "calls": 0} for i in range(n_items)]

    def fn(item, arg):
        item["calls"] += 1  # lives in the worker that owns the item
        return item["i"] * arg, item["calls"], os.getpid()

    with ShardPool(items, fn) as pool:
        first, second = pool.map(2), pool.map(3)
    assert [r[0] for r in second] == [3 * i for i in range(n_items)]
    assert [r[1] for r in second] == [2] * n_items
    assert [r[2] for r in first] == [r[2] for r in second]
    pids = {r[2] for r in first}
    assert len(pids) == min(workers, n_items)
    assert (pids == {os.getpid()}) == (len(pids) == 1)
    _no_child_left()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_pool_raises_the_first_error_in_item_order(monkeypatch, workers):
    monkeypatch.setenv("LITERATI_THREADS", str(workers))

    def fn(item, arg):
        if arg == "fail" and item == 4:
            raise KeyError(f"item {item}")
        if arg == "fail" and item == 2:
            raise ValueError(f"item {item}")
        return item

    with ShardPool(range(7), fn) as pool:
        with pytest.raises(ValueError, match="^item 2$"):
            pool.map("fail")
        assert pool.map("pass") == list(range(7))  # the pool still serves
    _no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_reports_a_lost_worker(monkeypatch, workers):
    monkeypatch.setenv("LITERATI_THREADS", str(workers))

    def fn(item, arg):
        if item == 4:
            os.kill(os.getpid(), signal.SIGKILL)
        return item

    def use_pool():
        with ShardPool(range(7), fn) as pool:
            with pytest.raises(WorkerLostError, match=r"ended unexpectedly \(exit code -9\)"):
                pool.map(None)
        return True

    assert _finishes(use_pool)
    _no_child_left()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_pool_leaves_no_child_after_an_interrupt(monkeypatch, workers):
    monkeypatch.setenv("LITERATI_THREADS", str(workers))
    parent = os.getpid()

    def fn(item, arg):
        if item == 0:
            os.kill(parent, signal.SIGINT)
        time.sleep(30)  # ends when the pool kills the worker

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        with ShardPool(range(4), fn) as pool:
            pool.map(None)
    assert time.monotonic() - start < 10  # the busy workers were killed, not awaited
    _no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_workers_leave_an_interrupt_to_the_parent(monkeypatch, workers):
    # Ctrl-C reaches every process of the group; the workers carry on
    monkeypatch.setenv("LITERATI_THREADS", str(workers))

    def fn(item, arg):
        os.kill(os.getpid(), signal.SIGINT)
        return item

    with ShardPool(range(5), fn) as pool:
        assert pool.map(None) == list(range(5))
    _no_child_left()


# ordered_map, the stream that `parse` runs on

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
        assert pulled - len(got) <= 2 * workers + 1
        got.append(result)
    assert got == list(range(40))
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
