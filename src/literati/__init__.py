"""Toolchain for weakly supervised vision-language chest x-ray detection.

Modules:

- ``report_parser``: radiology reports -> referring expressions with
  negation-aware polarity, at three granularity levels.
- ``annotation_store``: COCO-style annotation ingestion, deterministic
  splits with negative mixing, and box rescaling between coordinate spaces.
- ``map_decoder``: per-class probability maps -> bounding-box detections
  via maximal filtering and peak region growing.
- ``detections``: the detections file's record, writer and reader, with
  neither numpy nor scipy.
- ``numeric_heads``: desk-scale network head operations (transposed
  convolution, layer norm, global average pooling, cross entropy,
  layer-selecting 1-D convolution) with analytic gradients.
- ``tpe_tuner``: tree-structured Parzen estimator for decoder
  hyperparameters.
- ``eval_harness``: IOU matching and detection-accuracy tables.
- ``cli``: single entry point exposing the pipeline.
"""

__version__ = "0.1.0"

FORMAT_VERSIONS = {
    "detections": 1,
    "trials": 1,
    "map-sidecar": 2,
    "lexicon": 1,
}
