"""Command-line entry point exposing the pipeline.

``build_parser`` holds what ``--help`` tells a user (the subcommands, exit
codes and LITERATI_THREADS); these notes are on how the subcommands run.
``decode`` streams the indices of its maps through forked worker processes
(literati.shards), one index per worker at a time; each worker loads the
map it decodes and encodes that map's entries of the detections file, so
only an index and a map's meta, count of detections and entries cross a
pipe, no process holds every map, and the parent only joins the entries.
``demo`` writes the maps it plants and decodes those files the same way,
so its detections are those of ``decode``; it scores the detections file
it wrote as ``eval`` does, through ``eval_harness.match_detections_file``,
so its table is ``eval``'s on that file. ``parse`` streams chunks of report
lines the same way and writes each chunk's expressions as it comes back,
in input order. ``tune`` loads its maps as ``decode``'s workers do, one at
a time once its output is open, keeps each only prepared, and scores
trials in this process: a memoised trial costs less than a round trip to
a worker. ``eval`` runs serially. Logs go to standard error.

Each subcommand imports the library modules it runs, and only when it
runs, so that a short job does not pay for the others' imports:
``decode``, ``tune`` and ``demo`` load numpy and scipy; ``split``, ``mix``
and ``gradcheck`` load numpy only; ``eval`` (which reads detections through
``literati.detections``), ``parse``, ``--version`` and ``--help`` load
neither.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import shutil
import sys
import tempfile
from contextlib import closing, contextmanager, nullcontext, suppress
from itertools import islice
from pathlib import Path

from . import FORMAT_VERSIONS, __version__
from . import annotation_store as store
from . import eval_harness as harness
from . import report_parser as parser_mod
from .shards import ordered_map, worker_count

logger = logging.getLogger("literati")

# Reports per chunk that `parse` sends to a worker: large enough that the
# pipe round trip is small beside parsing, small enough that the chunks in
# flight hold little memory.
PARSE_CHUNK = 256


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError, and takes no flag by a prefix of its name: else
    ``gradcheck --h`` would print the help and check nothing, and
    ``parse --rep`` would stand for ``--reports``. A flag that no parser
    defines, before the subcommand or after it, is named before any missing
    required flag. Subparsers are made of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)

    def _required_actions(self):
        """The required actions of this parser and of its subcommands' parsers."""
        for action in self._actions:
            if action.required:
                yield action
            if isinstance(action, argparse._SubParsersAction):
                for parser in action.choices.values():
                    yield from parser._required_actions()

    def parse_known_args(self, args=None, namespace=None):
        # argparse refuses a missing required flag before it looks at what it
        # could not parse, so `parse --rep x` would be refused for lacking
        # --reports; a first pass that requires nothing, here or in the
        # subcommand's parser, finds the stray flags of both. In that pass a
        # subcommand's parser has nothing required and returns its strays.
        args = sys.argv[1:] if args is None else list(args)
        required = list(self._required_actions())
        if required:
            for action in required:
                action.required = False
            try:
                _, extras = super().parse_known_args(args, None)
            finally:
                for action in required:
                    action.required = True
            if extras:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
        return super().parse_known_args(args, namespace)


def _at_least(low: int):
    """An integer flag value >= ``low``: a --seed, since the seeded generators
    take integers >= 0 only, a --n-images, since demo needs an image, or a
    --budget, since tune needs a trial."""
    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit()) or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, not {text!r}")
        return int(text)
    return parse


def _version_string() -> str:
    formats = " ".join(f"{k}={v}" for k, v in sorted(FORMAT_VERSIONS.items()))
    return f"literati {__version__} (formats: {formats})"


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="literati", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Weakly supervised disease detection from radiology reports: parse\n"
                    "reports into referring expressions, decode class logit maps into\n"
                    "boxes, tune the decoder by TPE search and score detections against\n"
                    "ground truth by IOU. Every subcommand is deterministic given its seed.",
        epilog="exit codes: 0 success, 1 invalid arguments or input, 2 I/O error,\n"
               "130 interrupted.\n"
               "LITERATI_THREADS: how many worker processes parse, decode and demo\n"
               "use (default: the CPUs available); outputs do not depend on it.")
    p.add_argument("--version", action="version", version=_version_string())
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="reports JSONL -> expressions JSONL")
    sp.add_argument("--reports", required=True)
    sp.add_argument("--lexicon", default=None, help="lexicon JSON (default: bundled)")
    sp.add_argument("--level", required=True, choices=parser_mod.LEVELS)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("split", help="deterministic train/val/test split")
    sp.add_argument("--ids", required=True, help="text file, one id per line")
    sp.add_argument("--ratios", default="0.8,0.1,0.1")
    sp.add_argument("--seed", type=_at_least(0), default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_split)

    sp = sub.add_parser("mix", help="mix negatives into a positive id list")
    sp.add_argument("--pos", required=True)
    sp.add_argument("--neg", required=True)
    sp.add_argument("--ratio", type=float, default=1.0)
    sp.add_argument("--seed", type=_at_least(0), default=0)
    sp.add_argument("--out", default=None, help="default: stdout")
    sp.set_defaults(func=cmd_mix)

    sp = sub.add_parser("decode", help="logit maps -> detections.json")
    sp.add_argument("--maps", required=True, help="directory of .npy maps + sidecars")
    # absent unless given, so that DecodeParams alone holds the defaults
    sp.add_argument("--d", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--tau", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--space", choices=("map", "net416"), default="map",
                    help="coordinate space of the emitted boxes")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("tune", help="TPE search over decode parameters")
    sp.add_argument("--maps", required=True)
    sp.add_argument("--ann", required=True, help="COCO JSON with ground truth")
    sp.add_argument("--space", default=None, help="space JSON (default: built-in d/tau/alpha)")
    sp.add_argument("--budget", type=_at_least(1), default=40)
    sp.add_argument("--seed", type=_at_least(0), default=0)
    sp.add_argument("--iou", type=float, default=0.1)
    sp.add_argument("--mode", choices=harness.MATCH_MODES, default="top1")
    sp.add_argument("--out", required=True, help="trial log JSON")
    sp.set_defaults(func=cmd_tune)

    sp = sub.add_parser("eval", help="score detections against ground truth")
    sp.add_argument("--detections", required=True)
    sp.add_argument("--ann", required=True)
    sp.add_argument("--mode", choices=harness.MATCH_MODES, default="top1")
    sp.add_argument("--format", choices=("csv", "markdown"), default="csv")
    sp.add_argument("--method", default="detections", help="row label in the table")
    sp.add_argument("--out", required=True)
    sp.add_argument("--diagnostics", default=None, help="per-image match dump JSON")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("gradcheck", help="verify analytic gradients")
    sp.add_argument("--seed", type=_at_least(0), default=0)
    sp.set_defaults(func=cmd_gradcheck)

    sp = sub.add_parser("demo", help="synthetic end-to-end run")
    sp.add_argument("--seed", type=_at_least(0), default=0)
    sp.add_argument("--n-images", type=_at_least(1), default=50)
    sp.add_argument("--out", default="literati_demo")
    sp.set_defaults(func=cmd_demo)
    return p


@contextmanager
def _replaced_on_success(path):
    """A text file whose contents replace ``path`` only if the block completes.

    The file is written next to the target's real path and renamed onto it
    at the end, so an error leaves no partial output and an existing file
    its old bytes. A target that exists but is not a regular file (a pipe,
    or ``/dev/stdout``) cannot be replaced and is written directly.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as f:
            yield f
        return
    tmp = os.path.join(os.path.dirname(target),
                       f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@contextmanager
def _filled_on_success(path):
    """A new directory whose files move into ``path`` only if the block completes.

    The directory is made beside ``path``, so each move is a rename. Files
    of ``path`` that the block did not write stay. An error leaves ``path``
    as it was, absent if it was absent, and no temporary directory is left
    either way.
    """
    path = Path(path)
    tmp = Path(tempfile.mkdtemp(prefix=f".{path.name}.", dir=path.parent))
    try:
        yield tmp
        path.mkdir(exist_ok=True)
        for f in tmp.iterdir():
            os.replace(f, path / f.name)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def cmd_parse(args) -> int:
    lexicon = (parser_mod.Lexicon.from_file(args.lexicon)
               if args.lexicon else parser_mod.default_lexicon())

    def parse_chunk(lines):
        expressions = [
            expression for line, where in lines
            for expression in parser_mod.parse_report(
                parser_mod.report_from_line(line, where), lexicon, args.level)]
        text = io.StringIO()
        parser_mod.write_expressions_jsonl(text, expressions)
        return len(lines), len(expressions), text.getvalue()

    lines = parser_mod.report_lines(args.reports)
    chunks = iter(lambda: list(islice(lines, PARSE_CHUNK)), [])  # until the file ends
    n_reports = n_expressions = 0
    with _replaced_on_success(args.out) as out, \
            closing(ordered_map(parse_chunk, chunks)) as results:
        for chunk_reports, chunk_expressions, text in results:
            out.write(text)
            n_reports += chunk_reports
            n_expressions += chunk_expressions
    logger.info("parsed %d reports into %d expressions", n_reports, n_expressions)
    return 0


def cmd_split(args) -> int:
    ids = store.read_id_file(args.ids)
    try:
        ratios = tuple(float(r) for r in args.ratios.split(","))
    except ValueError:  # make_split's refusal, naming the flag's whole value
        raise ValueError(f"--ratios must be three non-negative finite numbers, "
                         f"not {args.ratios!r}") from None
    split = store.make_split(ids, ratios, args.seed)
    with _replaced_on_success(args.out) as out:
        out.write(json.dumps(split.to_dict(), indent=2) + "\n")
    logger.info("split %d ids into %d/%d/%d", len(ids),
                len(split.train_ids), len(split.val_ids), len(split.test_ids))
    return 0


def cmd_mix(args) -> int:
    positives = store.read_id_file(args.pos)
    pool = store.read_id_file(args.neg)
    mixed = store.mix_negatives(positives, pool, args.ratio, args.seed, (args.pos, args.neg))
    text = "\n".join(mixed) + "\n"
    if args.out:
        with _replaced_on_success(args.out) as out:
            out.write(text)
    else:
        sys.stdout.write(text)
    logger.info("mixed %d positives with %d negatives", len(positives),
                len(mixed) - len(positives))
    return 0


def _decode_to(out, paths, params, space) -> int:
    """Decode the maps at ``paths`` into ``space`` boxes, write them to
    ``out``, a file open for writing, and return how many there are.

    Map i is loaded in the worker that decodes it, which also encodes the
    map's entries of the detections file, so only i, the map's meta, its
    count of detections and their text cross a pipe, no map or detection is
    held in this process, and this process only joins the text. A map whose
    image id repeats an earlier map's is refused before the next map's
    result is read.
    """
    from . import map_decoder as decoder
    from .detections import entries_json, join_entries

    def decode_one(i):
        m = decoder.load_map(paths[i])
        dets = decoder.decode(m.logits, params)
        if space == "net416":
            dets = [decoder.detection_to_net416(det, m.meta) for det in dets]
        return m.meta, len(dets), entries_json(m.meta.image_id, dets, m.meta.classes)

    n, entries, seen = 0, {}, {}
    with closing(ordered_map(decode_one, range(len(paths)))) as per_map:
        for path, (meta, count, text) in zip(paths, per_map):
            decoder.claim_image_id(seen, meta, path)
            n += count
            entries[meta.image_id] = text
    out.write(join_entries(entries[image_id] for image_id in sorted(entries)) + "\n")
    return n


def cmd_decode(args) -> int:
    from . import map_decoder as decoder

    paths = decoder.map_paths(args.maps)
    params = decoder.DecodeParams(**{k: getattr(args, k) for k in ("d", "tau", "alpha")
                                     if k in args})
    with _replaced_on_success(args.out) as out:  # an unwritable path fails before any map
        n = _decode_to(out, paths, params, args.space)
    logger.info("decoded %d maps -> %d detections", len(paths), n)
    return 0


def cmd_tune(args) -> int:
    from . import map_decoder as decoder
    from . import tpe_tuner as tpe

    paths = decoder.map_paths(args.maps)
    gts = harness.ground_truth(args.ann, "net416")
    space = tpe.SearchSpace.from_file(args.space) if args.space else None
    cfg = tpe.TpeConfig(seed=args.seed)
    with _replaced_on_success(args.out) as out:  # an unwritable path fails before any map
        # read once tune_decoder has checked its arguments; logits dropped once prepared
        maps = ((m.meta, decoder.PreparedMap(m.logits)) for m in decoder.iter_maps(paths))
        best_params, best, history = tpe.tune_decoder(
            maps, gts, space=space, budget=args.budget, cfg=cfg,
            iou_threshold=args.iou, mode=args.mode,
        )
        tpe.write_trials(out, history)
    summary = {
        "best_params": {"d": best_params.d, "tau": best_params.tau,
                        "alpha": best_params.alpha},
        "objective": best.objective,
        "iou_threshold": args.iou,
        "trials": len(history),
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    logger.info("best accuracy %.3f at d=%d tau=%.3f alpha=%.3f", best.objective,
                best_params.d, best_params.tau, best_params.alpha)
    return 0


def cmd_eval(args) -> int:
    harness.check_row_label(args.method)  # before any input is read or output opened
    if args.diagnostics and os.path.realpath(args.diagnostics) == os.path.realpath(args.out):
        raise ValueError(f"--out and --diagnostics name the same file: {args.out}")
    # an unwritable path fails before any detection is read
    with _replaced_on_success(args.out) as out, \
            (_replaced_on_success(args.diagnostics) if args.diagnostics
             else nullcontext()) as diagnostics:
        results = harness.match_detections_file(args.detections, args.ann, args.mode)
        table = harness.accuracy_table(results, method=args.method)
        rendered = harness.render_table(table, format=args.format)
        out.write(rendered)
        if args.diagnostics:
            diagnostics.write(harness.diagnostics_json(results) + "\n")
    sys.stdout.write(rendered)
    excluded = sum(1 for r in results if r.excluded)
    logger.info("evaluated %d images (%d excluded, mode=%s)",
                len(results) - excluded, excluded, args.mode)
    return 0


def cmd_gradcheck(args) -> int:
    import numpy as np

    from . import numeric_heads as heads

    rng = np.random.default_rng(args.seed)
    rows = []
    failed = False
    for op in heads.GRAD_CHECK_OPS:
        inputs = heads.make_grad_check_inputs(op, rng)
        err = heads.grad_check(op, inputs, projection_seed=args.seed)
        bound = heads.GRAD_CHECK_BOUNDS[op]
        ok = err < bound
        failed |= not ok
        rows.append((op, err, bound, "ok" if ok else "FAIL"))
    width = max(len(op) for op, *_ in rows)
    sys.stdout.write(f"{'op':<{width}}  {'max_rel_err':>12}  {'bound':>8}  status\n")
    for op, err, bound, status in rows:
        sys.stdout.write(f"{op:<{width}}  {err:>12.3e}  {bound:>8.0e}  {status}\n")
    return 1 if failed else 0


def cmd_demo(args) -> int:
    from . import map_decoder as decoder
    from . import synthetic

    out_dir = Path(args.out)
    maps_dir = out_dir / "maps"
    planted = synthetic.make_planted_maps(args.n_images, args.seed)
    # a map left by another run would be decoded by `decode` but not by this demo
    ours = {f"{p.meta.image_id}.npy" for p in planted}
    stale = sorted(path.name for path in maps_dir.glob("*.npy") if path.name not in ours)
    if stale:
        raise ValueError(f"{maps_dir} holds {len(stale)} map(s) that this run would not "
                         f"write, such as {stale[0]}; use another --out")
    detections = out_dir / "detections.json"
    if detections.is_fifo() or detections.is_char_device():
        raise ValueError(f"{detections} is a pipe or device, which demo cannot read its "
                         f"detections back from; use another --out")
    coco = synthetic.planted_coco(planted)
    out_dir.mkdir(parents=True, exist_ok=True)
    # every output is open before the first map is written, and the maps are
    # decoded from the files written, as `decode --space net416` reads them;
    # they move into maps/ only once the run succeeds, so a failed run
    # leaves maps/ and the other outputs as they were
    with _replaced_on_success(out_dir / "annotations.json") as ann_out, \
            _replaced_on_success(detections) as det_out, \
            _replaced_on_success(out_dir / "table.csv") as table_out, \
            _filled_on_success(maps_dir) as new_maps_dir:
        ann_out.write(json.dumps(coco, indent=2) + "\n")
        paths = [decoder.save_map(new_maps_dir, p.meta, p.logits) for p in planted]
        _decode_to(det_out, paths, decoder.DecodeParams(), "net416")
        det_out.flush()  # the table is `eval`'s on the file written
        matches = harness.match_detections_file(det_out.name, coco, "top1")
        table = harness.accuracy_table(matches, method=f"synthetic demo (seed {args.seed})")
        rendered = harness.render_table(table, format="csv")
        table_out.write(rendered)
    sys.stdout.write(rendered)
    logger.info("demo wrote maps, detections and table under %s", out_dir)
    return 0


def run(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"literati: error: {e}\n")
        return 1
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    try:
        worker_count()  # a bad LITERATI_THREADS fails here, before any work
        return args.func(args)
    except OSError as e:
        logger.error("I/O error: %s", e)
        return 2
    except (ValueError, RuntimeError) as e:
        logger.error("%s", e)
        return 1
    except KeyboardInterrupt:  # any workers were stopped on the way out
        logger.error("interrupted")
        return 130


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
