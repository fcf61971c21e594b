"""Command-line interface: build, extract, evaluate.

extract is a JSON-lines filter: each stdin line {"id": ..., "text": ...}
produces exactly one stdout line with the extracted mentions, in input
order, regardless of how many worker lanes are running. Malformed lines,
and lines whose text is longer than MAX_TEXT_CHARS, become inline error
records instead of aborting the stream; a lone surrogate that a line's
JSON decodes to is written as its backslash escape. Every record goes
through one write loop, whatever the lane count: stdout is flushed after
a record whenever no further input is waiting, so a live consumer gets
each line when it is ready while a file or a fast pipe stays
block-buffered. One lane extracts in-process. Several lanes (at most
MAX_WORKERS) are forked workers that take CHUNK_LINES lines per task,
with at most CHUNKS_PER_LANE tasks per lane in flight, so a record
reaches a live consumer once its chunk has filled or the input has
ended. A lane that dies ends the run with exit 2; the records already
written stay written, and stderr says how many there are. Lanes end
with their parent, even one killed by a signal.

Exit codes: 0 success, 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import select
import sys
import time
from collections import deque
from itertools import islice

from . import cache as model_cache
from .assets import read_word_list
from .config import MAX_WORKERS, PipelineConfig, bounded_count
from .errors import ConfigError, DataError, LocspotError
from .evaluation import (
    _parse_annotations,
    _read_utf8,
    aggregate,
    format_table,
    match_spans,
    normalize_hashtag_spans,
    ScoreReport,
)
from .extractor import ExtractionConfig, LocationExtractor
from .gazetteer import build_gazetteer, load_gazetteer
from .langmodel import compute_model

USAGE_EXIT = 1
DATA_EXIT = 2
MAX_TEXT_CHARS = 100_000
CHUNK_LINES = 64     # input lines per task sent to a lane
CHUNKS_PER_LANE = 4  # tasks in flight per lane


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="locspot",
                     description="Gazetteer-driven location name extraction")
    parser.add_argument("--config", metavar="PATH",
                        help="pipeline config file (JSON)")
    parser.add_argument("--model-cache", metavar="PATH",
                        help="model cache file to write (build) or read")
    parser.add_argument("--workers", type=int, metavar="N",
                        help="extraction worker lanes (default from config)")
    parser.add_argument("--spell", choices=("on", "off"),
                        help="override spelling correction")
    parser.add_argument("--eval-mode", choices=("standard", "lnex_strict"),
                        help="override scoring mode")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build", help="build gazetteer + model cache")
    sub.add_parser("extract", help="extract mentions from JSON-lines stdin")
    p_eval = sub.add_parser("evaluate", help="score predictions against gold")
    p_eval.add_argument("predictions", help="JSON-lines extraction output")
    p_eval.add_argument("gold_dir", help="directory of BRAT .ann/.txt pairs")
    return parser


def _load_config(args) -> PipelineConfig:
    config = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    if args.workers is not None:
        config.workers = bounded_count("workers", args.workers, MAX_WORKERS)
    if args.spell is not None:
        config.spelling_correction = args.spell == "on"
    if args.eval_mode is not None:
        config.eval_mode = args.eval_mode
    return config


def _build_artifacts(config: PipelineConfig):
    entries = []
    for source in config.gazetteers:
        entries.extend(load_gazetteer(source.path, source.format, config.bbox))
    gazetteer = build_gazetteer(
        entries,
        stopname_list=read_word_list(config.asset("gazetteer_stopnames")),
        phrase_list=read_word_list(config.asset("bracket_phrases")),
        category_words=read_word_list(config.asset("category_words")),
    )
    if not gazetteer.variants:
        raise DataError("gazetteer is empty after filtering; nothing to build")
    return gazetteer, compute_model(gazetteer)


def _extraction_config(config: PipelineConfig) -> ExtractionConfig:
    return ExtractionConfig.load(
        paths=config.asset_paths,
        spelling_correction=config.spelling_correction,
        max_edit_distance=config.max_edit_distance,
    )


def cmd_build(args) -> int:
    config = _load_config(args)
    if not config.gazetteers:
        raise ConfigError("config lists no gazetteer sources")
    if not args.model_cache:
        raise ConfigError("build needs --model-cache PATH to write")
    gazetteer, model = _build_artifacts(config)
    model_cache.save_cache(args.model_cache, gazetteer, model)
    print(f"entries:  {len(gazetteer.entries)}")
    print(f"variants: {len(gazetteer.variants)}")
    print(f"cache:    {args.model_cache}")
    return 0


def process_line(line, extractor) -> str:
    """Turn one input line into one output record line."""
    record_id = None
    try:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError("line is not a JSON object")
        record_id = record.get("id")
        text = record.get("text")
        if not isinstance(text, str):
            raise ValueError("missing or non-string 'text' field")
        if len(text) > MAX_TEXT_CHARS:
            raise ValueError(f"text longer than {MAX_TEXT_CHARS} characters")
        mentions = extractor.extract(text)
        out = {"id": record_id,
               "mentions": [m.to_dict() for m in mentions]}
    except Exception as exc:  # never abort the stream
        out = {"id": record_id, "error": str(exc), "mentions": []}
    return json.dumps(out, sort_keys=True, ensure_ascii=False)


_LANE_EXTRACTOR = None  # set before the lanes fork, so each inherits it


def _extract_chunk(lines) -> list[str]:
    """One lane task: the records of a chunk of lines, in order."""
    return [process_line(line, _LANE_EXTRACTOR) for line in lines]


def _lane_start():
    """End this lane as soon as the parent process is gone.

    A lane waits for work on a queue whose write end it holds itself, so
    without this watch a parent killed by a signal would leave it
    waiting forever.
    """
    import threading
    from multiprocessing import connection, parent_process

    def watch(sentinel):
        connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, args=(parent_process().sentinel,),
                     daemon=True).start()


def _lane_records(stream, workers, extractor):
    """Yield the record of every line of stream, in order, from forked lanes.

    At most CHUNKS_PER_LANE * workers chunks are in flight. Finished
    chunks at the head are yielded as they come, and every chunk in
    flight is waited for before a read that would block, so no record
    waits for input that comes after its chunk.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    global _LANE_EXTRACTOR
    _LANE_EXTRACTOR = extractor
    window = deque()
    most = CHUNKS_PER_LANE * workers
    try:
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_lane_start) as pool:
            for chunk in iter(lambda: list(islice(stream, CHUNK_LINES)), []):
                window.append(pool.submit(_extract_chunk, chunk))
                while window and (len(window) >= most or window[0].done()
                                  or not select.select([stream], [], [], 0)[0]):
                    yield from window.popleft().result()
            while window:
                yield from window.popleft().result()
    except BrokenProcessPool:
        raise DataError("an extraction lane died") from None


def _make_extractor(args, config) -> LocationExtractor:
    if args.model_cache:
        gazetteer, model = model_cache.load_cache(args.model_cache)
    elif config.gazetteers:
        gazetteer, model = _build_artifacts(config)
    else:
        raise ConfigError(
            "extract needs --model-cache PATH or gazetteers in the config")
    return LocationExtractor(model, gazetteer, _extraction_config(config))


def cmd_extract(args) -> int:
    config = _load_config(args)
    # loading keeps one entry-position list per variant, and spelling
    # adds one list per index bucket, all long-lived (5 * 10^4 to 1.5 *
    # 10^5 containers on 30k-50k variants): full collections over the
    # growing heap would scan them repeatedly, and once frozen no later
    # collection (in this process or a forked lane) scans them
    gc.disable()
    try:
        extractor = _make_extractor(args, config)
    finally:
        gc.freeze()
        gc.enable()
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(errors="replace")  # bad bytes must not abort
    if hasattr(sys.stdout, "reconfigure"):
        # valid JSON can decode to a lone surrogate; written as the
        # escape \ud800 it must not abort the stream either
        sys.stdout.reconfigure(errors="backslashreplace")
    records = (_lane_records(sys.stdin, config.workers, extractor)
               if config.workers > 1 else
               (process_line(line, extractor) for line in sys.stdin))
    lines = 0
    started = time.perf_counter()
    try:
        for record in records:
            print(record)
            lines += 1
            if not select.select([sys.stdin], [], [], 0)[0]:
                sys.stdout.flush()
    except DataError as exc:
        raise DataError(f"{exc}; {lines} records written") from None
    elapsed = time.perf_counter() - started
    rate = lines / elapsed if elapsed > 0 else 0.0
    print(f"processed {lines} lines in {elapsed:.2f}s ({rate:.0f} lines/s)",
          file=sys.stderr)
    return 0


def _read_predictions(path) -> dict:
    by_doc: dict = {}
    for lineno, line in enumerate(_read_utf8(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: bad JSON: {exc}") from None
        try:
            if record.get("error"):
                continue
            spans = [(m["char_start"], m["char_end"])
                     for m in record.get("mentions", [])]
            if not all(isinstance(i, int) for span in spans for i in span):
                raise TypeError("char_start and char_end must be integers")
        except (AttributeError, KeyError, TypeError) as exc:
            raise DataError(
                f"{path}:{lineno}: malformed prediction: {exc!r}") from None
        by_doc[str(record.get("id"))] = spans
    return by_doc


def cmd_evaluate(args) -> int:
    from pathlib import Path

    config = _load_config(args)
    predictions = _read_predictions(args.predictions)
    gold_dir = Path(args.gold_dir)
    txt_files = sorted(gold_dir.glob("*.txt"))
    if not txt_files:
        raise DataError(f"no .txt documents under {gold_dir}")

    reports: dict[str, ScoreReport] = {}
    missing = []
    for txt_path in txt_files:
        ann_path = txt_path.with_suffix(".ann")
        if not ann_path.exists():
            raise DataError(f"missing annotation file: {ann_path}")
        doc_id = txt_path.stem
        text = _read_utf8(txt_path)
        gold = _parse_annotations(ann_path, doc_id, text)
        spans = predictions.get(doc_id)
        if spans is None:
            missing.append(doc_id)
            spans = []
        spans = normalize_hashtag_spans(spans, text)
        widened = normalize_hashtag_spans(gold, text)
        gold = [
            dataclasses.replace(g, char_start=start, char_end=end)
            for g, (start, end) in zip(gold, widened)
        ]
        reports[doc_id] = match_spans(
            spans, gold, mode=config.eval_mode,
            partial_tp_credit=config.partial_tp_credit)

    overall = aggregate(reports.values())
    result = {
        "documents": {doc: r.to_dict() for doc, r in reports.items()},
        "aggregate": overall.to_dict(),
        "missing_documents": missing,
        "unmatched_prediction_ids": sorted(
            set(predictions) - set(reports)),
    }
    print(json.dumps(result, sort_keys=True, indent=2))
    table_rows = dict(reports)
    table_rows["TOTAL"] = overall
    print(format_table(table_rows), file=sys.stderr)
    return 0


_COMMANDS = {
    "build": cmd_build,
    "extract": cmd_extract,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"locspot: config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (DataError, LocspotError) as exc:
        print(f"locspot: {exc}", file=sys.stderr)
        return DATA_EXIT
    except OSError as exc:
        print(f"locspot: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
