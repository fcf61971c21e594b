import contextlib
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from locspot import load_cache
from locspot.cache import MAGIC, VERSION
from locspot.cli import CHUNK_LINES, MAX_TEXT_CHARS
from locspot.errors import DataError

DATA = Path(__file__).parent / "data"
CONFIG = DATA / "config.json"
GOLDEN = DATA / "golden_tweets.jsonl"


def run_cli(*args, stdin=""):
    # block-buffered stdout as on any pipe, whatever the caller's shell sets
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "locspot", *args],
        input=stdin, capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "mini.lspc"
    result = run_cli("--config", str(CONFIG), "--model-cache", str(path),
                     "build")
    assert result.returncode == 0, result.stderr
    return path


# ------------------------------------------------------------------ build

def test_build_reports_counts(cache_path):
    result = run_cli("--config", str(CONFIG), "--model-cache",
                     str(cache_path), "build")
    assert result.returncode == 0
    out = result.stdout
    assert "entries:  16" in out
    # 28 variants: 18 cleaned surfaces plus the 8 skip-gram forms of the
    # five-token school name, plus "new road" and "little school"
    assert "variants: 28" in out


def test_build_without_cache_path_is_usage_error():
    result = run_cli("--config", str(CONFIG), "build")
    assert result.returncode == 1


def test_build_missing_source_is_config_error(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({
        "gazetteers": [{"path": "nope.json", "format": "generic_json"}]}))
    result = run_cli("--config", str(config), "--model-cache",
                     str(tmp_path / "c.lspc"), "build")
    assert result.returncode == 1


def test_build_empty_gazetteer_is_data_error(tmp_path):
    source = tmp_path / "empty.json"
    source.write_text("[]")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "gazetteers": [{"path": "empty.json", "format": "generic_json"}]}))
    result = run_cli("--config", str(config), "--model-cache",
                     str(tmp_path / "c.lspc"), "build")
    assert result.returncode == 2


def test_build_malformed_osm_tags_is_data_error(tmp_path):
    source = tmp_path / "osm.json"
    source.write_text(json.dumps([{"id": 1, "name": "Adyar"},
                                  {"id": 2, "name": "Guindy", "tags": "ab"}]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "gazetteers": [{"path": "osm.json", "format": "osm_json"}]}))
    result = run_cli("--config", str(config), "--model-cache",
                     str(tmp_path / "c.lspc"), "build")
    assert result.returncode == 2
    assert "record 1" in result.stderr
    assert "Traceback" not in result.stderr


def test_build_is_reproducible(cache_path, tmp_path):
    other = tmp_path / "again.lspc"
    result = run_cli("--config", str(CONFIG), "--model-cache", str(other),
                     "build")
    assert result.returncode == 0
    assert other.read_bytes() == cache_path.read_bytes()


# ---------------------------------------------------------------- extract

def extract_lines(cache_path, stdin, *extra):
    result = run_cli("--model-cache", str(cache_path), *extra, "extract",
                     stdin=stdin)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_extract_golden_stream(cache_path):
    lines = extract_lines(cache_path, GOLDEN.read_text(encoding="utf-8"))
    records = [json.loads(line) for line in lines]
    assert [r["id"] for r in records] == [f"t{i}" for i in range(1, 9)]

    by_id = {r["id"]: r for r in records}
    t1 = [m["matched_name"] for m in by_id["t1"]["mentions"]]
    assert t1 == ["oxford school", "west mambalam"]
    t2 = by_id["t2"]["mentions"]
    assert [m["matched_name"] for m in t2] == ["new iberia", "louisiana"]
    assert t2[1]["from_hashtag"] is True
    t3 = [m["matched_name"] for m in by_id["t3"]["mentions"]]
    assert t3 == ["houston"]
    assert by_id["t5"]["mentions"] == []
    t7 = [m["matched_name"] for m in by_id["t7"]["mentions"]]
    assert t7 == ["cars india - adyar"]
    for record in records:
        starts = [m["char_start"] for m in record["mentions"]]
        assert starts == sorted(starts)


def test_extract_empty_stream(cache_path):
    assert extract_lines(cache_path, "") == []


def test_extract_error_records_inline(cache_path):
    stdin = "\n".join([
        '{"id": "ok", "text": "Houston is flooded"}',
        "this is not json",
        '{"id": "bad", "text": 42}',
        '["also", "wrong"]',
    ]) + "\n"
    records = [json.loads(line)
               for line in extract_lines(cache_path, stdin)]
    assert len(records) == 4
    assert records[0]["mentions"][0]["matched_name"] == "houston"
    assert "error" in records[1] and records[1]["mentions"] == []
    assert "error" in records[2] and records[2]["id"] == "bad"
    assert "error" in records[3]


def test_extract_crash_free_on_fuzzed_bytes(cache_path):
    rng = random.Random(47)
    alphabet = '{}[]":,abc #é\\n0'
    lines = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
             for _ in range(60)]
    stdin = "\n".join(lines) + "\n"
    out = extract_lines(cache_path, stdin)
    assert len(out) == len([l for l in stdin.splitlines()])
    for line in out:
        json.loads(line)


def test_extract_survives_invalid_utf8_bytes(cache_path):
    stdin = b'{"id": "a", "text": "Houston"}\n\xff\xfe{bad\n\x80\x81\n'
    result = subprocess.run(
        [sys.executable, "-m", "locspot", "--model-cache", str(cache_path),
         "extract"],
        input=stdin, capture_output=True)
    assert result.returncode == 0, result.stderr
    out_lines = result.stdout.decode("utf-8").splitlines()
    assert len(out_lines) == 3
    assert json.loads(out_lines[0])["mentions"]
    assert "error" in json.loads(out_lines[1])


def test_extract_survives_lone_surrogate_id(cache_path):
    # valid JSON whose id decodes to a lone surrogate, which UTF-8 cannot
    # encode: its record is written with the escape, the stream goes on
    stdin = "\n".join([
        '{"id": "a", "text": "Houston is flooded"}',
        '{"id": "\\ud800", "text": "adyar road"}',
        '{"id": "c", "text": "Houston is flooded"}',
    ]) + "\n"
    single = extract_lines(cache_path, stdin, "--workers", "1")
    assert extract_lines(cache_path, stdin, "--workers", "2") == single
    records = [json.loads(line) for line in single]
    assert [r["id"] for r in records] == ["a", "\ud800", "c"]
    assert records[1]["mentions"][0]["matched_name"] == "adyar"
    assert records[2]["mentions"][0]["matched_name"] == "houston"


def test_extract_worker_lanes_bit_identical(cache_path):
    stdin = GOLDEN.read_text(encoding="utf-8")
    single = extract_lines(cache_path, stdin, "--workers", "1")
    quad = extract_lines(cache_path, stdin, "--workers", "4")
    assert single == quad


# replaces process_line with one that ends its process on the line whose
# text is "die", then runs the CLI with the remaining arguments
_LANE_KILLER = """
import os, sys
from locspot import cli
process_line = cli.process_line
def dying(line, *extractor):
    if '"text": "die"' in line:
        os._exit(1)
    return process_line(line, *extractor)
cli.process_line = dying
sys.exit(cli.main(sys.argv[1:]))
"""


def test_extract_lane_death_ends_the_run(cache_path):
    # a lane that dies must end the run, not hang it: every record that
    # stderr counts is on stdout, in order, and nothing after them
    stdin = "".join(
        json.dumps({"id": f"l{i}",
                    "text": "die" if i == 300 else "Houston is flooded"})
        + "\n" for i in range(400))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    result = subprocess.run(
        [sys.executable, "-c", _LANE_KILLER, "--model-cache",
         str(cache_path), "--workers", "2", "extract"],
        input=stdin, capture_output=True, text=True, env=env, timeout=30)
    assert result.returncode == 2, result.stderr
    written = int(re.search(r"(\d+) records written", result.stderr)[1])
    lines = result.stdout.splitlines()
    assert len(lines) == written < 300
    assert lines == extract_lines(cache_path, stdin, "--workers", "1")[:written]
    assert "Traceback" not in result.stderr


def test_extract_flushes_when_input_is_idle(cache_path):
    # stdin stays open: the record must arrive without an end of stream,
    # from a child whose stdout is block-buffered as on any pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen(
            [sys.executable, "-m", "locspot", "--model-cache",
             str(cache_path), "extract"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=env) as proc:
        try:
            proc.stdin.write(b'{"id": "live", "text": "Houston is flooded"}\n')
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready, "no record within 10 s while stdin stayed open"
            record = json.loads(proc.stdout.readline())
        finally:
            proc.kill()
    assert record["id"] == "live"
    assert record["mentions"][0]["matched_name"] == "houston"


@contextlib.contextmanager
def live_lanes(cache_path):
    """An `extract` on two lanes whose stdin stays open."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen(
            [sys.executable, "-m", "locspot", "--model-cache",
             str(cache_path), "--workers", "2", "extract"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=env,
            start_new_session=True) as proc:
        try:
            yield proc
        finally:
            # the lanes too, whatever the test left running
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)


def read_until(proc, lines=None, seconds=10):
    """Read stdout until it holds `lines` lines, or to its end."""
    out = b""
    while lines is None or out.count(b"\n") < lines:
        ready, _, _ = select.select([proc.stdout], [], [], seconds)
        assert ready, f"stalled after {out.count(10)} lines"
        data = os.read(proc.stdout.fileno(), 1 << 16)
        if not data:
            break
        out += data
    return out


def write_a_chunk(proc):
    proc.stdin.write(b"".join(
        b'{"id": "l%d", "text": "Houston is flooded"}\n' % i
        for i in range(CHUNK_LINES)))
    proc.stdin.flush()


def test_extract_lanes_write_a_full_chunk_while_input_is_idle(cache_path):
    # with several lanes a record waits only for its own chunk to fill,
    # never for input after it
    with live_lanes(cache_path) as proc:
        write_a_chunk(proc)
        out = read_until(proc, CHUNK_LINES)
    assert [json.loads(line)["id"] for line in out.splitlines()] == [
        f"l{i}" for i in range(CHUNK_LINES)]


def test_extract_lanes_end_with_a_killed_parent(cache_path):
    # the lanes share the parent's stdout, so it reaches its end only
    # once no lane is left
    with live_lanes(cache_path) as proc:
        write_a_chunk(proc)
        read_until(proc, CHUNK_LINES)  # so the lanes have started
        proc.kill()
        proc.wait()
        read_until(proc)


def test_extract_caps_text_length(cache_path):
    stdin = "".join(json.dumps({"id": record_id, "text": text}) + "\n"
                    for record_id, text in [
                        ("at_cap", "a" * MAX_TEXT_CHARS),
                        ("long", "Houston " + "a" * MAX_TEXT_CHARS),
                        ("next", "Houston is flooded"),
                    ])
    records = [json.loads(line) for line in extract_lines(cache_path, stdin)]
    assert records[0] == {"id": "at_cap", "mentions": []}
    assert records[1] == {"id": "long", "mentions": [],
                          "error": "text longer than 100000 characters"}
    assert records[2]["mentions"][0]["matched_name"] == "houston"


def test_extract_ignores_corrupt_entries_member(cache_path, tmp_path):
    blob = cache_path.read_bytes()
    reader = zlib.decompressobj()
    reader.decompress(blob[5:])
    start = len(blob) - len(reader.unused_data)
    corrupt = tmp_path / "corrupt.lspc"
    corrupt.write_bytes(blob[:start] + bytes(len(blob) - start))

    stdin = GOLDEN.read_text(encoding="utf-8")
    assert extract_lines(corrupt, stdin) == extract_lines(cache_path, stdin)
    gazetteer, _ = load_cache(corrupt)
    with pytest.raises(DataError, match="corrupt.lspc"):
        gazetteer.entries["generic:g9"]


def test_extract_missing_cache_nonzero_exit(tmp_path):
    result = run_cli("--model-cache", str(tmp_path / "absent.lspc"),
                     "extract", stdin="")
    assert result.returncode != 0


def test_extract_wrong_shape_cache_is_data_error(tmp_path):
    path = tmp_path / "shape.lspc"
    path.write_bytes(MAGIC + bytes([VERSION])
                     + zlib.compress(json.dumps({"entries": {}}).encode()))
    result = run_cli("--model-cache", str(path), "extract", stdin="")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("body", [
    {"gazetteers": ["x.json"]},
    {"bbox": 5},
    {"max_edit_distance": "two"},
    {"workers": "two"},
    {"workers": True},
    {"partial_tp_credit": "half"},
    {"max_edit_distance": 0, "spelling_correction": True},
    {"spelling_correction": "false"},
])
def test_extract_malformed_config_is_config_error(cache_path, tmp_path, body):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(body))
    result = run_cli("--config", str(config), "--model-cache",
                     str(cache_path), "extract", stdin="")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("asset, name, data, where", [
    ("english_unigrams", "unigrams.txt", b"road\tabc\n", "unigrams.txt:1"),
    ("english_unigrams", "unigrams.txt", b"the\t0\n", "unigrams.txt:1"),
    ("english_unigrams", "unigrams.txt", b"# no words\n", "unigrams.txt"),
    ("tweet_stopwords", "stopwords.txt", "caf\xe9\n".encode("latin-1"),
     "stopwords.txt"),
    (None, "latin1.json", json.dumps([{"id": 1, "name": "Caf\xe9 Road"}],
                                     ensure_ascii=False).encode("latin-1"),
     "latin1.json"),
], ids=["bad_count", "zero_count", "no_words", "latin1_asset",
        "latin1_gazetteer"])
def test_unreadable_input_file_is_data_error(cache_path, tmp_path, asset,
                                             name, data, where):
    (tmp_path / name).write_bytes(data)
    if asset is None:
        body = {"gazetteers": [{"path": name, "format": "generic_json"}]}
        args = ("--model-cache", str(tmp_path / "c.lspc"), "build")
    else:
        body = {"assets": {asset: name}}
        args = ("--model-cache", str(cache_path), "extract")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body))
    result = run_cli("--config", str(config), *args)
    assert result.returncode == 2
    assert where in result.stderr
    assert "Traceback" not in result.stderr


# --------------------------------------------------------------- evaluate

GOLD_DOCS = {
    "t1": ("sou th kr koil street near Oxford school.west mambalam..",
           [("inLoc", "Oxford school"), ("inLoc", "west mambalam")]),
    "t2": ("We r lucky where I am in New Iberia. #PrayForLouisiana #lawx",
           [("inLoc", "New Iberia"), ("inLoc", "#PrayForLouisiana"),
            ("inLoc", "la")]),
    "t3": ("Didn't Houston have a bad flood last year now again poor htown",
           [("inLoc", "Houston"), ("ambLoc", "htown")]),
    "t4": ("evacuations near The Louisiana now",
           [("inLoc", "Louisiana")]),
    "t5": ("shelter open at Oxford School gym",
           [("inLoc", "Oxford School")]),
}


@pytest.fixture(scope="module")
def gold_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("gold")
    for doc_id, (text, spans) in GOLD_DOCS.items():
        (root / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        lines = []
        for index, (category, surface) in enumerate(spans, start=1):
            start = text.index(surface)
            lines.append(
                f"T{index}\t{category} {start} {start + len(surface)}"
                f"\t{surface}")
        (root / f"{doc_id}.ann").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def predictions_path(cache_path, gold_dir, tmp_path_factory):
    stdin = "".join(
        json.dumps({"id": doc_id, "text": GOLD_DOCS[doc_id][0]}) + "\n"
        for doc_id in ("t1", "t2", "t3"))
    lines = extract_lines(cache_path, stdin)
    # hand-built partial match: "The Louisiana" over gold "Louisiana"
    text4 = GOLD_DOCS["t4"][0]
    start = text4.index("The Louisiana")
    lines.append(json.dumps({
        "id": "t4",
        "mentions": [{"surface": "The Louisiana", "matched_name": "louisiana",
                      "char_start": start,
                      "char_end": start + len("The Louisiana"),
                      "entry_ids": ["generic:g4"], "from_hashtag": False}],
    }))
    path = tmp_path_factory.mktemp("pred") / "predictions.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_evaluate_toy_corpus(predictions_path, gold_dir):
    result = run_cli("--config", str(CONFIG), "evaluate",
                     str(predictions_path), str(gold_dir))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)

    docs = report["documents"]
    assert docs["t1"]["tp"] == 2 and docs["t1"]["fp"] == 0
    assert docs["t2"] == pytest.approx(
        {"tp": 2, "fp": 0, "fn": 1, "precision": 1.0, "recall": 2 / 3,
         "f1": 0.8})
    assert docs["t3"]["tp"] == 1 and docs["t3"]["fn"] == 0
    # the partial-match document shows the half penalties
    assert docs["t4"] == pytest.approx(
        {"tp": 0, "fp": 0.5, "fn": 0.5, "precision": 0, "recall": 0,
         "f1": 0})
    assert docs["t5"]["fn"] == 1
    assert report["missing_documents"] == ["t5"]

    # aggregate micro-average, worked out by hand
    agg = report["aggregate"]
    assert agg["tp"] == 5 and agg["fp"] == 0.5 and agg["fn"] == 2.5
    assert agg["precision"] == pytest.approx(10 / 11)
    assert agg["recall"] == pytest.approx(2 / 3)
    assert agg["f1"] == pytest.approx(10 / 13)
    assert "TOTAL" in result.stderr


def test_evaluate_strict_mode_counts_ambloc(predictions_path, gold_dir,
                                            cache_path, tmp_path):
    # add an exact ambLoc hit: predict "htown" on t3
    text3 = GOLD_DOCS["t3"][0]
    start = text3.index("htown")
    extra = {"id": "t3", "mentions": [
        {"surface": "htown", "matched_name": "htown", "char_start": start,
         "char_end": start + len("htown"), "entry_ids": ["x"],
         "from_hashtag": False},
        {"surface": "Houston", "matched_name": "houston",
         "char_start": 7, "char_end": 14, "entry_ids": ["generic:g5"],
         "from_hashtag": False},
    ]}
    lines = [line for line in
             predictions_path.read_text(encoding="utf-8").splitlines()
             if json.loads(line)["id"] != "t3"]
    lines.append(json.dumps(extra))
    path = tmp_path / "strict.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    standard = json.loads(run_cli(
        "--config", str(CONFIG), "evaluate", str(path),
        str(gold_dir)).stdout)
    strict = json.loads(run_cli(
        "--config", str(CONFIG), "--eval-mode", "lnex_strict", "evaluate",
        str(path), str(gold_dir)).stdout)
    assert standard["documents"]["t3"]["fp"] == 0
    assert strict["documents"]["t3"]["fp"] == 1
    assert (strict["aggregate"]["precision"]
            <= standard["aggregate"]["precision"])


@pytest.mark.parametrize("line", [
    "[1, 2]",
    '{"id": "t1", "mentions": [{"char_start": 0}]}',
    '{"id": "t1", "mentions": [{"char_start": "0", "char_end": 3}]}',
    '{"id": "t1", "mentions": 5}',
], ids=["array", "no_char_end", "string_offset", "mentions_not_list"])
def test_evaluate_malformed_prediction_is_data_error(gold_dir, tmp_path,
                                                     line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "t2", "mentions": []}\n' + line + "\n",
                    encoding="utf-8")
    result = run_cli("evaluate", str(path), str(gold_dir))
    assert result.returncode == 2
    assert f"{path}:2:" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("name", ["t1.txt", "t1.ann", "pred.jsonl"])
def test_evaluate_non_utf8_input_is_data_error(tmp_path, name):
    gold = tmp_path / "gold"
    gold.mkdir()
    files = {
        "t1.txt": "Caf\xe9 near Adyar",
        "t1.ann": "T1\tinLoc 10 15\tAdyar\n#1\tAnnotatorNotes T1\tcaf\xe9\n",
        "pred.jsonl": '{"id": "t1", "mentions": [], "note": "caf\xe9"}\n',
    }
    for file_name, text in files.items():
        path = (tmp_path if file_name == "pred.jsonl" else gold) / file_name
        path.write_bytes(text.encode(
            "latin-1" if file_name == name else "utf-8"))
    result = run_cli("evaluate", str(tmp_path / "pred.jsonl"), str(gold))
    assert result.returncode == 2
    assert name in result.stderr
    assert "Traceback" not in result.stderr


# ------------------------------------------------------------------ misc

def test_unknown_subcommand_usage_exit():
    # "bench" is not one: perfbench/run.py is the benchmark
    for command in ("frobnicate", "bench"):
        result = run_cli(command)
        assert result.returncode == 1, command


def test_bad_eval_mode_usage_exit():
    result = run_cli("--eval-mode", "wrong", "build")
    assert result.returncode == 1
