import builtins
import configparser
import dataclasses
import functools
import glob
import hashlib
import importlib.util
import json
import logging
import operator
import os
import re
import typing
import shlex
import shutil
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from helpers import ChatStub, assert_same_graph, read_bytes, read_lines, read_records, read_text, serving
from kgrerank import cli, discriminator, embeddings, instructions
from kgrerank import kg as kg_module
from kgrerank.cli import ConfigError, load_config, main, stage_digest, stage_output
from kgrerank.embeddings import EmbeddingTable
from kgrerank.kg import load_kg
from kgrerank.ranking import metrics, queries_for_triple, rank_queries

# the built graph's files under graph-<digest>/, sorted
GRAPH_FILES = ["graph.npy", "texts.bin"]
# the sections of graph.npy, in order
GRAPH_SECTIONS = [name.lstrip("_") for name in kg_module._SECTIONS]

FAST_EMBEDDER = """
[embedder]
dim = 12
learning_rate = 0.1
epochs = 40
batch_size = 16
seed = 0
"""


def write_config(path, dataset_dir, workdir, extra=""):
    path.write_text(
        f"[pipeline]\ndataset_dir = {dataset_dir}\nworkdir = {workdir}\n"
        + FAST_EMBEDDER
        + "\n[ranker]\nm = 5\n"
        + extra,
        encoding="utf-8",
    )
    return str(path)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def workdir_file(workdir, prefix, name=None):
    entries = [e for e in os.listdir(workdir) if e.startswith(prefix)]
    assert entries, f"no {prefix}* in {os.listdir(workdir)}"
    entry = os.path.join(workdir, sorted(entries)[0])
    return os.path.join(entry, name) if name else entry


def test_load_config_defaults_and_overrides(tmp_path, toy_dir):
    cfg_path = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    cfg = load_config(cfg_path, overrides=["ranker.beta=0.5", "instruct.gamma=2"])
    assert cfg.ranker.m == 5
    assert cfg.ranker.beta == 0.5
    assert cfg.instruct.gamma == 2
    assert cfg.embedder.epochs == 40
    assert cfg.backend.kind == "oracle"


def test_load_config_rejects_unknown_key(tmp_path, toy_dir):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        f"[pipeline]\ndataset_dir = {toy_dir}\nworkdir = {tmp_path}\nbogus = 1\n"
    )
    with pytest.raises(ConfigError, match="unknown config key pipeline.bogus"):
        load_config(str(cfg_path))


def test_load_config_rejects_unknown_section(tmp_path, toy_dir):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"unknown config section \[mystery\]"):
        load_config(str(cfg_path))


def test_load_config_requires_dataset_dir(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(f"[pipeline]\nworkdir = {tmp_path}\n")
    with pytest.raises(ConfigError, match="pipeline.dataset_dir"):
        load_config(str(cfg_path))


def test_stage_digest_ignores_workdir(tmp_path, toy_dir):
    a = load_config(write_config(tmp_path / "a.ini", toy_dir, tmp_path / "wa"))
    b = load_config(write_config(tmp_path / "b.ini", toy_dir, tmp_path / "wb"))
    assert stage_digest(a, "embedder") == stage_digest(b, "embedder")
    c = load_config(write_config(tmp_path / "c.ini", toy_dir, tmp_path / "wc"), ["embedder.seed=9"])
    assert stage_digest(a, "embedder") != stage_digest(c, "embedder")


@pytest.mark.parametrize(
    "overrides, addresses",
    [
        ([], ("embeddings-e0dae0a7aebd", "finetune-8fd730536385", "eval-8fd730536385", "report-5dde8bc88fa1")),
        (
            [
                "embedder.negatives=2",
                "ranker.alpha=0.5",
                "instruct.gamma=0",
                "instruct.seed=3",
                "backend.kind=remote",
                "backend.timeout=12",
                "eval.audit=yes",
            ],
            ("embeddings-49946a47ee7c", "finetune-344fd4a2e538", "eval-344fd4a2e538", "report-7a9275f5cbf2"),
        ),
    ],
)
def test_stage_addresses_are_pinned(tmp_path, toy_dir, overrides, addresses):
    # golden values: a change to the digest payload re-addresses every cached stage output
    cfg = load_config(write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w"), overrides)
    stages = ("embeddings", "finetune", "eval", "report")
    assert tuple(os.path.basename(stage_output(cfg, stage)) for stage in stages) == addresses


def test_only_what_shapes_a_report_moves_its_address(tmp_path, toy_dir):
    # a run that fails under a transport setting exits 3 and publishes nothing,
    # so a longer timeout finds the report that a shorter one wrote
    cfg = write_config(
        tmp_path / "run.ini",
        toy_dir,
        tmp_path / "w",
        extra="\n[backend]\nkind = remote\nendpoint = http://127.0.0.1:1/v1\nmodel = m\n",
    )
    report = stage_output(load_config(cfg), "report")
    for override in (
        "backend.timeout=99", "backend.retries=7", "backend.backoff=3", "backend.in_flight=9", "pipeline.threads=4",
    ):
        assert stage_output(load_config(cfg, [override]), "report") == report, override
    for override in (
        "backend.kind=oracle", "backend.endpoint=http://127.0.0.1:2/v1", "backend.model=n", "backend.auth_token_env=T",
    ):
        assert stage_output(load_config(cfg, [override]), "report") != report, override


def test_the_graph_address_is_pinned(tmp_path, toy_dir):
    # golden value: only the dataset's bytes and kg.GRAPH_LAYOUT move it
    cfg = load_config(write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w"))
    assert os.path.basename(stage_output(cfg, "graph")) == "graph-3eac623a4195"


def test_readme_config_reference_matches_the_schema():
    readme = read_text(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"))
    block = readme.split("## Config reference", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.read_string(block)
    assert set(parser.sections()) == set(cli._SECTIONS)
    for section, cls in cli._SECTIONS.items():
        fields = dataclasses.fields(cls)
        assert set(parser[section]) == {f.name for f in fields}, section
        types = typing.get_type_hints(cls)
        for f in fields:
            if f.default is not dataclasses.MISSING:
                documented = cli._CASTS[types[f.name]](parser[section][f.name])
                assert documented == f.default, f"{section}.{f.name}"


def test_in_flight_cap_bounds_concurrency(tmp_path, toy_dir, monkeypatch):
    lock = threading.Lock()
    active = peak = 0

    def counting_request(sample, config):
        nonlocal active, peak
        with lock:
            active += 1
            peak = max(peak, active)
        time.sleep(0.01)
        with lock:
            active -= 1
        return ""

    monkeypatch.setattr(discriminator, "remote_request", counting_request)
    cfg = write_config(
        tmp_path / "run.ini",
        toy_dir,
        tmp_path / "w",
        extra="\n[backend]\nkind = remote\nendpoint = http://127.0.0.1:1/unused\nin_flight = 2\n",
    )
    assert main(["evaluate", "--config", cfg, "--set", "pipeline.threads=8"]) == 0
    assert peak == 2


def test_template_version_readdresses_instruction_sets(tmp_path, toy_dir, monkeypatch):
    cfg = load_config(write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w"))
    before = {stage: cli.stage_output(cfg, stage) for stage in ("embeddings", "finetune", "eval", "report")}
    monkeypatch.setattr(cli, "TEMPLATE_VERSION", cli.TEMPLATE_VERSION + 1)
    after = {stage: cli.stage_output(cfg, stage) for stage in before}
    assert after["embeddings"] == before["embeddings"]
    for stage in ("finetune", "eval", "report"):
        assert after[stage] != before[stage]


def _at_length(record, length):
    """``record`` as an ASCII instruction line of ``length`` bytes, its prompt cut or padded to fit."""
    line = json.dumps(record, separators=(",", ":")) + "\n"
    record = {**record, "prompt": (record["prompt"] + " " * length)[: len(record["prompt"]) + length - len(line)]}
    line = json.dumps(record, separators=(",", ":")) + "\n"
    assert line.isascii() and len(line) == length
    return line


# each edit keeps the line's byte length; the last element is what ``inspect``
# says of line 3, or None where it prints that line
RECORD_EDITS = {
    "foreign-key": (  # a key this layout does not have
        lambda line: _at_length({**json.loads(line), "knowledge_ref_offsets": [0, 1, 2, 3, 4, 5]}, len(line)).encode(),
        "knowledge_ref_offsets",
    ),
    "not-utf8": (  # a lone 0xff byte inside the prompt
        lambda line: line.replace(b"Candidates:", b"\xffandidates:", 1),
        "'utf-8' codec can't decode byte 0xff",
    ),
    "another-type": (  # a list where an int belongs
        lambda line: _at_length({**json.loads(line), "gold_rank": []}, len(line)).encode(),
        None,
    ),
    # values of the right types that evaluate cannot score
    "gold-rank-below-1": (
        lambda line: _at_length({**json.loads(line), "gold_rank": -4}, len(line)).encode(),
        None,
    ),
    "candidate-rank-below-1": (
        lambda line: _at_length(
            {**json.loads(line), "candidate_ranks": [-1, *json.loads(line)["candidate_ranks"][1:]]}, len(line)
        ).encode(),
        None,
    ),
    "candidate-lengths": (  # a name more than there are ids and ranks
        lambda line: _at_length(
            {**json.loads(line), "candidate_names": [*json.loads(line)["candidate_names"], "extra"]}, len(line)
        ).encode(),
        None,
    ),
    "direction": (
        lambda line: _at_length({**json.loads(line), "direction": "sideways"}, len(line)).encode(),
        None,
    ),
    # values that evaluate would score wrongly or not at all: line 3 is test-1-tail,
    # its gold at rank 18, outside the top 5
    "direction-against-id": (
        lambda line: _at_length({**json.loads(line), "direction": "head"}, len(line)).encode(),
        None,
    ),
    "candidate-ranks-repeat": (
        lambda line: _at_length({**json.loads(line), "candidate_ranks": [1, 2, 3, 4, 4]}, len(line)).encode(),
        None,
    ),
    "gold-rank-within-m": (  # the gold is no candidate
        lambda line: _at_length({**json.loads(line), "gold_rank": 1}, len(line)).encode(),
        None,
    ),
    "gold-among-candidates-past-m": (  # the first candidate becomes the gold
        lambda line: _at_length(
            {**json.loads(line), "candidate_ids": [json.loads(line)["gold_id"], *json.loads(line)["candidate_ids"][1:]]},
            len(line),
        ).encode(),
        None,
    ),
    # what a backend reads: the prompt it is sent and the names it selects from
    "prompt-byte": (
        lambda line: line.replace(b"Candidates:", b"Candidatez:", 1),
        None,
    ),
    "candidate-name": (  # the first name, its letters upper-cased
        lambda line: _at_length(
            {**json.loads(line), "candidate_names": [json.loads(line)["candidate_names"][0].upper(),
                                                     *json.loads(line)["candidate_names"][1:]]},
            len(line),
        ).encode(),
        None,
    ),
}


@pytest.mark.parametrize("edit, inspect_error", RECORD_EDITS.values(), ids=RECORD_EDITS)
def test_a_cached_set_with_an_edited_record_is_rebuilt_before_it_is_scored(
    tmp_path, toy_dir, monkeypatch, caplog, capsys, edit, inspect_error
):
    caplog.set_level(logging.WARNING, logger="kgrerank.cli")
    audit = "--set=eval.audit=yes"  # the report's audit.jsonl is one of its files
    clean = _clean_run(tmp_path, toy_dir, ["evaluate"], audit)
    workdir = tmp_path / "w"
    cfg = write_config(tmp_path / "run.ini", toy_dir, workdir)
    assert main(["build-eval", "--config", cfg]) == 0
    path = workdir_file(workdir, "eval-", "instructions.jsonl")
    built = sha256(path)
    lines = read_bytes(path).splitlines(keepends=True)
    edited = edit(lines[2])
    assert edited != lines[2] and len(edited) == len(lines[2])
    lines[2] = edited
    with open(path, "wb") as f:
        f.write(b"".join(lines))
    damaged = sha256(path)
    capsys.readouterr()
    # inspect reads any instruction file: it refuses only a line it cannot print
    assert main(["inspect", "--file", path, "--index", "2"]) == (0 if inspect_error is None else 2)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if inspect_error is not None:
        assert f"{path}:3: not an instruction record: " in err and inspect_error in err
    seen = _watch_the_cached_set(monkeypatch)
    caplog.clear()
    assert main(["evaluate", "--config", cfg, audit]) == 0
    # refused before its first record: every sample scored is one of the rebuilt set
    assert seen["opened"] == [] and seen["at_refusal"] == [(0, 0)] and len(seen["selected"]) == 24
    assert _warnings(caplog) == [
        f"rebuilding {os.path.dirname(path)}, which its reader refuses: "
        f"{path}: sha256 {damaged}, but summary.json records {built}"
    ]
    assert _tree(workdir) == clean


@pytest.mark.parametrize(
    "override",
    [
        "eval.limit_triples=-13",
        "backend.retries=-1",
        "backend.backoff=-0.5",
        "backend.timeout=-1",
        "backend.timeout=0",
        "backend.timeout=nan",
        "backend.in_flight=0",
        "pipeline.threads=0",
        "pipeline.threads=-3",
        "ranker.alpha=nan",
        "ranker.beta=nan",
        "embedder.learning_rate=nan",
        "embedder.margin=nan",
        "ranker.alpha=inf",
        "ranker.beta=inf",
        "embedder.learning_rate=inf",
        "embedder.margin=inf",
        "backend.timeout=inf",
        "backend.backoff=inf",
        "ranker.m=0",
        "ranker.local_norm=l2",
        "instruct.gamma=-1",
        "instruct.max_description_chars=-1",
        "eval.audit=maybe",
        "embedder.dim=ten",
    ],
)
def test_values_that_would_do_the_wrong_thing_are_config_errors(tmp_path, toy_dir, capsys, override):
    workdir = tmp_path / "w"
    cfg = write_config(tmp_path / "run.ini", toy_dir, workdir)
    assert main(["evaluate", "--config", cfg, "--set", override]) == 1
    assert override.split("=")[0] in capsys.readouterr().err
    assert not (workdir.exists() and any(e.startswith("eval-") for e in os.listdir(workdir)))


# what is written before the config's own lines (None: no config file at
# all), the --set values, and what the error says
CONFIG_REFUSALS = {
    "no-file": (None, [], "config file not found: {cfg}"),
    "line-before-a-section": ("threads = 2\n", [], "cannot parse {cfg}: File contains no section headers"),
    "set-without-equals": ("", ["pipeline.threads"], "must look like section.key=value, got 'pipeline.threads'"),
    "set-without-a-section": ("", ["threads=2"], "must look like section.key=value, got 'threads=2'"),
    "set-an-unknown-key": ("", ["pipeline.bogus=1"], "unknown config key pipeline.bogus"),
    # configparser would copy its keys into every section, where each is an unknown key
    "a-default-section": ("[DEFAULT]\nseed = 3\n", [], "unknown config section [DEFAULT]"),
}


@pytest.mark.parametrize("prefix, overrides, message", CONFIG_REFUSALS.values(), ids=CONFIG_REFUSALS)
def test_a_config_that_load_config_refuses_exits_1(tmp_path, toy_dir, capsys, prefix, overrides, message):
    workdir = tmp_path / "w"
    cfg = write_config(tmp_path / "run.ini", toy_dir, workdir)
    if prefix is None:
        os.remove(cfg)
    else:
        text = read_text(cfg)
        with open(cfg, "w", encoding="utf-8") as f:
            f.write(prefix + text)
    sets = [arg for override in overrides for arg in ("--set", override)]
    assert main(["evaluate", "--config", cfg, *sets]) == 1
    assert message.format(cfg=cfg) in capsys.readouterr().err
    assert not workdir.exists()


def _count_parses(monkeypatch):
    """The name of every triple file parsed from now on, one per parse."""
    parsed = []
    original = kg_module._read_triples

    def counting(path, *args):
        parsed.append(os.path.basename(path))
        return original(path, *args)

    monkeypatch.setattr(kg_module, "_read_triples", counting)
    return parsed


def test_editing_a_dataset_file_in_place_retrains(tmp_path, toy_dir, monkeypatch):
    dataset = tmp_path / "dataset"
    shutil.copytree(toy_dir, dataset)
    workdir = tmp_path / "w"
    cfg = write_config(tmp_path / "run.ini", dataset, workdir)
    assert main(["train-embeddings", "--config", cfg]) == 0
    before = {e for e in os.listdir(workdir) if e.endswith(".ckpt")}
    graphs = {e for e in os.listdir(workdir) if e.startswith("graph-")}
    train_file = dataset / "train.txt"
    lines = train_file.read_text(encoding="utf-8").splitlines(keepends=True)
    train_file.write_text("".join(lines[:-1]), encoding="utf-8")  # drop one fact
    parsed = _count_parses(monkeypatch)
    assert main(["train-embeddings", "--config", cfg]) == 0
    after = {e for e in os.listdir(workdir) if e.endswith(".ckpt")}
    assert len(before) == 1 and len(after - before) == 1
    # the parsed triples move to a new address, parsed from the edited file
    new_graphs = {e for e in os.listdir(workdir) if e.startswith("graph-")} - graphs
    assert len(graphs) == 1 and len(new_graphs) == 1
    assert sorted(parsed) == ["test.txt", "train.txt", "valid.txt"]
    cached = kg_module._read_built(os.path.join(workdir, new_graphs.pop()))
    assert len(cached.train) == len(lines) - 1


def test_editing_the_scripted_fixture_in_place_reevaluates(tmp_path, toy_dir):
    workdir = tmp_path / "w"
    fixture = tmp_path / "outputs.tsv"
    fixture.write_text("test-0-tail\tentity 1\n", encoding="utf-8")
    cfg = write_config(
        tmp_path / "run.ini",
        toy_dir,
        workdir,
        extra=f"\n[backend]\nkind = scripted\nscripted_file = {fixture}\n",
    )
    assert main(["evaluate", "--config", cfg]) == 0
    fixture.write_text("test-0-tail\tentity 2\n", encoding="utf-8")
    assert main(["evaluate", "--config", cfg]) == 0
    reports = [e for e in os.listdir(workdir) if e.startswith("report-")]
    checkpoints = [e for e in os.listdir(workdir) if e.endswith(".ckpt")]
    assert len(reports) == 2 and len(checkpoints) == 1


def test_main_usage_errors_exit_1(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["train-embeddings"]) == 1  # missing --config
    assert "error" in capsys.readouterr().err


def test_missing_dataset_dir_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "nope", tmp_path / "w")
    assert main(["train-embeddings", "--config", cfg]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("name", kg_module.DATASET_FILES)
def test_a_dataset_file_that_is_not_utf8_exits_2_naming_its_line(tmp_path, toy_dir, capsys, name):
    dataset = tmp_path / "dataset"
    shutil.copytree(toy_dir, dataset)
    path = dataset / name
    with open(path, "ab") as f:
        f.write(b"\xff\xfe")
    line = read_bytes(path).count(b"\n") + 1
    cfg = write_config(tmp_path / "run.ini", dataset, tmp_path / "w")
    assert main(["train-embeddings", "--config", cfg]) == 2
    assert f"data error: {path}:{line}: not UTF-8" in capsys.readouterr().err


def test_train_chain_fixture_is_fast_and_deterministic(tmp_path, chain_dir):
    start = time.monotonic()
    cfg_a = write_config(tmp_path / "a.ini", chain_dir, tmp_path / "wa")
    cfg_b = write_config(tmp_path / "b.ini", chain_dir, tmp_path / "wb")
    assert main(["train-embeddings", "--config", cfg_a]) == 0
    assert main(["train-embeddings", "--config", cfg_b]) == 0
    assert time.monotonic() - start < 10
    ckpt_a = workdir_file(tmp_path / "wa", "embeddings-", None)
    ckpt_b = workdir_file(tmp_path / "wb", "embeddings-", None)
    assert sha256(ckpt_a) == sha256(ckpt_b)


def test_rerun_performs_no_work(tmp_path, toy_dir):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["train-embeddings", "--config", cfg]) == 0
    ckpt = workdir_file(tmp_path / "w", "embeddings-")
    mtime = os.path.getmtime(ckpt)
    time.sleep(0.05)
    assert main(["train-embeddings", "--config", cfg]) == 0
    assert os.path.getmtime(ckpt) == mtime


def test_build_eval_and_finetune_outputs(tmp_path, toy_dir):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["build-eval", "--config", cfg]) == 0
    assert main(["build-finetune", "--config", cfg]) == 0
    eval_summary = json.loads(read_text(workdir_file(tmp_path / "w", "eval-", "summary.json")))
    ft_summary = json.loads(read_text(workdir_file(tmp_path / "w", "finetune-", "summary.json")))
    assert eval_summary["kept"] == 24  # 12 test triples, both directions
    assert ft_summary["queries"] == 20  # 10 of 12 valid triples in the 90% part
    assert ft_summary["holdout_queries"] == 4
    assert ft_summary["kept"] <= ft_summary["queries"]
    records = read_records(workdir_file(tmp_path / "w", "eval-", "instructions.jsonl"))
    assert len(records) == 24


def test_build_summary_records_ablation_flags(tmp_path, toy_dir):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert (
        main(
            [
                "build-eval",
                "--config",
                cfg,
                "--set",
                "instruct.max_description_chars=0",
                "--set",
                "instruct.rc_sampling=false",
            ]
        )
        == 0
    )
    summary = json.loads(read_text(workdir_file(tmp_path / "w", "eval-", "summary.json")))
    assert summary["max_description_chars"] == 0
    assert summary["rc_sampling"] is False
    assert summary["gamma"] == 10
    assert not {"drop_description", "drop_neighbors"} & set(summary)


def test_a_config_that_sets_a_removed_drop_key_exits_1(tmp_path, toy_dir, capsys):
    # max_description_chars = 0 and gamma = 0 do what drop_description and drop_neighbors did;
    # the local confidence term is always min-max normalised, as local_norm = minmax made it
    for key in ("drop_description", "drop_neighbors"):
        cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w", extra=f"\n[instruct]\n{key} = true\n")
        assert main(["build-eval", "--config", cfg]) == 1
        assert f"unknown config key instruct.{key}" in capsys.readouterr().err
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w", extra="local_norm = raw\n")  # in [ranker]
    assert main(["build-finetune", "--config", cfg]) == 1
    assert "unknown config key ranker.local_norm" in capsys.readouterr().err
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["build-finetune", "--config", cfg, "--set", "ranker.local_norm=minmax"]) == 1
    assert "unknown config key ranker.local_norm" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_beta_sweep_counts_non_increasing(tmp_path, toy_dir):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    kept = []
    for beta in ("0", "0.05", "0.5", "1.0"):
        assert main(["build-finetune", "--config", cfg, "--set", f"ranker.beta={beta}"]) == 0
    for entry in sorted(os.listdir(tmp_path / "w")):
        if entry.startswith("finetune-"):
            summary = json.loads(read_text(tmp_path / "w" / entry / "summary.json"))
            kept.append((summary["beta"], summary["kept"]))
    kept.sort()
    counts = [k for _, k in kept]
    assert counts == sorted(counts, reverse=True)
    assert kept[0] == (0.0, 20)  # beta 0 keeps every query


def test_m_sweep_grows_prompts(tmp_path, toy_dir):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    means = []
    for m in ("2", "5", "9"):
        assert main(["build-eval", "--config", cfg, "--set", f"ranker.m={m}"]) == 0
    for entry in sorted(os.listdir(tmp_path / "w")):
        if entry.startswith("eval-"):
            summary = json.loads(read_text(tmp_path / "w" / entry / "summary.json"))
            means.append((summary["m"], summary["mean_prompt_chars"]))
    means.sort()
    assert [c for _, c in means] == sorted(c for _, c in means)
    assert len(means) == 3


def test_m_larger_than_entity_count_is_config_error(tmp_path, toy_dir, capsys):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["build-eval", "--config", cfg, "--set", "ranker.m=500"]) == 1


def test_evaluate_with_scripted_backend(tmp_path, toy_dir):
    workdir = tmp_path / "w"
    fixture = tmp_path / "outputs.tsv"
    fixture.write_text("test-0-tail\tentity 1\n", encoding="utf-8")
    cfg = write_config(
        tmp_path / "run.ini",
        toy_dir,
        workdir,
        extra=f"\n[backend]\nkind = scripted\nscripted_file = {fixture}\n",
    )
    assert main(["evaluate", "--config", cfg]) == 0
    report = json.loads(read_text(workdir_file(workdir, "report-", "report.json")))
    assert report["backend"] == "scripted"
    assert report["queries"] == 24
    assert report["abstentions"] >= 23  # only one scripted output
    combined = report["combined"]
    assert combined["hits1"] <= combined["hits3"] <= combined["hits10"]


def test_scripted_reports_share_a_digest_across_workdirs(tmp_path, toy_dir):
    fixture = tmp_path / "outputs.tsv"
    fixture.write_text("test-0-tail\tentity 1\ntest-2-head\tentity 4\n", encoding="utf-8")
    digests = []
    for run in ("one", "two"):
        workdir = tmp_path / run
        cfg = write_config(
            tmp_path / f"{run}.ini",
            toy_dir,
            workdir,
            extra=f"\n[backend]\nkind = scripted\nscripted_file = {fixture}\n",
        )
        assert main(["evaluate", "--config", cfg]) == 0
        digests.append(sha256(workdir_file(workdir, "report-", "report.json")))
    assert digests[0] == digests[1]


def test_scripted_fixtures_with_equal_bytes_share_one_report_address(tmp_path, toy_dir):
    workdir = tmp_path / "w"
    addresses = []
    for name, output in (("outputs.tsv", "entity 1"), ("copy.tsv", "entity 1"), ("other.tsv", "entity 2")):
        fixture = tmp_path / name
        fixture.write_text(f"test-0-tail\t{output}\n", encoding="utf-8")
        extra = f"\n[backend]\nkind = scripted\nscripted_file = {fixture}\n"
        cfg = write_config(tmp_path / "run.ini", toy_dir, workdir, extra=extra)
        addresses.append(stage_output(load_config(cfg), "report"))
        if name != "other.tsv":  # the copy finds the report the first fixture wrote
            assert main(["evaluate", "--config", cfg]) == 0
    assert addresses[0] == addresses[1] != addresses[2]
    assert [e for e in os.listdir(workdir) if e.startswith("report-")] == [os.path.basename(addresses[0])]


def test_shuffled_build_and_evaluate_stay_aligned(tmp_path, toy_dir):
    # echoing every gold name through a scripted backend must behave like the
    # oracle even when candidates are shuffled: evaluate scores the records
    # build-eval wrote and moves each pick by its recorded base rank
    workdir = tmp_path / "w"
    cfg = write_config(
        tmp_path / "run.ini",
        toy_dir,
        workdir,
        extra="\n[instruct]\nshuffle_candidates = true\nseed = 9\n",
    )
    assert main(["build-eval", "--config", cfg]) == 0
    records = read_records(workdir_file(workdir, "eval-", "instructions.jsonl"))
    fixture = tmp_path / "outputs.tsv"
    with open(fixture, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(f"{rec['id']}\t{rec['gold_name']}\n")
    assert (
        main(
            [
                "evaluate",
                "--config",
                cfg,
                "--set",
                "backend.kind=scripted",
                "--set",
                f"backend.scripted_file={fixture}",
            ]
        )
        == 0
    )
    report = json.loads(read_text(workdir_file(workdir, "report-", "report.json")))
    assert report["combined"]["hits1"] == report["candidate_recall"]


def test_evaluate_after_build_eval_loads_no_graph_or_checkpoint(tmp_path, toy_dir, monkeypatch):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["build-eval", "--config", cfg]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate must read the eval set, not the graph or the checkpoint")

    monkeypatch.setattr(cli, "load_kg", refuse)
    monkeypatch.setattr(EmbeddingTable, "load", refuse)
    assert main(["evaluate", "--config", cfg]) == 0
    assert json.loads(read_text(workdir_file(tmp_path / "w", "report-", "report.json")))["queries"] == 24


def _count_selections(monkeypatch):
    """The ids of the samples that the oracle backend is asked to select from."""
    seen = []
    select = discriminator.OracleBackend.select
    monkeypatch.setattr(
        discriminator.OracleBackend, "select", lambda self, sample: seen.append(sample.id) or select(self, sample)
    )
    return seen


@pytest.mark.parametrize("limit", [0, 5])
@pytest.mark.parametrize("threads", [1, 3])
def test_evaluate_in_a_fresh_workdir_builds_the_eval_set(tmp_path, toy_dir, monkeypatch, threads, limit):
    seen = _count_selections(monkeypatch)
    outputs = []
    for run, commands in (("fresh", ["evaluate"]), ("staged", ["build-eval", "evaluate"])):
        seen.clear()
        workdir = tmp_path / run
        extra = f"\n[eval]\naudit = true\nlimit_triples = {limit}\n"
        cfg = write_config(tmp_path / f"{run}.ini", toy_dir, workdir, extra=extra)
        for command in commands:
            assert main([command, "--config", cfg, "--set", f"pipeline.threads={threads}"]) == 0
        assert not [e for e in os.listdir(workdir) if e.endswith(".tmp")]
        # the whole set is built and published; the backend sees its first 2N samples
        records = read_records(workdir_file(workdir, "eval-", "instructions.jsonl"))
        assert len(records) == 24
        assert sorted(seen) == sorted(r["id"] for r in records[: 2 * limit or None])
        assert len(seen) == (10 if limit else 24)
        files = {
            name: read_bytes(workdir_file(workdir, prefix, name))
            for prefix, names in (
                ("eval-", ("instructions.jsonl", "summary.json")),
                ("report-", ("report.json", "report.txt", "audit.jsonl")),
            )
            for name in names
        }
        outputs.append((os.path.basename(workdir_file(workdir, "eval-")), files))
    assert outputs[0] == outputs[1]


def test_a_cached_eval_set_is_hashed_whole_though_it_is_scored_in_part(tmp_path, toy_dir, caplog):
    caplog.set_level(logging.WARNING, logger="kgrerank.cli")
    limit = "--set=eval.limit_triples=5"
    clean = _clean_run(tmp_path, toy_dir, ["evaluate"], limit)
    workdir = tmp_path / "w"
    cfg = write_config(tmp_path / "run.ini", toy_dir, workdir)
    assert main(["build-eval", "--config", cfg]) == 0
    path = workdir_file(workdir, "eval-", "instructions.jsonl")
    lines = read_lines(path)
    k = 11  # the first sample past eval.limit_triples = 5
    for command in ("build-eval", "evaluate"):
        with open(path, "w", encoding="utf-8") as f:  # a record evaluate would not score, at its length
            f.write("".join(lines[: k - 1] + ["g" * (len(lines[k - 1].encode()) - 1) + "\n"] + lines[k:]))
        caplog.clear()
        assert main([command, "--config", cfg, limit]) == 0
        warnings = _warnings(caplog)
        assert len(warnings) == 1 and f"refuses: {path}: sha256 " in warnings[0]
    assert _tree(workdir) == clean


def test_a_cached_eval_set_is_opened_only_by_a_stage_that_scores_it(tmp_path, toy_dir, monkeypatch):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["build-eval", "--config", cfg]) == 0
    calls, records = [], []
    iter_samples = cli.iter_samples

    def counting(path):
        calls.append(path)
        for sample in iter_samples(path):
            records.append(sample.id)
            yield sample

    monkeypatch.setattr(cli, "iter_samples", counting)
    assert main(["build-eval", "--config", cfg]) == 0
    assert calls == []
    assert main(["evaluate", "--config", cfg, "--set", "eval.limit_triples=5"]) == 0
    assert calls == [workdir_file(tmp_path / "w", "eval-", "instructions.jsonl")] and len(records) == 10


def _watch_the_cached_set(monkeypatch):
    """The instruction files opened through ``iter_samples``, the samples the
    oracle backend selects from, and, at each refusal of ``_read_set``, how
    many of each there were."""
    seen = {"opened": [], "selected": [], "at_refusal": []}
    iter_samples, select, read_set = cli.iter_samples, discriminator.OracleBackend.select, cli._read_set

    def read_or_refuse(*args):
        try:
            return read_set(*args)
        except kg_module.DataError:
            seen["at_refusal"].append((len(seen["opened"]), len(seen["selected"])))
            raise

    def opening(path):  # a generator, as iter_samples is: the file is opened when a sample is taken
        seen["opened"].append(path)
        yield from iter_samples(path)

    monkeypatch.setattr(cli, "iter_samples", opening)
    monkeypatch.setattr(
        discriminator.OracleBackend, "select", lambda self, s: seen["selected"].append(s.id) or select(self, s)
    )
    monkeypatch.setattr(cli, "_read_set", read_or_refuse)
    return seen


def _warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]


def _clean_run(tmp_path, toy_dir, commands, *args):
    """The files that ``commands`` leave in a fresh workdir."""
    cfg = write_config(tmp_path / "clean.ini", toy_dir, tmp_path / "clean")
    for command in commands:
        assert main([command, "--config", cfg, *args]) == 0
    return _tree(tmp_path / "clean")


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("records", [10, 25])
def test_a_cached_eval_set_that_lost_or_gained_records_is_rebuilt(
    tmp_path, toy_dir, monkeypatch, caplog, records, threads
):
    caplog.set_level(logging.WARNING, logger="kgrerank.cli")
    argv = ["--set", f"pipeline.threads={threads}"]
    clean = _clean_run(tmp_path, toy_dir, ["evaluate"], *argv)
    workdir = tmp_path / "w"
    cfg = write_config(tmp_path / "run.ini", toy_dir, workdir)
    assert main(["build-eval", "--config", cfg]) == 0
    path = workdir_file(workdir, "eval-", "instructions.jsonl")
    lines = read_lines(path)
    with open(path, "w", encoding="utf-8") as f:  # whole records cut from its end, or one repeated
        f.write("".join((lines * 2)[:records]))
    seen = _watch_the_cached_set(monkeypatch)
    assert main(["evaluate", "--config", cfg, *argv]) == 0
    # refused before its first record: every sample scored is one of the rebuilt set
    assert seen["opened"] == [] and seen["at_refusal"] == [(0, 0)] and len(seen["selected"]) == 24
    digests = [hashlib.sha256("".join(kept).encode()).hexdigest() for kept in ((lines * 2)[:records], lines)]
    assert _warnings(caplog) == [
        f"rebuilding {os.path.dirname(path)}, which its reader refuses: "
        f"{path}: sha256 {digests[0]}, but summary.json records {digests[1]}"
    ]
    assert _tree(workdir) == clean


NOT_A_SET_SUMMARY = "summary.json: not a JSON object with the sha256 of each of its record files"


@pytest.mark.parametrize(
    "summary, message",
    [
        (b'{"m": 5', "summary.json: Expecting ',' delimiter"),
        (b"[24]", NOT_A_SET_SUMMARY),
        (b'{"kept": "24"}', NOT_A_SET_SUMMARY),
        (b'{"kept": 24, "\xff": 1}', "summary.json: 'utf-8' codec can't decode byte 0xff"),
        (b'{"kept": 24}', NOT_A_SET_SUMMARY),
        # accepted: nothing but record_sha256 is read, and the report's header comes from the config
        (lambda s, _: _without(s, "m"), None),
        (lambda s, _: _without(s, "kept"), None),
        (lambda s, _: {**s, "beta": 0.5}, None),
        (lambda s, _: _without(s, "record_sha256"), NOT_A_SET_SUMMARY),
        (lambda s, _: {**s, "record_sha256": {}}, NOT_A_SET_SUMMARY),
        (lambda s, outdir: _without_records(outdir) or {**s, "record_sha256": {}}, NOT_A_SET_SUMMARY),
        (
            lambda s, _: {**s, "record_sha256": {"instructions.jsonl": "0" * 64}},
            "instructions.jsonl: sha256 ",
        ),
        (  # a set written before record_sha256 was
            lambda s, outdir: {**_without(s, "record_sha256"), "record_bytes": _sizes(outdir)},
            NOT_A_SET_SUMMARY,
        ),
    ],
    ids=[
        "not-json", "list", "kept-text", "not-utf8", "kept-alone", "no-m", "no-kept", "beta-edited",
        "no-record-sha256", "record-sha256-empty", "no-records", "record-sha256-wrong", "record-bytes-alone",
    ],
)
def test_a_cached_set_summary_is_checked_before_its_first_record(
    tmp_path, toy_dir, monkeypatch, caplog, summary, message
):
    caplog.set_level(logging.WARNING, logger="kgrerank.cli")
    clean = _clean_run(tmp_path, toy_dir, ["build-eval", "evaluate"])
    workdir = tmp_path / "w"
    cfg = write_config(tmp_path / "run.ini", toy_dir, workdir)
    assert main(["build-eval", "--config", cfg]) == 0
    path = workdir_file(workdir, "eval-", "summary.json")
    outdir = os.path.dirname(path)
    whole = json.loads(read_text(path))
    edited = summary if isinstance(summary, bytes) else json.dumps(summary(whole, outdir)).encode()
    seen = _watch_the_cached_set(monkeypatch)
    for command in ("build-eval", "evaluate"):
        with open(path, "wb") as f:
            f.write(edited)
        caplog.clear()
        assert main([command, "--config", cfg]) == 0
        warnings = _warnings(caplog)
        if message is None:
            assert warnings == []
        else:
            assert len(warnings) == 1 and f"refuses: {os.path.join(outdir, message)}" in warnings[0]
    if message is None:  # build-eval hashed the cached records, and evaluate scored them
        instructions = os.path.join(outdir, "instructions.jsonl")
        assert seen["opened"] == [instructions] and seen["at_refusal"] == [] and len(seen["selected"]) == 24
        assert _tree(workdir) == {**clean, os.path.relpath(path, workdir): edited}
    else:
        assert seen["opened"] == [] and seen["at_refusal"] == [(0, 0), (0, 0)]
        assert _tree(workdir) == clean


def _without(summary, key):
    return {k: v for k, v in summary.items() if k != key}


def _without_records(outdir):
    """Remove the set's record file: a summary naming no record file then names every one there."""
    os.remove(os.path.join(outdir, "instructions.jsonl"))


def _sizes(outdir):
    """The byte length of each record file in a set's directory, by name."""
    return {name: os.path.getsize(os.path.join(outdir, name)) for name in os.listdir(outdir) if name != "summary.json"}


@pytest.mark.parametrize("which", ["finetune", "eval"])
def test_either_cached_set_is_refused_when_a_record_file_changed_bytes(tmp_path, toy_dir, which):
    cfg_path = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    cfg = load_config(cfg_path)
    assert main([f"build-{which}", "--config", cfg_path]) == 0
    outdir = stage_output(cfg, which)
    summary = json.loads(read_text(os.path.join(outdir, "summary.json")))
    assert sorted(summary["record_sha256"]) == sorted(set(os.listdir(outdir)) - {"summary.json"})
    for name, digest in summary["record_sha256"].items():
        path = os.path.join(outdir, name)
        assert sha256(path) == digest
        lines = read_lines(path)
        same_length = [lines[0].replace("Candidates:", "Candidatez:", 1), *lines[1:]]
        for changed in (lines[:-1], lines + lines[:1], same_length, lines):
            with open(path, "w", encoding="utf-8") as f:
                f.write("".join(changed))
            if changed is lines:
                records = os.path.join(outdir, "instructions.jsonl")
                assert list(cli._read_set(outdir)) == list(instructions.iter_samples(records))
            else:
                with pytest.raises(kg_module.DataError, match=f"{name}: sha256 .*, but summary.json records {digest}"):
                    cli._read_set(outdir)


def test_evaluate_sends_samples_while_it_builds_the_rest_of_the_set(tmp_path, toy_dir, monkeypatch):
    # from the third sample on, building waits until a sample has reached the
    # backend: a build that finishes before the first request times out here
    selected = threading.Event()
    built = []
    build_sample, select = instructions.build_sample, discriminator.OracleBackend.select

    def waiting_build_sample(*args, **kwargs):
        built.append(1)
        if len(built) >= 3 and not selected.wait(timeout=10):
            raise AssertionError("no sample reached the backend while the eval set was built")
        return build_sample(*args, **kwargs)

    def signalling_select(self, sample):
        selected.set()
        return select(self, sample)

    monkeypatch.setattr(instructions, "build_sample", waiting_build_sample)
    monkeypatch.setattr(discriminator.OracleBackend, "select", signalling_select)
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["evaluate", "--config", cfg]) == 0
    assert len(built) == 24
    assert json.loads(read_text(workdir_file(tmp_path / "w", "report-", "report.json")))["queries"] == 24


def assert_a_backend_error_left_nothing(workdir):
    """No report, no temporary, and no eval set: a set built by ``evaluate`` is
    published only once the backend has seen every sample it was to see."""
    names = os.listdir(workdir)
    assert not [n for n in names if n.startswith(("report-", "eval-")) or n.endswith(".tmp")], names


def test_a_backend_error_stops_building_the_eval_set(tmp_path, toy_dir, monkeypatch, capsys):
    # the first selection fails; the second sample is built only once it has
    failed = threading.Event()
    built = []
    build_sample = instructions.build_sample

    def waiting_build_sample(*args, **kwargs):
        built.append(1)
        if len(built) == 2:
            assert failed.wait(timeout=10)
            time.sleep(0.2)  # for the worker to record the error
        return build_sample(*args, **kwargs)

    def failing_select(self, sample):
        failed.set()
        raise discriminator.BackendError("endpoint down")

    monkeypatch.setattr(instructions, "build_sample", waiting_build_sample)
    monkeypatch.setattr(discriminator.OracleBackend, "select", failing_select)
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["evaluate", "--config", cfg]) == 3
    assert "endpoint down" in capsys.readouterr().err
    assert len(built) == 2  # of 24
    assert_a_backend_error_left_nothing(tmp_path / "w")


@pytest.mark.parametrize("threads", [1, 3])
def test_dead_remote_endpoint_exits_3_and_writes_no_report(tmp_path, toy_dir, capsys, threads):
    with socket.socket() as s:  # bound, then closed: nothing listens on the port
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    workdir = tmp_path / "w"
    cfg = write_config(
        tmp_path / "run.ini",
        toy_dir,
        workdir,
        extra=(
            f"\n[backend]\nkind = remote\nendpoint = http://127.0.0.1:{port}/v1/chat/completions\n"
            "model = m\nretries = 0\ntimeout = 5\n"
        ),
    )
    assert main(["evaluate", "--config", cfg, "--set", f"pipeline.threads={threads}"]) == 3
    assert "backend error" in capsys.readouterr().err
    assert_a_backend_error_left_nothing(workdir)


def evaluate_against_stub(tmp_path, toy_dir, reply, timeout=5.0):
    """(exit code, the stub, names in the workdir) of one evaluate."""
    workdir = tmp_path / "w"
    with serving(ChatStub(reply)) as stub:
        cfg = write_config(
            tmp_path / "run.ini",
            toy_dir,
            workdir,
            extra=(
                f"\n[backend]\nkind = remote\nendpoint = {stub.endpoint}\n"
                f"model = m\nretries = 1\nbackoff = 0\ntimeout = {timeout}\n"
            ),
        )
        code = main(["evaluate", "--config", cfg])
    return code, stub, os.listdir(workdir)


def test_a_retried_server_error_still_gives_a_clean_report(tmp_path, toy_dir):
    code, stub, names = evaluate_against_stub(tmp_path, toy_dir, lambda n: 500 if n == 1 else 200)
    assert code == 0
    assert stub.requests == 24 + 1  # every query once, and one retry
    assert {"report.json", "report.txt"} <= set(os.listdir(workdir_file(tmp_path / "w", "report-")))
    assert json.loads(read_text(workdir_file(tmp_path / "w", "report-", "report.json")))["queries"] == 24


@pytest.mark.parametrize("reply", [500, 429, 400, 201, "malformed", "null", "timeout"])
def test_a_failing_endpoint_exits_3_and_writes_no_report(tmp_path, toy_dir, capsys, reply):
    timeout = 0.2 if reply == "timeout" else 5.0
    code, stub, names = evaluate_against_stub(tmp_path, toy_dir, lambda n: reply, timeout)
    assert code == 3
    assert "backend error" in capsys.readouterr().err
    if reply != "timeout":  # a timed-out request may not have reached the stub yet
        # a malformed body, a client error and any other success than 200 are not retried
        assert stub.requests == (1 if reply in ("malformed", "null", 400, 201) else 2)
    assert_a_backend_error_left_nothing(tmp_path / "w")


def test_evaluate_missing_scripted_file_exits_3(tmp_path, toy_dir, capsys):
    cfg = write_config(
        tmp_path / "run.ini",
        toy_dir,
        tmp_path / "w",
        extra="\n[backend]\nkind = scripted\nscripted_file = /nonexistent.tsv\n",
    )
    assert main(["evaluate", "--config", cfg]) == 3
    assert "backend error" in capsys.readouterr().err


def test_a_malformed_endpoint_exits_3_before_any_stage_runs(tmp_path, toy_dir, capsys):
    # no scheme: checked when the backend is made, not at the first request
    # after the graph is parsed and the embeddings are trained
    workdir = tmp_path / "w"
    cfg = write_config(
        tmp_path / "run.ini",
        toy_dir,
        workdir,
        extra="\n[backend]\nkind = remote\nendpoint = localhost:8000/v1/chat/completions\nmodel = m\n",
    )
    assert main(["evaluate", "--config", cfg]) == 3
    assert "bad endpoint URL" in capsys.readouterr().err
    assert not os.path.isdir(workdir) or not os.listdir(workdir)


@pytest.mark.parametrize(
    "fixture, fault",
    [
        (b"test-0-tail\tentity 1\ntest-1-tail\t\xff\n", "not UTF-8"),
        (b"test-0-tail\tentity 1\ntest-1-tail entity 2\n", "expected"),
        (b"test-0-tail\tentity 1\ntest-0-tail\tentity 2\n", "duplicate identifier 'test-0-tail'"),
    ],
    ids=["bad-byte", "no-tab", "duplicate-id"],
)
def test_a_malformed_fixture_exits_3_naming_its_line(tmp_path, toy_dir, capsys, fixture, fault):
    path = tmp_path / "outputs.tsv"
    path.write_bytes(fixture)
    cfg = write_config(
        tmp_path / "run.ini",
        toy_dir,
        tmp_path / "w",
        extra=f"\n[backend]\nkind = scripted\nscripted_file = {path}\n",
    )
    assert main(["evaluate", "--config", cfg]) == 3
    assert f"backend error: {path}:2: {fault}" in capsys.readouterr().err


def test_evaluate_oracle_report_identities(tmp_path, toy_dir):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["evaluate", "--config", cfg]) == 0
    report = json.loads(read_text(workdir_file(tmp_path / "w", "report-", "report.json")))
    assert report["combined"]["hits1"] == report["candidate_recall"]


def test_evaluate_audit_and_threads(tmp_path, toy_dir):
    cfg = write_config(
        tmp_path / "run.ini",
        toy_dir,
        tmp_path / "w",
        extra="\n[eval]\naudit = true\n",
    )
    assert main(["evaluate", "--config", cfg, "--set", "pipeline.threads=3"]) == 0
    audit = workdir_file(tmp_path / "w", "report-", "audit.jsonl")
    assert len(read_lines(audit)) == 24


def test_full_pipeline_runs_are_byte_identical(tmp_path, toy_dir):
    digests = []
    for run in ("one", "two"):
        workdir = tmp_path / run
        cfg = write_config(tmp_path / f"{run}.ini", toy_dir, workdir)
        for command in ("train-embeddings", "build-finetune", "build-eval", "evaluate"):
            assert main([command, "--config", cfg]) == 0
        # one entry per stage address, and nothing else: no manifest, no *.tmp
        entries = sorted(os.listdir(workdir))
        patterns = (
            r"embeddings-[0-9a-f]{12}\.ckpt",
            r"eval-[0-9a-f]{12}",
            r"finetune-[0-9a-f]{12}",
            r"graph-[0-9a-f]{12}",
            r"report-[0-9a-f]{12}",
        )
        assert len(entries) == 5 and all(map(re.fullmatch, patterns, entries)), entries
        blob = read_bytes(workdir_file(workdir, "embeddings-"))
        for prefix, names in (
            ("graph-", GRAPH_FILES),
            ("finetune-", ("instructions.jsonl", "holdout.jsonl", "summary.json")),
            ("eval-", ("instructions.jsonl", "summary.json")),
            ("report-", ("report.json",)),
        ):
            for name in names:
                blob += read_bytes(workdir_file(workdir, prefix, name))
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]


# each file of the finetune and eval sets, by the prefix of its directory
SET_FILES = (
    ("finetune-", "instructions.jsonl"),
    ("finetune-", "holdout.jsonl"),
    ("finetune-", "summary.json"),
    ("eval-", "instructions.jsonl"),
    ("eval-", "summary.json"),
)


@pytest.mark.parametrize(
    "overrides, digests",
    [
        (
            [],
            (
                "47310a4a65dfba64b86a1e9f5f2bad1ada555b3da0a254c6a099de9c9e030d5b",
                "31163453a9ba20e1187b27665a77541d49609feea7f8fd921f6be7f34d6103fc",
                "9457a588c66be098d2e6acc751ed2864de546369c772b5877a74934b1d32b8af",
                "7b6380c4dc52224f556dfb362753410588f8c91a7b43e6224d8e4e69c3da6521",
                "f2543d073c20b6a5ebed1703205fb2dee621607f067ac49e089514982ed3c25c",
            ),
        ),
        (
            ["ranker.beta=0.5", "instruct.rc_sampling=false", "instruct.shuffle_candidates=true"],
            (
                "9fa526fc283ebc7e4e38c2d80f5e55fe92dcf90b88c4d4924620f70a739b316f",
                "e1e9372050903ae9c4aef9532a7e1469547033889e6b22fb6aeeb4ed5e504dcd",
                "8f10b42cd5de4d9a4f4c751098eef03e8c17503e5821c1f4d9886d6893b5c12a",
                "8bbb44953ef6aeba03fa8b3412941dbfcdecec2be22252da62c38d97f9a1f6d0",
                "7366244a24fc297f9f61a299e4f96edb557e4a856db6da88c6ffe32131b2bc5c",
            ),
        ),
        # the jsonl digests are those that instruct.drop_description=true gave
        # before that key was removed: an empty description drops the block
        (
            ["instruct.max_description_chars=0"],
            (
                "7ad0c8670015e9daaff60d16df5cb492029558a4c62c1a71321bdc6acf488d5d",
                "fb34ca51b65ca1540f1741a900eb2aa3e250dfa39810b1e57a7ac0f3ee59ab65",
                "516eec6546dc65db620cfb61f1dc4e60366827bd6e71e335254801213227010a",
                "ccb5333f2a763922e27472429fdbf116f2e106fa49d12f4ee0dc33489995f305",
                "bc8ebb74a47ff85e71f17980ce37d3efb4b43f50faccde8b5b801421585387af",
            ),
        ),
        # and these, those that instruct.drop_neighbors=true gave
        (
            ["instruct.gamma=0"],
            (
                "b3cd7438fb35fb961d087207323cb8dbf0df12ab411e25515424257df430e8df",
                "3139a2ddc835abf67c90fc006530ca10f576c109570fbd91966e82f5f4f7dfc1",
                "e580458d3a28512fcdab7ca341b6e28609426fb701e18796209f6f537a8c3a70",
                "5968cb3f6a55ff102e1a46da0a9e0fbabcde0fe74037ea873734d7a9ec8df2c2",
                "43cc66e02aaa39a8e71d0f038b34c093f42e42406a00a9f0f0b0eb982ffd70d5",
            ),
        ),
    ],
    ids=["defaults", "truncating", "no-description", "no-neighbors"],
)
def test_the_toy_sets_bytes_are_pinned(tmp_path, toy_dir, overrides, digests):
    # golden values: two runs of the same code only agree with each other; these
    # catch a byte change that every run shares
    workdir = tmp_path / "w"
    cfg = write_config(tmp_path / "run.ini", toy_dir, workdir)
    for command in ("build-finetune", "build-eval"):
        assert main([command, "--config", cfg, *(f"--set={s}" for s in overrides)]) == 0
    assert tuple(sha256(workdir_file(workdir, prefix, name)) for prefix, name in SET_FILES) == digests


def test_auth_token_never_written_to_workdir(tmp_path, toy_dir, monkeypatch):
    secret = "hunter2-super-secret-token"
    monkeypatch.setenv("KGRERANK_API_TOKEN", secret)
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    for command in ("train-embeddings", "build-eval", "evaluate"):
        assert main([command, "--config", cfg]) == 0
    for root, _, files in os.walk(tmp_path / "w"):
        for name in files:
            data = read_bytes(os.path.join(root, name))
            assert secret.encode() not in data


def test_inspect_prints_prompt(tmp_path, toy_dir, capsys):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["build-eval", "--config", cfg]) == 0
    path = workdir_file(tmp_path / "w", "eval-", "instructions.jsonl")
    assert main(["inspect", "--file", path, "--id", "test-0-tail"]) == 0
    out = capsys.readouterr().out
    assert "test-0-tail" in out
    assert "[QUERY]" in out
    assert main(["inspect", "--file", path, "--index", "1"]) == 0
    assert main(["inspect", "--file", path, "--id", "missing"]) == 2


def test_inspect_stops_reading_at_the_sample_it_prints(tmp_path, toy_dir, capsys):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["build-eval", "--config", cfg]) == 0
    clean = workdir_file(tmp_path / "w", "eval-", "instructions.jsonl")
    lines = read_lines(clean)
    first = json.loads(lines[0])["id"]
    assert main(["inspect", "--file", clean, "--index", "99"]) == 2
    assert f"index 99 out of range for {len(lines)} samples" in capsys.readouterr().err
    path = tmp_path / "foreign.jsonl"
    path.write_text("".join(lines[:2]) + '{"foreign": true}\n' + "".join(lines[2:]), encoding="utf-8")
    for args in (["--index", "0"], ["--index", "1"], ["--id", first]):
        assert main(["inspect", "--file", str(path), *args]) == 0
    assert f"id: {first}" in capsys.readouterr().out
    for args in (["--index", "2"], ["--id", "missing"]):  # read past line 3
        assert main(["inspect", "--file", str(path), *args]) == 2
        assert f"{path}:3: not an instruction record" in capsys.readouterr().err


def test_a_negative_inspect_index_is_a_usage_error(tmp_path, capsys):
    # refused before the file is opened: reading either file would be a data error
    foreign = tmp_path / "foreign.jsonl"
    foreign.write_text('{"foreign": true}\n', encoding="utf-8")
    for path in (foreign, tmp_path / "missing.jsonl"):
        assert main(["inspect", "--file", str(path), "--index", "-1"]) == 1
        assert "--index must be >= 0, got -1" in capsys.readouterr().err


def _with_header_byte(offset, value):
    """A damage that writes ``value`` over the checkpoint's byte at ``offset``."""
    return lambda b: b[:offset] + bytes([value]) + b[offset + 1 :]


_HEADER_SIZE = embeddings._HEADER.size
_NAN = np.float64(np.nan).tobytes()


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda b: b[: len(b) // 2], "payload bytes, got"),
        (lambda b: b[:3], "truncated header"),
        (lambda b: b[:1], "truncated header"),
        (lambda b: b + bytes(8), "payload bytes, got"),
        (lambda b: b[:_HEADER_SIZE] + _NAN + b[_HEADER_SIZE + 8 :], "not rankable: NaN or infinite values, or scores that can overflow"),
        (lambda b: b"KGE0" + b[4:], "bad magic b'KGE0'"),
        (_with_header_byte(4, 2), "unsupported version 2"),
        (_with_header_byte(_HEADER_SIZE - 1, 9), "unknown norm code 9"),
    ],
    ids=["halved", "header", "one-byte", "longer", "non-finite", "bad-magic", "version", "norm-code"],
)
def test_a_checkpoint_its_reader_refuses_is_retrained(tmp_path, toy_dir, caplog, damage, reason):
    caplog.set_level(logging.WARNING, logger="kgrerank.cli")
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["train-embeddings", "--config", cfg]) == 0
    ckpt = workdir_file(tmp_path / "w", "embeddings-")
    assert ckpt.endswith(".ckpt")
    whole = read_bytes(ckpt)
    with open(ckpt, "wb") as f:  # a crash in an older version's in-place save, or a damaged file
        f.write(damage(whole))
    assert main(["build-eval", "--config", cfg]) == 0
    warnings = _warnings(caplog)
    assert len(warnings) == 1 and reason in warnings[0]
    assert warnings[0].startswith(f"rebuilding {ckpt}, which its reader refuses: {ckpt}: ")
    assert read_bytes(ckpt) == whole
    assert not [e for e in os.listdir(tmp_path / "w") if e.endswith(".tmp")]


@pytest.mark.parametrize(
    "name, damage, reason",
    [
        ("report.json", None, "report.json"),
        ("report.json", b'{"combined": ', "Expecting value"),
        ("report.json", b"\xff\n", "can't decode byte 0xff"),
        ("report.txt", None, "report.txt"),
        ("audit.jsonl", None, "audit.jsonl"),
    ],
    ids=["no-json", "cut-json", "json-not-utf8", "no-table", "no-audit"],
)
def test_a_report_its_reader_refuses_is_rebuilt(tmp_path, toy_dir, capsys, caplog, name, damage, reason):
    caplog.set_level(logging.WARNING, logger="kgrerank.cli")
    extra = "\n[eval]\naudit = true\n"
    clean = write_config(tmp_path / "clean.ini", toy_dir, tmp_path / "clean", extra=extra)
    assert main(["evaluate", "--config", clean]) == 0
    table = capsys.readouterr().out
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w", extra=extra)
    assert main(["evaluate", "--config", cfg]) == 0
    path = workdir_file(tmp_path / "w", "report-", name)
    if damage is None:
        os.remove(path)
    else:
        with open(path, "wb") as f:
            f.write(damage)
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg]) == 0
    assert capsys.readouterr().out == table
    warnings = _warnings(caplog)
    assert len(warnings) == 1 and reason in warnings[0]
    assert warnings[0].startswith(f"rebuilding {os.path.dirname(path)}, which its reader refuses: ")
    assert _tree(tmp_path / "w") == _tree(tmp_path / "clean")
    assert not [e for e in os.listdir(tmp_path / "w") if e.endswith(".tmp")]


def _grow(path):
    with open(path, "ab") as f:
        f.write(b"x\n")


def _into_a_directory(path):
    os.remove(path)
    os.mkdir(path)
    with open(os.path.join(path, "stray"), "wb") as f:
        f.write(b"x")


# each output: the prefix of its address, the file damaged in it (None: the
# address is that file), the stage that publishes it and the next stage, which reads it
OUTPUTS = {
    "graph-array": ("graph-", "graph.npy", "train-embeddings", "build-eval"),
    "graph-texts": ("graph-", "texts.bin", "train-embeddings", "build-eval"),
    "checkpoint": ("embeddings-", None, "train-embeddings", "build-eval"),
    "finetune-records": ("finetune-", "instructions.jsonl", "build-finetune", "build-finetune"),
    "finetune-holdout": ("finetune-", "holdout.jsonl", "build-finetune", "build-finetune"),
    "finetune-summary": ("finetune-", "summary.json", "build-finetune", "build-finetune"),
    "eval-records": ("eval-", "instructions.jsonl", "build-eval", "evaluate"),
    "eval-summary": ("eval-", "summary.json", "build-eval", "evaluate"),
    "report": ("report-", "report.json", "evaluate", "evaluate"),
    "report-txt": ("report-", "report.txt", "evaluate", "evaluate"),
    "report-audit": ("report-", "audit.jsonl", "evaluate", "evaluate"),
}
DAMAGES = {
    "cut": lambda path: os.truncate(path, os.path.getsize(path) // 2),
    "grown": _grow,
    "removed": os.remove,
    "directory": _into_a_directory,
}


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("output", OUTPUTS)
def test_a_damaged_stage_output_is_rebuilt_with_one_warning(tmp_path, toy_dir, caplog, output, damage):
    prefix, name, first, then = OUTPUTS[output]
    audit = "--set=eval.audit=yes"  # the report's audit.jsonl is one of its files
    clean = _clean_run(tmp_path, toy_dir, [first, then], audit)
    caplog.set_level(logging.WARNING)
    caplog.clear()
    workdir = tmp_path / "w"
    cfg = write_config(tmp_path / "run.ini", toy_dir, workdir)
    assert main([first, "--config", cfg, audit]) == 0
    assert _warnings(caplog) == []  # nothing was at any address
    address = workdir_file(workdir, prefix)
    DAMAGES[damage](os.path.join(address, name) if name else address)
    assert main([then, "--config", cfg, audit]) == 0
    warnings = _warnings(caplog)
    if name is None and damage == "removed":  # nothing at the address, as in a first run
        assert warnings == []
    else:
        assert len(warnings) == 1, warnings
        assert re.fullmatch(rf"rebuilding {re.escape(address)}, which its reader refuses: .+", warnings[0])
    assert _tree(workdir) == clean
    assert not [e for e in os.listdir(workdir) if e.endswith(".tmp")]


def test_an_output_its_reader_cannot_open_is_left_in_place(tmp_path, toy_dir, monkeypatch):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["train-embeddings", "--config", cfg]) == 0
    ckpt = workdir_file(tmp_path / "w", "embeddings-")
    whole = read_bytes(ckpt)

    def unreadable(path):  # not a damage of the output: it is not rebuilt
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(EmbeddingTable, "load", unreadable)
    with pytest.raises(PermissionError):
        main(["build-eval", "--config", cfg])
    assert read_bytes(ckpt) == whole


def test_a_stage_that_trains_the_checkpoint_does_not_read_it_back(tmp_path, toy_dir, monkeypatch):
    loads = []
    load = EmbeddingTable.load.__func__

    def counting_load(cls, path):
        table = load(cls, path)
        loads.append(path)  # a load that raised is not counted
        return table

    monkeypatch.setattr(EmbeddingTable, "load", classmethod(counting_load))
    names = ("instructions.jsonl", "summary.json")
    sets = {}
    for command in ("build-eval", "evaluate"):  # each trains the checkpoint itself
        workdir = tmp_path / command
        assert main([command, "--config", write_config(tmp_path / f"{command}.ini", toy_dir, workdir)]) == 0
        assert loads == []
        sets[command] = [read_bytes(workdir_file(workdir, "eval-", name)) for name in names]
    workdir = tmp_path / "trained-first"
    cfg = write_config(tmp_path / "trained-first.ini", toy_dir, workdir)
    assert main(["train-embeddings", "--config", cfg]) == 0
    assert main(["build-eval", "--config", cfg]) == 0
    assert len(loads) == 1  # build-eval read what train-embeddings trained
    expected = [read_bytes(workdir_file(workdir, "eval-", name)) for name in names]
    assert sets["build-eval"] == sets["evaluate"] == expected


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_training_whose_last_step_overflows_exits_2_and_publishes_nothing(tmp_path, toy_dir, capsys):
    # one batch of the 60 toy facts: its loss is finite, and its step overflows the vectors
    workdir = tmp_path / "w"
    cfg = write_config(tmp_path / "run.ini", toy_dir, workdir)
    sets = ["embedder.learning_rate=1e308", "embedder.epochs=1", "embedder.dim=8", "embedder.batch_size=64"]
    assert main(["train-embeddings", "--config", cfg, *(f"--set={s}" for s in sets)]) == 2
    assert "data error: non-finite vectors after the last epoch" in capsys.readouterr().err
    names = os.listdir(workdir)
    assert not [n for n in names if n.startswith("embeddings-") or n.endswith(".tmp")], names


def test_a_set_summary_records_every_ranker_and_instruct_value(tmp_path, toy_dir):
    sets = [
        "ranker.m=4", "ranker.alpha=0.5", "ranker.beta=0.25",
        "instruct.gamma=3", "instruct.max_description_chars=40", "instruct.rc_sampling=false",
        "instruct.shuffle_candidates=true", "instruct.seed=4",
    ]
    ranker, instruct = (dataclasses.fields(cli._SECTIONS[s]) for s in ("ranker", "instruct"))
    assert not {f.name for f in ranker} & {f.name for f in instruct}
    assert len(sets) == len(ranker) + len(instruct)  # every key set away from its default
    cfg_path = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    cfg = load_config(cfg_path, sets)
    for which in ("finetune", "eval"):
        assert main([f"build-{which}", "--config", cfg_path, *(f"--set={s}" for s in sets)]) == 0
        with open(os.path.join(stage_output(cfg, which), "summary.json"), encoding="utf-8") as f:
            summary = json.load(f)
        for section, fields in (("ranker", ranker), ("instruct", instruct)):
            for f in fields:
                assert summary[f.name] == getattr(getattr(cfg, section), f.name), (which, f.name)


def test_both_set_summaries_have_one_layout(tmp_path, toy_dir):
    cfg_path = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    sets = ["--set=ranker.beta=0.5"]  # truncation drops finetune queries
    for command in ("build-finetune", "build-eval", "evaluate"):
        assert main([command, "--config", cfg_path, *sets]) == 0
    cfg = load_config(cfg_path, [s.removeprefix("--set=") for s in sets])
    read = {}
    for output, name in (("finetune", "summary.json"), ("eval", "summary.json"), ("report", "report.json")):
        with open(os.path.join(stage_output(cfg, output), name), encoding="utf-8") as f:
            read[output] = json.load(f)
    finetune, evaluation = read["finetune"], read["eval"]
    assert sorted(finetune) == sorted(evaluation)
    assert evaluation["kept"] == evaluation["queries"] == 24
    assert evaluation["dropped"] == evaluation["holdout_queries"] == 0
    counts = ("queries", "kept", "dropped", "holdout_queries")
    assert [finetune[key] for key in counts] == [20, 3, 17, 4]  # as the two builders counted them
    # what scripts/sweep.py prints and perfbench/run.py reads is there
    for output, _, columns in load_script("sweep").COLUMNS.values():
        for _, key, _ in columns:
            functools.reduce(operator.getitem, key.split("."), read[output])
    for key in ("queries", "kept", "holdout_queries"):
        assert key in finetune and key in evaluation


def test_a_failed_summary_write_leaves_no_marker(tmp_path, toy_dir, monkeypatch):
    original = cli.build_set
    for command in ("build-eval", "evaluate"):  # evaluate builds the set in a fresh workdir
        workdir = tmp_path / command
        cfg = write_config(tmp_path / f"{command}.ini", toy_dir, workdir)
        calls = []

        def build(*args):
            calls.append(args)
            if len(calls) == 1:  # json.dump fails after writing the keys before "checkpoint"
                args = (*args[:-1], object())
            return original(*args)

        monkeypatch.setattr(cli, "build_set", build)
        with pytest.raises(TypeError, match="not JSON serializable"):
            main([command, "--config", cfg])
        assert not [e for e in os.listdir(workdir) if e.startswith(("eval-", "report-")) or e.endswith(".tmp")]
        assert main([command, "--config", cfg]) == 0
        assert len(calls) == 2
        assert json.loads(read_text(workdir_file(workdir, "eval-", "summary.json")))["kept"] == 24


def _raises_after(original):
    """``original``, which raises once it has written what it writes."""

    def partway(*args, **kwargs):
        original(*args, **kwargs)
        raise RuntimeError("killed partway")

    return partway


def _raises_after_its_samples(original):
    """``build_set``, whose samples raise once the last one and the summary are written."""

    def partway(*args, **kwargs):
        yield from original(*args, **kwargs)
        raise RuntimeError("killed partway")

    return partway


@pytest.mark.parametrize(
    "command, owner, target, wrap, prefix, marker",
    [
        ("train-embeddings", cli, "train", _raises_after, "embeddings-", None),
        ("train-embeddings", cli.EmbeddingTable, "save", _raises_after, "embeddings-", None),
        ("build-finetune", cli, "build_set", _raises_after_its_samples, "finetune-", "summary.json"),
        ("build-eval", cli, "build_set", _raises_after_its_samples, "eval-", "summary.json"),
        ("evaluate", cli, "evaluate", _raises_after, "report-", "report.txt"),
        ("evaluate", cli, "build_set", _raises_after_its_samples, "report-", "report.txt"),
    ],
    ids=["train", "save", "build-finetune", "build-eval", "evaluate", "evaluate-build"],
)
def test_a_stage_that_fails_partway_leaves_nothing_at_its_address(
    tmp_path, toy_dir, monkeypatch, command, owner, target, wrap, prefix, marker
):
    workdir = tmp_path / "w"
    cfg = write_config(tmp_path / "run.ini", toy_dir, workdir, extra="\n[eval]\naudit = true\n")
    monkeypatch.setattr(owner, target, wrap(getattr(owner, target)))
    with pytest.raises(RuntimeError, match="killed partway"):
        main([command, "--config", cfg])
    # evaluate in a fresh workdir builds the eval set too, and publishes neither
    assert not [e for e in os.listdir(workdir) if e.startswith((prefix, "eval-")) or e.endswith(".tmp")]
    monkeypatch.undo()
    assert main([command, "--config", cfg]) == 0
    output = workdir_file(workdir, prefix)
    assert os.path.isfile(os.path.join(output, marker) if marker else output)
    assert not [e for e in os.listdir(workdir) if e.endswith(".tmp")]


def _tree(root):
    """Every file under ``root``: relative path -> bytes."""
    return {
        os.path.relpath(os.path.join(d, name), root): read_bytes(os.path.join(d, name))
        for d, _, files in os.walk(root)
        for name in files
    }


def test_a_rerun_replaces_what_an_interrupted_run_left(tmp_path, toy_dir):
    stale = tmp_path / "stale"
    cfg_path = write_config(tmp_path / "stale.ini", toy_dir, stale)
    cfg = load_config(cfg_path)
    # what earlier versions left: an empty report directory after a dead
    # endpoint, an eval set whose build failed before its summary, and the
    # temporaries of killed runs, the parsed graph's among them
    os.makedirs(stage_output(cfg, "report"))
    os.makedirs(stage_output(cfg, "eval"))
    with open(os.path.join(stage_output(cfg, "eval"), "instructions.jsonl"), "w") as f:
        f.write('{"id": "test-0-ta')
    os.makedirs(stage_output(cfg, "finetune") + ".tmp")
    with open(os.path.join(stage_output(cfg, "finetune") + ".tmp", "instructions.jsonl"), "w") as f:
        f.write("{")
    with open(stage_output(cfg, "embeddings") + ".ckpt.tmp", "wb") as f:
        f.write(b"KGE")
    os.makedirs(stage_output(cfg, "graph") + ".tmp")
    with open(os.path.join(stage_output(cfg, "graph") + ".tmp", "train.npy"), "wb") as f:
        f.write(b"\x93NUM")
    fresh_cfg = write_config(tmp_path / "fresh.ini", toy_dir, tmp_path / "fresh")
    for path in (fresh_cfg, cfg_path):
        for command in ("train-embeddings", "build-finetune", "build-eval", "evaluate"):
            assert main([command, "--config", path]) == 0
    assert _tree(stale) == _tree(tmp_path / "fresh")


def test_the_triple_files_are_parsed_once_per_workdir(tmp_path, toy_dir, monkeypatch):
    parsed = _count_parses(monkeypatch)
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    for command in ("train-embeddings", "build-finetune", "build-eval"):
        assert main([command, "--config", cfg]) == 0
    assert sorted(parsed) == ["test.txt", "train.txt", "valid.txt"]


def test_a_graph_read_from_the_cache_equals_the_parsed_graph(tmp_path, toy_dir, monkeypatch):
    cfg = load_config(write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w"))
    first = cli._load_graph(cfg)
    assert sorted(os.listdir(stage_output(cfg, "graph"))) == GRAPH_FILES
    parsed = _count_parses(monkeypatch)
    cached = cli._load_graph(cfg)
    assert parsed == []
    reference = load_kg(toy_dir)
    for graph in (first, cached):  # the miss returns what it parsed, the hit what it read
        assert_same_graph(graph, reference)


def test_a_graph_load_logs_whether_it_read_or_parsed(tmp_path, toy_dir, caplog):
    caplog.set_level(logging.INFO, logger="kgrerank.cli")
    cfg = load_config(write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w"))
    graph = stage_output(cfg, "graph")
    cli._load_graph(cfg)
    cli._load_graph(cfg)
    loads = [r.getMessage() for r in caplog.records if r.name == "kgrerank.cli"]
    assert len(loads) == 2
    assert re.fullmatch(rf"parsed {re.escape(toy_dir)} and published {re.escape(graph)} in \d+\.\d\d s", loads[0])
    assert re.fullmatch(rf"read {re.escape(graph)} in \d+\.\d\d s", loads[1])


def test_training_logs_its_epochs_and_time(tmp_path, toy_dir, caplog):
    caplog.set_level(logging.INFO, logger="kgrerank.cli")
    cfg = load_config(write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w"))
    kg = cli._load_graph(cfg)
    cli.ensure_embeddings(cfg, kg)
    cli.ensure_embeddings(cfg, kg)  # up to date: trains nothing
    trained = [r.getMessage() for r in caplog.records if r.getMessage().startswith("trained ")]
    assert len(trained) == 1
    assert re.fullmatch(rf"trained {cfg.embedder.epochs} epoch\(s\) in \d+\.\d\d s", trained[0])


def test_the_graph_layout_readdresses_only_the_graph(tmp_path, toy_dir, monkeypatch):
    cfg = load_config(write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w"))
    stages = ("graph", "embeddings", "finetune", "eval", "report")
    before = {stage: cli.stage_output(cfg, stage) for stage in stages}
    monkeypatch.setattr(cli, "GRAPH_LAYOUT", cli.GRAPH_LAYOUT + 1)
    after = {stage: cli.stage_output(cfg, stage) for stage in stages}
    assert after["graph"] != before["graph"]
    assert {s: after[s] for s in stages[1:]} == {s: before[s] for s in stages[1:]}


def _damage_and_rebuild(tmp_path, toy_dir, damage):
    """Damage the graph directory a first stage published, then run
    ``build-eval``: it must exit 0 and replace the directory whole, with
    files byte-equal to a fresh parse's and no ``*.tmp`` left."""
    cfg_path = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    assert main(["train-embeddings", "--config", cfg_path]) == 0
    graph = stage_output(load_config(cfg_path), "graph")
    damage(graph)
    survivors = {name: os.stat(os.path.join(graph, name)).st_ino for name in os.listdir(graph)}
    assert main(["build-eval", "--config", cfg_path]) == 0
    for name, inode in survivors.items():  # a new file, renamed in with its directory
        assert os.stat(os.path.join(graph, name)).st_ino != inode
    fresh = str(tmp_path / "fresh")
    load_kg(toy_dir, None, fresh)
    assert sorted(os.listdir(graph)) == GRAPH_FILES
    for name in GRAPH_FILES:
        assert read_bytes(os.path.join(graph, name)) == read_bytes(os.path.join(fresh, name)), name
    assert glob.glob(str(tmp_path / "w" / "*.tmp")) == []


@pytest.mark.parametrize("missing", GRAPH_FILES)
def test_a_graph_directory_missing_a_file_is_replaced_not_written_into(tmp_path, toy_dir, missing):
    _damage_and_rebuild(tmp_path, toy_dir, lambda graph: os.remove(os.path.join(graph, missing)))


@pytest.mark.parametrize("name", GRAPH_FILES)
def test_a_graph_file_cut_short_is_replaced(tmp_path, toy_dir, name):
    def cut(graph):
        path = os.path.join(graph, name)
        os.truncate(path, os.path.getsize(path) // 2)

    _damage_and_rebuild(tmp_path, toy_dir, cut)


def _read_sections(graph):
    """graph.npy's sections by name, as copies: its length prefix, then the sections end to end."""
    array = np.load(os.path.join(graph, "graph.npy"))
    ends = np.cumsum([len(GRAPH_SECTIONS), *array[: len(GRAPH_SECTIONS)]])
    return {name: array[start:end] for name, start, end in zip(GRAPH_SECTIONS, ends, ends[1:])}


def _rewrite_sections(change):
    """Rewrite graph.npy with the sections ``change`` returns, each after its new length."""

    def rewrite(graph):
        sections = change(_read_sections(graph))
        lengths = [len(section) for section in sections.values()]
        np.save(os.path.join(graph, "graph.npy"), np.concatenate([lengths, *sections.values()]).astype(np.int64))

    return rewrite


def _rewrite_section(name, change):
    return _rewrite_sections(lambda sections: {**sections, name: change(sections[name])})


@pytest.mark.parametrize("name", GRAPH_SECTIONS)
def test_a_graph_section_dropped_with_its_length_is_replaced(tmp_path, toy_dir, name):
    drop = _rewrite_sections(lambda sections: {n: s for n, s in sections.items() if n != name})
    _damage_and_rebuild(tmp_path, toy_dir, drop)


@pytest.mark.parametrize("name", GRAPH_SECTIONS)
def test_a_graph_section_cut_short_is_replaced(tmp_path, toy_dir, name):
    _damage_and_rebuild(tmp_path, toy_dir, _rewrite_section(name, lambda s: s[: len(s) // 2]))


def _rewrite_graph_array(change):
    def rewrite(graph):
        path = os.path.join(graph, "graph.npy")
        np.save(path, change(np.load(path)))

    return rewrite


def _rewrite_texts(change):
    """Rewrite texts.bin with what ``change`` makes of its bytes and graph.npy's sections."""

    def rewrite(graph):
        path = os.path.join(graph, "texts.bin")
        blob = change(read_bytes(path), _read_sections(graph))
        with open(path, "wb") as f:
            f.write(blob)

    return rewrite


def _zip_magic(graph):
    """Write a zip archive's magic over graph.npy's, which ``np.load`` would open as an .npz."""
    with open(os.path.join(graph, "graph.npy"), "r+b") as f:
        f.write(b"PK\x03\x04")


def _rows(change):
    """A change to a split's rows, applied to its flattened section."""
    return lambda section: change(section.reshape(-1, 3)).reshape(-1)


def _straddle_two_descriptions(blob, sections):
    """Write "é" (two bytes) over the "\\n" that ends one description and the
    first byte of the next: the blob stays valid UTF-8, but that description
    ends inside a character."""
    d = sections["entity_descriptions"]
    # the end of a non-empty description that a non-empty one follows
    at = next(int(d[i + 1]) for i in range(len(d) - 2) if d[i + 1] - d[i] > 1 and d[i + 2] - d[i + 1] > 1)
    return blob[: at - 1] + "é".encode("utf-8") + blob[at + 1 :]


def _not_utf8_in_a_description(blob, sections):
    d = sections["entity_descriptions"]
    at = next(int(d[i]) for i in range(len(d) - 1) if d[i + 1] - d[i] > 1)  # a non-empty one's first byte
    return blob[:at] + b"\xff" + blob[at + 1 :]


def _newline_in_a_name(blob, sections):
    """Write "\\n" over the first byte of the first entity name: every entry
    still ends in "\\n", but the names split into one more than the entities."""
    at = int(sections["entity_names"][0])
    return blob[:at] + b"\n" + blob[at + 1 :]


def _a_name_moved_from(kind):
    """Move the last entity name to the front of the relation names, or the
    first relation name to the end of the entity names: the text offsets
    still run from 0 to the blob's end with a rise for each entry, but the
    names no longer count the entities or relations that the descriptions
    and ``cooc`` count."""

    def change(sections):
        entities, relations = sections["entity_names"], sections["relation_names"]
        if kind == "entity":
            entities, relations = entities[:-1], np.concatenate([entities[-2:-1], relations])
        else:
            entities, relations = np.append(entities, relations[1]), relations[1:]
        return {**sections, "entity_names": entities, "relation_names": relations}

    return _rewrite_sections(change)


@pytest.mark.parametrize(
    "damage",
    [
        _rewrite_section("train", lambda a: a + 100),  # ids past the entity count
        _rewrite_section("test", _rows(lambda a: a + [100, 0, 0])),  # one column at a time
        _rewrite_section("test", _rows(lambda a: a + [0, 100, 0])),
        _rewrite_section("test", _rows(lambda a: a + [0, 0, 100])),
        _rewrite_section("valid", _rows(lambda a: a - [0, 0, 100])),
        _rewrite_section("test", lambda a: a[:-1]),  # not (n, 3) rows
        _rewrite_graph_array(lambda a: a.astype(np.int32)),
        _rewrite_section("all_keys", lambda a: a[::-1]),  # not increasing
        _rewrite_section("head_keys", lambda a: a[1:]),  # shorter than the splits imply
        _rewrite_section("adj_offsets", lambda a: a[:-1]),
        _rewrite_section("adj_facts", lambda a: a + 1000),  # rows past the train split
        _rewrite_graph_array(lambda a: np.where(np.arange(a.size) == GRAPH_SECTIONS.index("adj_facts"), a + 1, a)),
        _rewrite_section("cooc", lambda a: a.reshape(3, 3)[:, :-1].reshape(-1)),
        _rewrite_section("entity_names", lambda a: a[1:]),  # one name short of the entity count
        # offset 2 jumps to the end, so offset 3 falls; one offset short; starting
        # before the relation names end; as big-endian int64; one short of the end
        _rewrite_section("entity_descriptions", lambda a: np.where(np.arange(a.size) == 2, a[-1], a)),
        _rewrite_section("entity_descriptions", lambda a: np.delete(a, 1)),
        _rewrite_section("entity_descriptions", lambda a: np.where(np.arange(a.size) == 0, a[0] - 1, a)),
        _rewrite_graph_array(lambda a: a.astype(">i8")),
        _rewrite_section("entity_descriptions", lambda a: np.append(a[:-1], a[-1] - 1)),
        _rewrite_texts(_not_utf8_in_a_description),
        _rewrite_texts(_straddle_two_descriptions),
        _rewrite_texts(_newline_in_a_name),
        _rewrite_section("entity_names", lambda a: np.where(np.arange(a.size) == 0, 1, a)),  # not starting at 0
        _rewrite_section("adj_offsets", lambda a: np.where(np.arange(a.size) == 1, a[-1], a)),  # offset 2 falls
        _a_name_moved_from("entity"),
        _a_name_moved_from("relation"),
        _zip_magic,
    ],
    ids=[
        "train-range", "head-range", "relation-range", "tail-range", "negative-id",
        "test-shape", "graph-int32", "keys-order", "keys-length", "offsets-length",
        "facts-range", "prefix-sum", "cooc-shape", "names-length",
        "descriptions-order", "descriptions-length", "descriptions-start", "graph-big-endian", "descriptions-end",
        "descriptions-utf8", "descriptions-inside-a-character",
        "names-newline", "names-start", "offsets-order", "entity-name-moved", "relation-name-moved",
        "zip-magic",
    ],
)
def test_a_graph_file_that_fails_a_check_is_replaced(tmp_path, toy_dir, damage):
    _damage_and_rebuild(tmp_path, toy_dir, damage)


def test_a_description_is_decoded_only_when_a_prompt_reads_it(tmp_path, toy_dir, monkeypatch):
    decoded, whole = [], []
    decode, decode_all = kg_module.PackedTexts.__getitem__, kg_module.PackedTexts.tolist
    monkeypatch.setattr(kg_module.PackedTexts, "__getitem__", lambda texts, i: decoded.append(i) or decode(texts, i))
    monkeypatch.setattr(kg_module.PackedTexts, "tolist", lambda texts: whole.append(len(texts)) or decode_all(texts))
    cfg_path = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    cfg = load_config(cfg_path)
    graph = stage_output(cfg, "graph")
    miss = cli._load_graph(cfg)  # parses, builds and publishes the graph
    # one form per table whichever load made the graph: only the two name tables are decoded, once each
    assert whole == [miss.num_entities, miss.num_relations]
    assert isinstance(miss.entity_descriptions, kg_module.PackedTexts)
    assert type(miss.entity_names) is list and type(miss.relation_names) is list
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.path.dirname(os.path.abspath(file)) == graph:
            opened.append(os.path.basename(file))
        return real_open(file, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", recording_open)
        hit = cli._load_graph(cfg)  # reads it back
    assert sorted(set(opened)) == GRAPH_FILES
    assert isinstance(hit.entity_descriptions, kg_module.PackedTexts)
    assert type(hit.entity_names) is list and type(hit.relation_names) is list
    assert decoded == []
    assert main(["build-eval", "--config", cfg_path]) == 0
    samples = read_records(workdir_file(tmp_path / "w", "eval-", "instructions.jsonl"))
    assert len(samples) == 24 and sorted(decoded) == sorted(s["known"] for s in samples)


@pytest.mark.parametrize(
    "split, line, message",
    [
        ("test.txt", "E0\tR0", r"test\.txt:13: expected 3 tab-separated fields"),
        ("valid.txt", None, "splits share triples"),
    ],
    ids=["bad-line", "not-disjoint"],
)
def test_a_dataset_that_fails_to_load_leaves_no_graph(tmp_path, toy_dir, capsys, split, line, message):
    dataset = tmp_path / "dataset"
    shutil.copytree(toy_dir, dataset)
    if line is None:  # a training fact, which the valid split may not repeat
        line = (dataset / "train.txt").read_text(encoding="utf-8").splitlines()[0]
    with open(dataset / split, "a", encoding="utf-8") as f:
        f.write(line + "\n")
    workdir = tmp_path / "w"
    cfg = write_config(tmp_path / "run.ini", dataset, workdir)
    assert main(["train-embeddings", "--config", cfg]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not [e for e in os.listdir(workdir) if e.startswith("graph-")]


@pytest.mark.parametrize(
    "command, emptied", [("build-finetune", "valid.txt"), ("evaluate", "test.txt")]
)
def test_an_empty_split_is_a_data_error(tmp_path, toy_dir, capsys, command, emptied):
    dataset = tmp_path / "dataset"
    shutil.copytree(toy_dir, dataset)
    (dataset / emptied).write_text("", encoding="utf-8")
    cfg = write_config(tmp_path / "run.ini", dataset, tmp_path / "w")
    assert main([command, "--config", cfg]) == 2
    assert re.search(r"^data error: .*non-empty", capsys.readouterr().err, re.MULTILINE)


def load_script(name):
    """``scripts/<name>.py`` as a module."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, args, monkeypatch, capsys):
    module = load_script(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    module.main()
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "counts, message",
    [
        ("2 1 3 0 0", "= 3 triples, but 2 entities and 1 relations make only 2 distinct ones"),
        ("1 4 1 0 0", "= 1 triples, but 1 entities and 4 relations make only 0 distinct ones"),
        ("20 3 60 12 -1", "counts must not be negative: .*n_test=-1"),
        ("-2 3 0 0 0", "counts must not be negative: n_entities=-2"),
    ],
    ids=["too-many", "one-entity", "negative-count", "negative-entities"],
)
def test_make_toy_dataset_refuses_counts_it_cannot_meet(tmp_path, monkeypatch, capsys, counts, message):
    # the draws could never meet these counts, so they are refused before any draw
    flags = ("--entities", "--relations", "--train", "--valid", "--test")
    args = ["--out", str(tmp_path / "d"), *(x for pair in zip(flags, counts.split()) for x in pair)]
    with pytest.raises(SystemExit) as exited:
        run_script("make_toy_dataset", args, monkeypatch, capsys)
    assert exited.value.code == 2 and re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "d").exists()


def test_make_toy_dataset_meets_the_largest_count_it_can(tmp_path, monkeypatch, capsys):
    args = ["--out", str(tmp_path / "d"), "--entities", "2", "--relations", "1", "--train", "2", "--valid", "0", "--test", "0"]
    assert run_script("make_toy_dataset", args, monkeypatch, capsys) == [f"wrote dataset to {tmp_path / 'd'}"]
    assert sorted(read_text(tmp_path / "d" / "train.txt").splitlines()) == ["/ent/000\t/rel/0\t/ent/001", "/ent/001\t/rel/0\t/ent/000"]


def readme_sweep(stage, cfg, *extra):
    """The arguments of README's ``scripts/sweep.py`` command line for ``stage``,
    with ``cfg`` as its config and ``extra`` after them."""
    readme = read_text(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).replace("\\\n", " ")
    argv = next(shlex.split(line) for line in readme.splitlines() if line.startswith(f"python scripts/sweep.py {stage} "))
    argv[argv.index("--config") + 1] = cfg
    return argv[2:] + list(extra)


def sweep_rows(lines, columns):
    """A sweep's printed table as (label, cells) rows, after checking its header."""
    assert lines[0].split()[0] == "row"
    return [(row[0], row[1:]) for row in (line.rsplit(maxsplit=columns) for line in lines[1:])]


def test_sweep_beta_script(tmp_path, toy_dir, monkeypatch, capsys):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    # the row's beta wins over the shared one; the shared gamma reaches every row
    args = readme_sweep("build-finetune", cfg, "--set", "ranker.beta=0.7", "--set", "instruct.gamma=0")
    rows = sweep_rows(run_script("sweep", args, monkeypatch, capsys), 3)
    assert [label for label, _ in rows] == ["beta=0", "beta=0.05", "beta=0.5", "beta=1.0"]
    assert rows[0][1] == ["20", "20", "0"]  # beta 0 keeps every query
    for _, (queries, kept, dropped) in rows:
        assert queries == "20" and int(kept) + int(dropped) == 20
    kept = [int(cells[1]) for _, cells in rows]
    assert kept == sorted(kept, reverse=True)
    summaries = [json.loads(read_text(path)) for path in glob.glob(str(tmp_path / "w" / "finetune-*" / "summary.json"))]
    assert sorted(s["beta"] for s in summaries) == [0.0, 0.05, 0.5, 1.0]
    assert all(s["gamma"] == 0 for s in summaries)  # the --set reached every beta


def test_sweep_m_script(tmp_path, toy_dir, monkeypatch, capsys):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    args = readme_sweep("build-eval", cfg, "--set", "instruct.gamma=0")
    rows = sweep_rows(run_script("sweep", args, monkeypatch, capsys), 2)
    assert [(label, cells[0]) for label, cells in rows] == [("m=2", "24"), ("m=5", "24"), ("m=9", "24")]
    means = [float(cells[1]) for _, cells in rows]
    assert means == sorted(set(means))  # each candidate adds a line to every prompt
    summaries = [json.loads(read_text(path)) for path in glob.glob(str(tmp_path / "w" / "eval-*" / "summary.json"))]
    assert sorted(s["m"] for s in summaries) == [2, 5, 9]
    assert all(s["gamma"] == 0 for s in summaries)  # the --set reached every m


def report_rows(text):
    """The metric rows of a printed report table: label -> [MRR, Hits@1, Hits@3, Hits@10]."""
    return {line[:14].strip(): line[14:].split() for line in text.splitlines()[2:]}


def printed(dm):
    return [f"{dm[key]:.4f}" for key in ("mrr", "hits1", "hits3", "hits10")]


def gold_ranks(toy_dir, ckpt, limit_triples=None):
    """The ``rank_queries`` gold rank of each test query at m = 5, by direction."""
    kg, table = load_kg(toy_dir), EmbeddingTable.load(ckpt)
    ranks = {"head": [], "tail": []}
    for t in kg.test[:limit_triples]:
        for q in queries_for_triple(t):
            ranks[q.direction].append(next(rank_queries(table, kg, [q], 5)).gold_rank)
    return ranks


def test_a_checkpoint_whose_scores_overflow_is_retrained(tmp_path, toy_dir, caplog, capsys):
    # finite vectors whose L2 scores all overflow: its reader refuses the
    # checkpoint, so each stage that reads it retrains it and builds its set
    caplog.set_level(logging.WARNING, logger="kgrerank.cli")
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    overrides = ["embedder.dim=4", "embedder.epochs=1", "ranker.m=5"]
    sets = [f"--set={s}" for s in overrides]
    assert main(["train-embeddings", "--config", cfg, *sets]) == 0
    ckpt = stage_output(load_config(cfg, overrides), "embeddings") + ".ckpt"
    whole = read_bytes(ckpt)
    trained, rng = EmbeddingTable.load(ckpt), np.random.default_rng(0)
    ev, rv = (1e160 * rng.normal(size=vecs.shape) for vecs in (trained.entity_vecs, trained.relation_vecs))
    for command in ("build-finetune", "build-eval"):
        EmbeddingTable(ev, rv, trained.norm).save(ckpt)
        caplog.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([command, "--config", cfg, *sets]) == 0
        warnings = _warnings(caplog)
        assert len(warnings) == 1, warnings
        assert warnings[0].startswith(f"rebuilding {ckpt}, which its reader refuses: {ckpt}: not rankable")
        assert read_bytes(ckpt) == whole
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "cut, reason",
    [
        (lambda ev, rv, norm: (ev[:10], rv, norm), "(10, 3, 8, 'L2'), not (20, 3, 8, 'L2')"),
        (lambda ev, rv, norm: (ev, rv[:2], norm), "(20, 2, 8, 'L2'), not (20, 3, 8, 'L2')"),
        (lambda ev, rv, norm: (ev[:, :4], rv[:, :4], norm), "(20, 3, 4, 'L2'), not (20, 3, 8, 'L2')"),
        (lambda ev, rv, norm: (ev, rv, "L1"), "(20, 3, 8, 'L1'), not (20, 3, 8, 'L2')"),
    ],
    ids=["entities", "relations", "dim", "norm"],
)
def test_a_checkpoint_that_does_not_fit_the_graph_is_retrained(tmp_path, toy_dir, caplog, capsys, cut, reason):
    # a table of fewer rows than the graph has ids would be indexed past its
    # end; its reader refuses it, so each stage that reads it retrains it
    caplog.set_level(logging.WARNING, logger="kgrerank.cli")
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    sets = ["--set=embedder.epochs=5", "--set=embedder.dim=8"]
    assert main(["train-embeddings", "--config", cfg, *sets]) == 0
    ckpt = workdir_file(tmp_path / "w", "embeddings-")
    whole, trained = read_bytes(ckpt), EmbeddingTable.load(ckpt)
    for command in ("train-embeddings", "build-finetune"):
        EmbeddingTable(*cut(trained.entity_vecs, trained.relation_vecs, trained.norm)).save(ckpt)
        caplog.clear()
        assert main([command, "--config", cfg, *sets]) == 0
        warnings = _warnings(caplog)
        assert len(warnings) == 1, warnings
        prefix = f"rebuilding {ckpt}, which its reader refuses: {ckpt}: a table of (entities, relations, dim, norm) "
        assert warnings[0] == prefix + reason
        assert read_bytes(ckpt) == whole
    assert "error" not in capsys.readouterr().err


def test_first_candidate_evaluate_reports_the_base_model(tmp_path, toy_dir, capsys):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    sets = ["embedder.epochs=5", "embedder.dim=8", "backend.kind=first_candidate"]
    assert main(["-v", "evaluate", "--config", cfg, *(f"--set={s}" for s in sets)]) == 0
    rows = report_rows(capsys.readouterr().out)
    ranks = gold_ranks(toy_dir, stage_output(load_config(cfg, sets), "embeddings") + ".ckpt")
    assert rows["head"] == printed(metrics(ranks["head"]))
    assert rows["tail"] == printed(metrics(ranks["tail"]))
    assert rows["combined"] == printed(metrics(ranks["head"] + ranks["tail"]))
    assert rows["base combined"] == rows["combined"]
    report = json.loads(read_text(workdir_file(tmp_path / "w", "report-", "report.json")))
    assert report["base"] == {d: report[d] for d in ("head", "tail", "combined")}
    # with shuffled candidates the first in prompt order is any of the top m:
    # the base rows hold, and the reranked ones no longer equal them
    shuffled = sets + ["instruct.shuffle_candidates=true"]
    assert main(["evaluate", "--config", cfg, *(f"--set={s}" for s in shuffled)]) == 0
    rows = report_rows(capsys.readouterr().out)
    assert rows["base combined"] == printed(metrics(ranks["head"] + ranks["tail"]))
    assert rows["combined"] != rows["base combined"]


def test_a_base_model_rerun_trains_and_parses_nothing(tmp_path, toy_dir, monkeypatch, capsys, caplog):
    caplog.set_level(logging.DEBUG, logger="kgrerank.embeddings")
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    trained, loaded = [], []
    original_train, original_load = cli.train, cli.load_kg
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: trained.append(1) or original_train(*args, **kwargs))
    monkeypatch.setattr(cli, "load_kg", lambda *args: loaded.append(1) or original_load(*args))
    parsed = _count_parses(monkeypatch)
    argv = ["-v", "evaluate", "--config", cfg, "--set", "backend.kind=first_candidate"]

    assert main(argv) == 0
    first = report_rows(capsys.readouterr().out)
    assert (len(trained), len(parsed)) == (1, 3)
    assert "epoch 39 mean loss" in caplog.text  # the mean loss of the last of 40 epochs
    del trained[:], parsed[:], loaded[:]
    assert main(argv) == 0
    assert report_rows(capsys.readouterr().out) == first
    # a new report scores the first 3 test triples of the same eval set
    assert main(argv + ["--set", "eval.limit_triples=3"]) == 0
    limited = report_rows(capsys.readouterr().out)
    assert (trained, parsed, loaded) == ([], [], [])
    ckpt = stage_output(load_config(cfg), "embeddings") + ".ckpt"
    ranks = gold_ranks(toy_dir, ckpt)
    assert first["combined"] == printed(metrics(ranks["head"] + ranks["tail"]))
    ranks = gold_ranks(toy_dir, ckpt, limit_triples=3)
    assert limited["combined"] == printed(metrics(ranks["head"] + ranks["tail"]))


def test_verbose_logs_the_training_loss(tmp_path, toy_dir):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    stderr = {}
    for flags in ([], ["-v"]):
        cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / f"w{len(flags)}")
        argv = [sys.executable, "-m", "kgrerank.cli", *flags, "train-embeddings", "--config", cfg]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        stderr[len(flags)] = run.stderr
    assert "mean loss" not in stderr[0]
    assert "DEBUG kgrerank.embeddings: epoch 39 mean loss" in stderr[1]


def test_a_diverging_training_exits_2_with_one_line_and_no_warning(tmp_path, toy_dir):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    sets = ["embedder.learning_rate=1e308", "embedder.epochs=1", "embedder.dim=8", "embedder.batch_size=64"]
    argv = [sys.executable, "-m", "kgrerank.cli", "train-embeddings", "--config", cfg]
    run = subprocess.run(argv + [f"--set={s}" for s in sets], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stderr
    # the steps overflow in the scatter; what the user reads is the one line that says so
    lines = [line for line in run.stderr.splitlines() if not line.startswith("INFO ")]
    assert len(lines) == 1 and lines[0].startswith("data error: non-finite vectors after the last epoch"), run.stderr


def test_ablation_grid_script(tmp_path, toy_dir, monkeypatch, capsys):
    cfg = write_config(tmp_path / "run.ini", toy_dir, tmp_path / "w")
    rows = sweep_rows(run_script("sweep", readme_sweep("evaluate", cfg), monkeypatch, capsys), 5)
    assert [label for label, _ in rows] == [
        "full", "no description", "no neighbors", "uniform neighbors", "shuffled candidates"
    ]
    # the oracle picks by gold_id and never reads the prompt: every row ranks the same candidates
    assert len({tuple(cells) for _, cells in rows}) == 1
    reports = [e for e in os.listdir(tmp_path / "w") if e.startswith("report-")]
    assert len(reports) == 5
    for path in glob.glob(str(tmp_path / "w" / "report-*" / "report.json")):
        report = json.loads(read_text(path))
        assert (report["backend"], report["queries"]) == ("oracle", 24)
