"""Pipeline orchestration: one INI config, staged subcommands, cached outputs.

Every stage output is content-addressed by a digest of its input files
(the six dataset files, and the scripted fixture where a backend reads one)
and of the config keys that influence it, so rerunning with unchanged inputs
performs no work and changing any relevant file or key writes to a fresh
location. All randomness flows from explicit seeds in the config; artifact
files contain no timestamps or absolute paths, which keeps reruns
byte-identical. Each output is built under ``<address>.tmp`` and renamed to
its address when done, so a crash never leaves an entry at a stage address.
The graph, the checkpoint and the report are checked by their readers alone:
what a reader refuses is built again and replaced whole, and what a stage
builds it hands on without reading it back. A report is read back only when
its ``report.json`` parses and its ``report.txt`` and, under ``eval.audit``,
its ``audit.jsonl`` are there.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 backend or
transport error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import os
import shutil
import sys
import time
from contextlib import closing, contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import get_type_hints

from .discriminator import BackendConfig, BackendError, make_backend
from .embeddings import EmbeddingTable, TrainConfig, TrainingDiverged, train
from .evaluation import evaluate, format_table
from .instructions import (
    TEMPLATE_VERSION,
    BuildOptions,
    build_eval_set,
    build_finetune_set,
    iter_samples,
)
from .kg import DATASET_FILES, GRAPH_LAYOUT, DataError, KnowledgeGraph, load_kg
from .ranking import ConfidenceParams

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """Invalid configuration or command usage."""


_BOOLEAN = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _to_bool(raw: str) -> bool:
    try:
        return _BOOLEAN[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


_CASTS = {int: int, float: float, str: str, bool: _to_bool}


@dataclass
class PipelineOptions:
    """The ``[pipeline]`` config section."""

    dataset_dir: str
    workdir: str
    threads: int = 1  # per-query parallelism in evaluate

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass
class EvalOptions:
    """The ``[eval]`` config section."""

    limit_triples: int = 0  # N > 0 scores only the first N test triples
    audit: bool = False  # write a per-query audit.jsonl beside the report

    def __post_init__(self):
        if self.limit_triples < 0:
            raise ValueError("limit_triples must be >= 0")


@dataclass
class PipelineConfig:
    """A parsed config: one field per INI section, named after it."""

    pipeline: PipelineOptions
    embedder: TrainConfig
    ranker: ConfidenceParams
    instruct: BuildOptions
    backend: BackendConfig
    eval: EvalOptions
    file_hashes: dict = field(default_factory=dict)  # path -> sha256, see content_hash


# section -> its dataclass, which is its schema: the field names are the keys,
# the annotations (int, float, str, bool) the casts, the defaults the defaults,
# and a field without a default is a required key. __post_init__ checks values.
_SECTIONS = {name: cls for name, cls in get_type_hints(PipelineConfig).items() if name != "file_hashes"}


def load_config(path: str, overrides: list[str] | None = None) -> PipelineConfig:
    """Parse and validate the INI config; unknown sections or keys are errors."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    keys = {section: {f.name for f in fields(cls)} for section, cls in _SECTIONS.items()}
    raw: dict[str, dict[str, str]] = {s: {} for s in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in keys[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            raw[section][key] = value

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if key not in keys.get(section, ()):
            raise ConfigError(f"unknown config key {section}.{key}")
        raw[section][key] = value

    return PipelineConfig(**{s: _load_section(s, cls, raw[s]) for s, cls in _SECTIONS.items()})


def _load_section(section: str, cls, raw: dict[str, str]):
    """A section's dataclass from its raw strings, each cast by its field's annotation."""
    types = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name in raw:
            try:
                values[f.name] = _CASTS[types[f.name]](raw[f.name])
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{f.name}: {exc}") from exc
        elif f.default is MISSING:
            raise ConfigError(f"missing required config key {section}.{f.name}")
    try:
        return cls(**values)
    except ValueError as exc:  # the dataclass's range checks name the key
        raise ConfigError(f"{section}.{exc}") from exc


def content_hash(cfg: PipelineConfig, path: str) -> str | None:
    """sha256 of a file, or None when there is none; each file is read once per config."""
    if path not in cfg.file_hashes:
        digest = None
        if os.path.isfile(path):
            sha = hashlib.sha256()
            with open(path, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    sha.update(block)
            digest = sha.hexdigest()
        cfg.file_hashes[path] = digest
    return cfg.file_hashes[path]


def stage_digest(cfg: PipelineConfig, *sections: str) -> str:
    """Address of a stage output: the input file contents and the config sections it depends on."""
    dataset_dir = cfg.pipeline.dataset_dir
    if not os.path.isdir(dataset_dir):
        raise DataError(f"dataset directory not found: {dataset_dir}")
    dataset = {}
    for name in DATASET_FILES:
        path = os.path.join(dataset_dir, name)
        dataset[name] = content_hash(cfg, path)
        if dataset[name] is None:
            raise DataError(f"missing dataset file: {path}")
    payload = {"dataset": dataset}
    if "instruct" in sections:  # a new prompt or record layout is a new set
        payload["template_version"] = TEMPLATE_VERSION
    if not sections:  # the graph: a new layout of its built files is a new graph
        payload["graph_layout"] = GRAPH_LAYOUT
    for section in sections:
        payload[section] = asdict(getattr(cfg, section))
    if "backend" in sections and cfg.backend.kind == "scripted":  # the fixture's bytes, not its path
        payload["backend"]["scripted_file"] = content_hash(cfg, cfg.backend.scripted_file)
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


# stage -> the config sections its output depends on
_STAGE_SECTIONS = {
    "graph": (),
    "embeddings": ("embedder",),
    "finetune": ("embedder", "ranker", "instruct"),
    "eval": ("embedder", "ranker", "instruct"),
    "report": ("embedder", "ranker", "instruct", "backend", "eval"),
}


def stage_output(cfg: PipelineConfig, stage: str) -> str:
    """Where a stage writes: ``<workdir>/<stage>-<digest>``, a directory or, for
    ``embeddings``, the stem of the checkpoint ``<stem>.ckpt``. ``graph`` holds
    the built graph and depends on the dataset files alone."""
    digest = stage_digest(cfg, *_STAGE_SECTIONS[stage])
    return os.path.join(cfg.pipeline.workdir, f"{stage}-{digest}")


@contextmanager
def _publish(path: str):
    """Yield a temporary name beside the stage address ``path`` to build a file
    or a directory under. On success one rename puts it at ``path``, replacing
    any incomplete entry there; on failure it is removed. A body that builds
    nothing, such as a graph load that read its address, leaves ``path`` as it is."""
    tmp = path + ".tmp"
    _remove(tmp)  # left by a killed run
    try:
        yield tmp
        if os.path.lexists(tmp):
            _remove(path)  # incomplete: a damaged graph, or an older version's partial output
            os.replace(tmp, path)
    finally:
        _remove(tmp)


def _remove(path: str) -> None:
    if os.path.isdir(path) and not os.path.islink(path):
        shutil.rmtree(path)
    elif os.path.lexists(path):
        os.remove(path)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_graph(cfg: PipelineConfig) -> KnowledgeGraph:
    """The dataset's graph, built once per workdir: the first load parses the
    dataset and publishes the built graph at the ``graph`` address, and later
    loads read it back from there. An address with a file missing, cut short
    or failing a check counts as absent: it is rebuilt and replaced whole,
    never written into."""
    cache = stage_output(cfg, "graph")
    os.makedirs(cfg.pipeline.workdir, exist_ok=True)
    start = time.perf_counter()
    with _publish(cache) as tmp:
        kg = load_kg(cfg.pipeline.dataset_dir, cache, tmp)
        parsed = os.path.isdir(tmp)
    seconds = time.perf_counter() - start
    if parsed:
        logger.info("parsed %s and published %s in %.2f s", cfg.pipeline.dataset_dir, cache, seconds)
    else:
        logger.info("read %s in %.2f s", cache, seconds)
    return kg


def ensure_embeddings(cfg: PipelineConfig, kg: KnowledgeGraph | None = None) -> tuple[str, EmbeddingTable]:
    """The embedding checkpoint's address and its table, read from there or,
    if no file is there or ``EmbeddingTable.load`` refuses it, trained and
    published there whole."""
    os.makedirs(cfg.pipeline.workdir, exist_ok=True)
    ckpt = stage_output(cfg, "embeddings") + ".ckpt"
    if os.path.isfile(ckpt):
        try:
            table = EmbeddingTable.load(ckpt)
        except DataError as exc:
            logger.warning("retraining a checkpoint its reader refuses: %s", exc)
        else:
            logger.info("embeddings up to date: %s", ckpt)
            return ckpt, table
    if kg is None:
        kg = _load_graph(cfg)
    logger.info(
        "training embeddings: %d entities, %d relations, %d train triples",
        kg.num_entities, kg.num_relations, len(kg.train),
    )
    start = time.perf_counter()
    table = train(kg, cfg.embedder)
    logger.info("trained %d epoch(s) in %.2f s", cfg.embedder.epochs, time.perf_counter() - start)
    with _publish(ckpt) as tmp:
        table.save(tmp)
    return ckpt, table


def cmd_train(cfg: PipelineConfig) -> int:
    ckpt, _ = ensure_embeddings(cfg)
    print(f"checkpoint: {ckpt}")
    return 0


def _check_m(cfg: PipelineConfig, kg: KnowledgeGraph) -> None:
    if cfg.ranker.m > kg.num_entities:
        raise ConfigError(
            f"ranker.m = {cfg.ranker.m} exceeds the {kg.num_entities} entities in the graph"
        )


def _cached_samples(path: str, written: int):
    """The samples of a published set's instruction file, each read as it is
    taken; once the last is taken, a :class:`DataError` if their number is not
    the ``written`` count of the set's summary."""
    count = 0
    with closing(iter_samples(path)) as samples:
        for count, sample in enumerate(samples, start=1):
            yield sample
    if count != written:
        raise DataError(f"{path}: {count} records, but the set's summary.json says {written}")


@contextmanager
def _instruction_set(cfg: PipelineConfig, which: str):
    """Yield the samples and summary of the ``finetune`` or ``eval`` set. Each
    sample is read from the set's content address or, if the set is missing,
    built under ``_publish``, as the caller takes it: a caller that takes none
    reads no record, and one that takes the first can score it while the rest
    are ranked. A cached set's ``summary.json`` must be a JSON object with an
    integer ``written`` before any record is read, and a caller that drains
    the set must find that many records. On leaving a build, the
    samples not taken are built, ``summary.json`` is written and the whole set
    is published. If the caller raises, nothing is published. The summary
    names the checkpoint whose vectors the records' ids refer to."""
    outdir = stage_output(cfg, which)
    summary_path = os.path.join(outdir, "summary.json")
    if os.path.isfile(summary_path):
        logger.info("%s set up to date: %s", which, outdir)
        try:
            with open(summary_path, encoding="utf-8") as f:
                summary = json.load(f)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise DataError(f"{summary_path}: {exc}") from None
        if not isinstance(summary, dict) or type(summary.get("written")) is not int:
            raise DataError(f"{summary_path}: not a JSON object with an integer 'written' count")
        path = os.path.join(outdir, "instructions.jsonl")
        with closing(_cached_samples(path, summary["written"])) as samples:
            yield samples, summary
        return
    kg = _load_graph(cfg)
    _check_m(cfg, kg)
    ckpt, table = ensure_embeddings(cfg, kg)
    with _publish(outdir) as tmp:
        os.mkdir(tmp)
        instructions = os.path.join(tmp, "instructions.jsonl")
        if which == "eval":
            samples, summary = build_eval_set(kg, table, cfg.ranker, cfg.instruct, instructions)
        else:
            holdout = os.path.join(tmp, "holdout.jsonl")
            samples, summary = build_finetune_set(kg, table, cfg.ranker, cfg.instruct, instructions, holdout)
        with closing(samples):
            yield samples, summary
            for _ in samples:  # the rest of the set
                pass
        summary["checkpoint"] = os.path.basename(ckpt)  # beside the set's directory
        _write_json(os.path.join(tmp, "summary.json"), summary)
    logger.info("%s summary: %s", which, summary)


def ensure_build(cfg: PipelineConfig, which: str) -> str:
    """Build the ``finetune`` or ``eval`` set if its content address is absent;
    return its directory."""
    with _instruction_set(cfg, which):
        pass  # leaving builds a missing set whole; a set at its address is not read
    return stage_output(cfg, which)


def cmd_build(cfg: PipelineConfig, which: str) -> int:
    print(f"output: {ensure_build(cfg, which)}")
    return 0


def cmd_evaluate(cfg: PipelineConfig) -> int:
    outdir = stage_output(cfg, "report")
    if os.path.isdir(outdir):
        try:
            with open(os.path.join(outdir, "report.json"), encoding="utf-8") as f:
                json.load(f)
            with open(os.path.join(outdir, "report.txt"), encoding="utf-8") as f:
                table_text = f.read()
            if cfg.eval.audit and not os.path.isfile(os.path.join(outdir, "audit.jsonl")):
                raise FileNotFoundError("no audit.jsonl")
        except (OSError, ValueError) as exc:  # missing, not UTF-8, or not JSON
            logger.warning("rebuilding a report its reader refuses: %s: %s", outdir, exc)
        else:
            logger.info("report up to date: %s", outdir)
            print(table_text, end="")
            return 0
    backend = make_backend(cfg.backend)
    threads = cfg.pipeline.threads
    if cfg.backend.kind == "remote":  # the remote backend caps its requests in flight
        threads = min(threads, cfg.backend.in_flight)
    os.makedirs(cfg.pipeline.workdir, exist_ok=True)
    with _publish(outdir) as tmp:
        os.mkdir(tmp)
        # a missing eval set is built as evaluate takes its samples, and
        # published before the report
        with _instruction_set(cfg, "eval") as (samples, summary):
            report = evaluate(
                samples,
                summary,
                backend,
                limit_triples=cfg.eval.limit_triples,
                audit_path=os.path.join(tmp, "audit.jsonl") if cfg.eval.audit else None,
                threads=threads,
            )
        _write_json(os.path.join(tmp, "report.json"), report)
        table_text = format_table(report) + "\n"
        with open(os.path.join(tmp, "report.txt"), "w", encoding="utf-8") as f:
            f.write(table_text)
    print(table_text, end="")
    return 0


def cmd_inspect(path: str, sample_id: str | None, index: int | None) -> int:
    if index is not None and index < 0:
        raise ConfigError(f"--index must be >= 0, got {index}")
    if not os.path.isfile(path):
        raise DataError(f"instruction file not found: {path}")
    # reading stops at the sample printed; one not found is read to the end
    if sample_id is not None:
        sample = next((s for s in iter_samples(path) if s.id == sample_id), None)
        if sample is None:
            raise DataError(f"no sample with id {sample_id!r} in {path}")
    else:
        i, count = index or 0, 0
        for count, sample in enumerate(iter_samples(path), start=1):
            if count > i:
                break
        else:
            raise DataError(f"index {i} out of range for {count} samples")
    print(f"id: {sample.id}")
    print(f"direction: {sample.direction}")
    print(f"gold: {sample.gold_name} (id {sample.gold_id}, rank {sample.gold_rank})")
    print(f"candidates: {sample.candidate_ids}")
    print("prompt:")
    print(sample.prompt)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1, not argparse's 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kgrerank", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stage(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config key (repeatable)",
        )
        return p

    add_stage("train-embeddings", "train the embedding model and write a checkpoint")
    add_stage("build-finetune", "build truncated instruction data from the validation split")
    add_stage("build-eval", "build untruncated instruction data from the test split")
    add_stage("evaluate", "run the rerank evaluation with the configured backend")

    p = sub.add_parser("inspect", help="pretty-print one instruction sample")
    p.add_argument("--file", required=True, help="instruction JSONL file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--id", help="sample id to show")
    group.add_argument("--index", type=int, help="0-based sample index to show")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        if args.command == "inspect":
            return cmd_inspect(args.file, args.id, args.index)
        cfg = load_config(args.config, args.overrides)
        if args.command == "train-embeddings":
            return cmd_train(cfg)
        if args.command == "build-finetune":
            return cmd_build(cfg, "finetune")
        if args.command == "build-eval":
            return cmd_build(cfg, "eval")
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, TrainingDiverged) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
