"""Pipeline orchestration: one INI config, staged subcommands, cached outputs.

Every stage output is content-addressed by a digest of its input files
(the six dataset files, and the scripted fixture where a backend reads one)
and of the config keys that influence it, so rerunning with unchanged inputs
performs no work and changing any relevant file or key writes to a fresh
location. All randomness flows from explicit seeds in the config; artifact
files contain no timestamps or absolute paths, which keeps reruns
byte-identical. Every output follows one rule, ``_output``: its reader
returns it or refuses it, and what it refuses is logged once with the reason
and built again under ``<address>.tmp``, which one rename puts at the
address, so a crash never leaves an entry there. What a stage builds it
hands on without reading it back. A set's reader takes nothing from its
summary but the sha256 of each record file, and checks it: it reads their
bytes but parses no record, so a set with any record byte changed is rebuilt
before one of its samples is scored. The report's header (m, alpha, beta,
gamma) comes from the config, whose values the set's address digests.

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
from typing import Iterator, get_type_hints

from .discriminator import BackendConfig, BackendError, make_backend
from .embeddings import EmbeddingTable, TrainConfig, TrainingDiverged, train
from .evaluation import evaluate, format_table
from .instructions import TEMPLATE_VERSION, BuildOptions, InstructionSample, build_set, iter_samples, write_json
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
    parser = configparser.ConfigParser(interpolation=None, default_section="")  # [DEFAULT] is no special section
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


def _sha256(path: str) -> str:
    """The hex sha256 of a file's bytes, read in 1 MiB blocks."""
    sha = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def content_hash(cfg: PipelineConfig, path: str) -> str | None:
    """sha256 of a file, or None when there is none; each file is read once per config."""
    if path not in cfg.file_hashes:
        cfg.file_hashes[path] = _sha256(path) if os.path.isfile(path) else None
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
    if "backend" in sections:  # how requests are sent: a run that fails under them publishes nothing
        for key in ("timeout", "retries", "backoff", "in_flight"):
            del payload["backend"][key]
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
def _output(path: str, read):
    """The one rule for every stage output: yield ``(read(path), None)`` if
    the reader accepts what is at the address ``path``. If nothing is there,
    or ``read`` raises a :class:`DataError` or finds a file missing or a
    directory in a file's place (logged once, with the reason), yield
    ``(None, tmp)``: the body builds the output under ``tmp``, and one rename
    puts it at ``path``, replacing what was there; a body that raises leaves nothing."""
    if os.path.lexists(path):
        start = time.perf_counter()
        try:
            value = read(path)
        except (DataError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
            logger.warning("rebuilding %s, which its reader refuses: %s", path, exc)
        else:
            logger.info("read %s in %.2f s", path, time.perf_counter() - start)
            yield value, None
            return
    tmp = path + ".tmp"
    _remove(tmp)  # left by a killed run
    os.makedirs(os.path.dirname(path), exist_ok=True)
    try:
        yield None, tmp
        _remove(path)
        os.replace(tmp, path)
    finally:
        _remove(tmp)


def _remove(path: str) -> None:
    if os.path.isdir(path) and not os.path.islink(path):
        shutil.rmtree(path)
    elif os.path.lexists(path):
        os.remove(path)


def _load_graph(cfg: PipelineConfig) -> KnowledgeGraph:
    """The dataset's graph, parsed once per workdir and read back after that."""
    cache = stage_output(cfg, "graph")
    dataset = cfg.pipeline.dataset_dir
    start = time.perf_counter()
    with _output(cache, lambda path: load_kg(dataset, path)) as (kg, tmp):
        if tmp:
            kg = load_kg(dataset, None, tmp)
    if tmp:
        logger.info("parsed %s and published %s in %.2f s", dataset, cache, time.perf_counter() - start)
    return kg


def _read_checkpoint(cfg: PipelineConfig, kg: KnowledgeGraph, path: str) -> EmbeddingTable:
    """``EmbeddingTable.load``'s table, refused unless it has the graph's entity
    and relation counts and ``[embedder]``'s dim and norm: ids index its rows."""
    table = EmbeddingTable.load(path)
    shape = (len(table.entity_vecs), len(table.relation_vecs), table.dim, table.norm)
    wanted = (kg.num_entities, kg.num_relations, cfg.embedder.dim, cfg.embedder.norm)
    if shape != wanted:
        raise DataError(f"{path}: a table of (entities, relations, dim, norm) {shape}, not {wanted}")
    return table


def ensure_embeddings(cfg: PipelineConfig, kg: KnowledgeGraph) -> tuple[str, EmbeddingTable]:
    """The checkpoint's address and its table, read by ``_read_checkpoint`` or trained."""
    ckpt = stage_output(cfg, "embeddings") + ".ckpt"
    with _output(ckpt, lambda path: _read_checkpoint(cfg, kg, path)) as (table, tmp):
        if tmp:
            logger.info(
                "training embeddings: %d entities, %d relations, %d train triples",
                kg.num_entities, kg.num_relations, len(kg.train),
            )
            start = time.perf_counter()
            table = train(kg, cfg.embedder)
            logger.info("trained %d epoch(s) in %.2f s", cfg.embedder.epochs, time.perf_counter() - start)
            table.save(tmp)
    return ckpt, table


def cmd_train(cfg: PipelineConfig) -> int:
    ckpt, _ = ensure_embeddings(cfg, _load_graph(cfg))
    print(f"checkpoint: {ckpt}")
    return 0


def _check_m(cfg: PipelineConfig, kg: KnowledgeGraph) -> None:
    if cfg.ranker.m > kg.num_entities:
        raise ConfigError(
            f"ranker.m = {cfg.ranker.m} exceeds the {kg.num_entities} entities in the graph"
        )


def _read_set(outdir: str) -> Iterator[InstructionSample]:
    """The samples of the set at ``outdir``, as an unstarted ``iter_samples``
    generator, refused unless its ``summary.json`` is a JSON object whose
    ``record_sha256`` gives the sha256 of each record file there, one of them
    ``instructions.jsonl``. The record files are hashed, not parsed, and
    nothing else of the summary is read."""
    path = os.path.join(outdir, "summary.json")
    try:
        with open(path, encoding="utf-8") as f:
            summary = json.load(f)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{path}: {exc}") from None
    record_sha256 = summary.get("record_sha256") if isinstance(summary, dict) else None
    files = set(os.listdir(outdir)) - {"summary.json"}
    if not (isinstance(record_sha256, dict) and set(record_sha256) == files and "instructions.jsonl" in files):
        raise DataError(f"{path}: not a JSON object with the sha256 of each of its record files")
    for name, digest in record_sha256.items():
        if (actual := _sha256(os.path.join(outdir, name))) != digest:
            raise DataError(f"{os.path.join(outdir, name)}: sha256 {actual}, but summary.json records {digest}")
    return iter_samples(os.path.join(outdir, "instructions.jsonl"))


@contextmanager
def _instruction_set(cfg: PipelineConfig, which: str):
    """Yield the samples of the ``finetune`` or ``eval`` set. Each sample is
    read from the set's address or, if ``_read_set`` refuses what is there,
    built, as the caller takes it: a caller that takes none parses no record,
    and one that takes the first can score it while the rest are ranked. On
    leaving a build, the rest of the set and its summary are written, and the
    set is published."""
    with _output(stage_output(cfg, which), _read_set) as (samples, tmp):
        if tmp:
            kg = _load_graph(cfg)
            _check_m(cfg, kg)
            ckpt, table = ensure_embeddings(cfg, kg)
            os.mkdir(tmp)
            # the summary names the checkpoint by its file name: it sits beside the set's directory
            samples = build_set(kg, table, cfg.ranker, cfg.instruct, tmp, which, os.path.basename(ckpt))
        with closing(samples):
            yield samples
            if tmp:
                for _ in samples:  # the rest of the set
                    pass


def cmd_build(cfg: PipelineConfig, which: str) -> int:
    with _instruction_set(cfg, which):
        pass  # leaving builds a refused set whole; an accepted one is hashed, not parsed
    print(f"output: {stage_output(cfg, which)}")
    return 0


def _read_report(audit: bool, outdir: str) -> str:
    """A published report's table, refused unless ``report.json`` parses,
    ``report.txt`` is its table and, under ``eval.audit``, ``audit.jsonl``
    holds a line per query."""
    try:
        with open(os.path.join(outdir, "report.json"), encoding="utf-8") as f:
            report = json.load(f)
        table_text = format_table(report) + "\n"
        with open(os.path.join(outdir, "report.txt"), encoding="utf-8") as f:
            if f.read() != table_text:
                raise ValueError("report.txt is not the table of report.json")
        if audit:
            with open(os.path.join(outdir, "audit.jsonl"), "rb") as f:
                rows = f.read()
            if rows.count(b"\n") != report["queries"] or not rows.endswith(b"\n"):
                raise ValueError(f"audit.jsonl does not hold a line for each of {report['queries']} queries")
    except (ValueError, KeyError, TypeError) as exc:  # not UTF-8, not JSON, or not a report
        raise DataError(f"{outdir}: {exc}") from None
    return table_text


def cmd_evaluate(cfg: PipelineConfig) -> int:
    outdir = stage_output(cfg, "report")
    with _output(outdir, lambda path: _read_report(cfg.eval.audit, path)) as (table_text, tmp):
        if tmp:
            backend = make_backend(cfg.backend)
            threads = cfg.pipeline.threads
            if cfg.backend.kind == "remote":  # the remote backend caps its requests in flight
                threads = min(threads, cfg.backend.in_flight)
            os.mkdir(tmp)
            # a missing eval set is built as evaluate takes its samples, and
            # published before the report
            ranker = cfg.ranker
            header = {"m": ranker.m, "alpha": ranker.alpha, "beta": ranker.beta, "gamma": cfg.instruct.gamma}
            with _instruction_set(cfg, "eval") as samples:
                report = evaluate(
                    samples,
                    header,
                    backend,
                    limit_triples=cfg.eval.limit_triples,
                    audit_path=os.path.join(tmp, "audit.jsonl") if cfg.eval.audit else None,
                    threads=threads,
                )
            write_json(os.path.join(tmp, "report.json"), report)
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
