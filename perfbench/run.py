"""kgrerank benchmark: one run of one workload, or every workload.

    python3 perfbench/run.py --workload fb237-pipeline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout: it uses the program under ``src/`` and
writes only under ``.perfbench-work/``, which it removes again. A run
generates its graph from ``--seed`` outside the timed section, runs the
workload in a fresh interpreter, each repetition on an empty workdir, checks
the outputs, prints a readable summary and, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json; with
``--trace 1`` the workload runs twice, once untraced and once traced, with
one repetition each, and the metrics are the per-layer ones. The exit code
is 0 only when every check passed.

``--seconds`` sizes the valid/test cut, the part of a workload that grows
with the run; the graph loads and the training epoch come on top.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import graphs  # noqa: E402
from tracer import self_times  # noqa: E402
from workload import STAGES  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
PROBE_S = 0.1  # the reference speed: the one at which workload.SpeedProbe takes 100 ms
AUDIT_SAMPLE = 40  # audited queries whose ranks are recomputed by brute force


def time_limit(seconds: int) -> float:
    """Seconds a whole run may take before it is failed: 170 at --seconds 20.

    A run is a fixed part (inputs, graph loads, checks) plus a part that grows
    with --seconds.
    """
    return 120.0 + 2.5 * seconds


class ChildFailed(Exception):
    """A workload child exited non-zero or ran out of time."""

# Why each workload exists, and which module it loads. ``reps`` is how often
# an untraced run repeats the workload, each time on a fresh workdir.
WORKLOADS = {
    # The staged CLI as a user runs it: train-embeddings (1 epoch), build-
    # finetune, build-eval, evaluate (oracle, 1 thread, audit on), on the
    # degree-skewed FB15K-237-shaped graph. Ranking (the test split twice)
    # and prompt building (hub queries with big filter sets and neighbor
    # pools, which a uniform graph hides) do most of the work, and the graph
    # is loaded four times. Loads: kg, embeddings, ranking, instructions,
    # evaluation, cli. Two repetitions, and per stage their median (mean) is
    # reported, so that one badly probed stretch counts only half.
    "fb237-pipeline": {"triples_per_s": 6, "reps": 2},
    # evaluate with the remote backend (L1 embedder) on the skewed graph,
    # against a localhost stub that answers after a fixed 50 ms. threads =
    # in_flight = nproc, so the load is a closed loop of nproc workers that
    # each wait for their reply. The checkpoint is trained before the timed
    # section. The discriminator's HTTP path and the evaluation pool do most
    # of the work; L1 keeps ranking off any L2-only fast path. One
    # repetition: the stub's answers depend on what it has already seen.
    "remote-select": {"triples_per_s": 6, "reps": 1},
}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------- inputs


def make_inputs(workload: str, seed: int, seconds: int, work: str) -> dict:
    """Generate the graph from the seed; nothing here is timed."""
    dataset = os.path.join(work, "dataset")
    cut = max(1, round(WORKLOADS[workload]["triples_per_s"] * seconds))  # valid and test, cut to the run length
    rows = graphs.skewed_triples(seed, graphs.TRAIN + 2 * cut)
    graphs.write_dataset(dataset, seed, rows, cut, cut)
    run = {"workload": workload, "dataset": dataset, "seed": seed}
    run["data"] = graphs.read_dataset(dataset)
    run["shape"] = graphs.shape(run["data"])
    return run


def write_config(path: str, dataset: str, workdir: str, workload: str, port: int | None) -> None:
    sections = {
        "pipeline": {"dataset_dir": dataset, "workdir": workdir, "threads": 1},
        "embedder": {"epochs": 1},
        "backend": {"kind": "oracle"},
        "eval": {"audit": "true"},
    }
    if workload == "remote-select":
        sections["pipeline"]["threads"] = NPROC
        sections["embedder"]["norm"] = "L1"
        sections["backend"] = {
            "kind": "remote",
            "endpoint": f"http://127.0.0.1:{port}/v1/chat/completions",
            "model": "stub",
            "timeout": 10,
            "retries": 2,
            "backoff": 0.001,  # a retry costs transport time, not sleep
            "in_flight": NPROC,
        }
    with open(path, "w", encoding="utf-8") as f:
        for name, keys in sections.items():
            f.write(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))


# ---------------------------------------------------------------- one child run


class Stub:
    """The localhost stub in a child process; ``stop`` returns its counters."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("stub did not start")
        self.port = int(line)

    def stop(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


def run_child(run: dict, work: str, name: str, reps: int, trace: bool, deadline: float) -> dict:
    """The workload ``reps`` times in one fresh interpreter, each on an empty workdir.

    Raises ChildFailed when the child exits non-zero or is still running at
    ``deadline`` (a ``time.monotonic`` value); it is then killed.
    """
    base = os.path.join(work, name)
    os.makedirs(base)
    spec = {
        "root": ROOT,
        "workload": run["workload"],
        "reps": [
            {"workdir": os.path.join(base, f"workdir{i}"), "config": os.path.join(base, f"run{i}.ini")}
            for i in range(reps)
        ],
        "threads": NPROC if run["workload"] == "remote-select" else 1,  # as write_config sets them
        "trace": trace,
        "out": os.path.join(base, "record.json"),
        "spans": os.path.join(base, "spans.json"),
    }
    stub = Stub() if run["workload"] == "remote-select" else None
    try:
        for rep in spec["reps"]:
            write_config(rep["config"], run["dataset"], rep["workdir"], run["workload"], stub and stub.port)
        with open(os.path.join(base, "spec.json"), "w", encoding="utf-8") as f:
            json.dump(spec, f)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workload.py"), os.path.join(base, "spec.json")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"the {name} {run['workload']} run did not end within the time limit") from None
    finally:
        counts = stub.stop() if stub else None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise ChildFailed(f"the {name} {run['workload']} run exited with {proc.returncode}")
    with open(spec["out"], encoding="utf-8") as f:
        record = json.load(f)
    record["stub"] = counts
    if trace:
        with open(spec["spans"], encoding="utf-8") as f:
            traced = json.load(f)
        record["spans"], record["absent"] = traced["spans"], traced["absent"]
    return record


def find(workdir: str, prefix: str, name: str) -> str | None:
    for entry in sorted(os.listdir(workdir)):
        path = os.path.join(workdir, entry, name)
        if entry.startswith(prefix) and os.path.isfile(path):
            return path
    return None


def checkpoint(workdir: str) -> str | None:
    names = sorted(e for e in os.listdir(workdir) if e.endswith(".ckpt"))
    return os.path.join(workdir, names[0]) if names else None


# ---------------------------------------------------------------- checks


# the output each stage creates in an empty workdir
OUTPUTS = {
    "train-embeddings": "embeddings-",
    "build-finetune": "finetune-",
    "build-eval": "eval-",
    "evaluate": "report-",
}


def check_run(run: dict, record: dict) -> tuple[list[str], dict]:
    """Every check on one child's outputs; returns (failures, sha256 digests).

    The first repetition gets every check. A later one must have run every
    stage and written artifacts that hash the same as the first's, so the
    checks on the first hold for it too.
    """
    failures: list[str] = []
    losses, reps = record["losses"], record["reps"]
    if not losses or not all(np.isfinite(losses)):
        failures.append(f"training loss is not finite: {losses[-3:]}")
    # every repetition trains from the same seed, so the losses must repeat exactly
    n = len(losses) // len(reps)
    per_rep = [losses[i * n : (i + 1) * n] for i in range(len(reps))]
    if len(losses) != n * len(reps) or any(r != per_rep[0] for r in per_rep):
        failures.append(f"{len(reps)} same-seed repetitions gave epoch losses {per_rep}")
    digests = {}
    for i, rep in enumerate(reps):
        rep_failures, rep_digests = check_rep(run, rep, record["stub"], full=i == 0)
        failures += [f"repetition {i + 1}: {f}" for f in rep_failures]
        if i == 0:
            digests = rep_digests
        elif rep_digests != digests:
            failures.append(f"repetition {i + 1}: artifacts differ from the first repetition's")
    return failures, digests


def check_rep(run: dict, rep: dict, stub: dict | None, full: bool) -> tuple[list[str], dict]:
    """The checks on one repetition; without ``full`` only stages and digests."""
    workload, workdir = run["workload"], rep["workdir"]
    failures: list[str] = []
    # every stage ran: exit 0, and it created its output (no cache hit)
    wanted = list(STAGES[workload][0])
    ran = [s["stage"] for s in rep["stages"]]
    if ran != wanted:
        failures.append(f"stages run {ran}, expected {wanted}")
    for s in rep["stages"]:
        if s["exit"] != 0:
            failures.append(f"{s['stage']} exited with {s['exit']}")
        if not any(c.startswith(OUTPUTS[s["stage"]]) for c in s["created"]):
            failures.append(f"{s['stage']} created no new {OUTPUTS[s['stage']]}* output")
    digests = {}
    ckpt = checkpoint(workdir)
    if ckpt:
        digests["checkpoint"] = checks.sha256(ckpt)
    else:
        failures.append("no checkpoint written")
    report_path = find(workdir, "report-", "report.json")
    audit_path = find(workdir, "report-", "audit.jsonl")
    if not (report_path and audit_path):
        return failures + ["evaluate wrote no report.json or audit.jsonl"], digests
    digests["report.json"] = checks.sha256(report_path)
    eval_path = find(workdir, "eval-", "instructions.jsonl")
    finetune_path = find(workdir, "finetune-", "instructions.jsonl")
    if workload == "fb237-pipeline":
        if not (eval_path and finetune_path):
            return failures + ["the build stages wrote no instructions.jsonl"], digests
        digests["eval/instructions.jsonl"] = checks.sha256(eval_path)
        digests["finetune/instructions.jsonl"] = checks.sha256(finetune_path)
    if not full:
        return failures, digests

    data = run["data"]
    every = np.concatenate([data["train"], data["valid"], data["test"]])
    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    audit = checks.read_jsonl(audit_path)
    candidates = None
    if eval_path:
        candidates = {r["id"]: r["candidate_ids"] for r in checks.read_jsonl(eval_path)}
    m = report["m"]
    failures += checks.check_report(report, audit, 2 * len(data["test"]))
    failures += checks.check_move_to_top(audit)
    failures += checks.check_ranks(
        checks.read_checkpoint(ckpt), every, audit, m, AUDIT_SAMPLE, run["seed"], candidates
    )
    if workload == "remote-select":
        failures += checks.check_abstentions(report, stub)
    rep["report"] = report
    return failures, digests


# ---------------------------------------------------------------- metrics


def walls(record: dict) -> list[float]:
    """Each repetition's timed section: the sum of its timed stages."""
    return [sum(rep["stage_s"][stage] for stage in rep["timed"]) for rep in record["reps"]]


def scaled_segments(rep: dict) -> list[tuple]:
    """(stage, start, end, slowness, seconds at the reference speed) of each segment.

    Slowness is how slowly the machine ran around a segment: the mean of the
    two probes that bracket it, divided by PROBE_S. The share of the
    segment's wall time that each of its threads spent on the CPU is divided
    by it; the rest, spent waiting (on the stub), is kept as measured.
    """
    out = []
    for i, (stage, start, end, cpu, threads) in enumerate(rep["segments"]):
        slowness = (rep["probe_s"][i] + rep["probe_s"][i + 1]) / (2 * PROBE_S)
        wall = end - start
        share = min(1.0, cpu / (wall * threads)) if wall > 0 else 0.0
        out.append((stage, start, end, slowness, wall * (1.0 - share + share / slowness)))
    return out


def ref_stage_times(record: dict) -> list[dict]:
    """Per repetition, each timed stage's seconds at the reference speed."""
    out = []
    for rep in record["reps"]:
        times: dict = {}
        for stage, *_, ref in scaled_segments(rep):
            if stage in rep["timed"]:
                times[stage] = times.get(stage, 0.0) + ref
        out.append(times)
    return out


def ref_wall(record: dict) -> float:
    """The timed section at the reference speed: the sum over its stages of each one's median over the repetitions."""
    per_rep = ref_stage_times(record)
    return sum(median([times[stage] for times in per_rep]) for stage in per_rep[0])


def ref_loads(record: dict) -> list[float]:
    """Every load_kg call's time at the reference speed (a load runs on the CPU throughout)."""
    return [
        (t1 - t0) / slowness
        for t0, t1 in record["loads"]
        for rep in record["reps"]
        for _, start, end, slowness, _ in scaled_segments(rep)
        if start <= t0 <= end
    ]


def end_to_end(record: dict) -> dict:
    return {
        "wall_ref_s": ref_wall(record),
        "setup_s": median(ref_loads(record)),
        "peak_rss_mb": record["peak_rss_mb"],
        "final_loss": record["losses"][-1] if record["losses"] else 0.0,
    }


def summary_json(workdir: str, prefix: str) -> dict:
    path = find(workdir, prefix, "summary.json")
    if not path:
        return {}
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, name)) for d, _, files in os.walk(path) for name in files)


def per_layer(plain: dict, traced: dict) -> dict:
    """Per-layer metrics from the traced child; rates from the untraced one."""
    spans = traced["spans"]
    first, traced_first = plain["reps"][0], traced["reps"][0]

    def ms(name):
        return [1000.0 * (s[2] - s[1]) for s in spans if s[0] == name]

    def secs(name):
        return [s[2] - s[1] for s in spans if s[0] == name]

    ranks = [s for s in spans if s[0] == "ranking.rank_query"]
    report = first.get("report") or {}
    queries = report.get("queries", 0)
    stub = traced["stub"] or {}
    finetune = summary_json(first["workdir"], "finetune-")
    built = finetune.get("queries", 0) + finetune.get("holdout_queries", 0)
    built += summary_json(first["workdir"], "eval-").get("queries", 0)
    build_s = first["stage_s"].get("build-finetune", 0.0) + first["stage_s"].get("build-eval", 0.0)
    epochs = sum(s[6] for s in spans if s[0] == "embeddings.train")
    stage_s = traced_first["stage_s"]  # cli.main spans would include the speed probes
    out = {
        "kg.load_s": median(secs("kg.load_kg")),
        "kg.cooccurrence_s": median(secs("kg.build_cooccurrence")),
        "kg.loads": sum(
            1 for s in spans if s[0] == "kg.load_kg" for r in traced["reps"] for st, t0, t1, *_ in r["segments"] if st in r["timed"] and t0 <= s[1] <= t1
        ),
        "embeddings.epoch_s": sum(secs("embeddings.train")) / epochs if epochs else 0.0,
        "embeddings.score_candidates_ms.p50": pct(ms("embeddings.score_candidates"), 50),
        "embeddings.score_candidates_ms.p99": pct(ms("embeddings.score_candidates"), 99),
        "embeddings.checkpoint_io_s": sum(secs("embeddings.save")) + sum(secs("embeddings.load")),
        "ranking.rank_query_ms.p50": pct(ms("ranking.rank_query"), 50),
        "ranking.rank_query_ms.p99": pct(ms("ranking.rank_query"), 99),
        "ranking.select_ms": 1000.0 * median(self_times(spans, "ranking.rank_query")),
        "ranking.rank_calls_per_query": len(ranks) / len({s[5] for s in ranks}) if ranks else 0.0,
        "instructions.build_sample_ms": 1000.0 * median(self_times(spans, "instructions.build_sample")),
        "instructions.neighbors_ms": median(ms("instructions.rc_sample_neighbors")),
        "instructions.write_ms": median(ms("instructions.write")),
        "instructions.bytes": sum(
            dir_bytes(os.path.join(traced_first["workdir"], e))
            for e in os.listdir(traced_first["workdir"])
            if e.startswith(("finetune-", "eval-"))
        ),
        "instructions.kept_share": finetune["kept"] / finetune["queries"] if finetune.get("queries") else 0.0,
        "discriminator.select_ms.p50": pct(ms("discriminator.select"), 50),
        "discriminator.select_ms.p99": pct(ms("discriminator.select"), 99),
        "discriminator.request_ms.p50": pct(ms("discriminator.remote_request"), 50),
        "discriminator.request_ms.p99": pct(ms("discriminator.remote_request"), 99),
        "discriminator.requests_per_query": stub.get("requests", 0) / queries if stub and queries else 0.0,
        "discriminator.connections_per_request": (
            stub["connections"] / stub["requests"] if stub.get("requests") else 0.0
        ),
        "discriminator.abstain_share": report.get("abstentions", 0) / queries if queries else 0.0,
        "discriminator.failed_share": (queries - stub["ok"]) / queries if stub and queries else 0.0,
        "evaluation.evaluate_s": sum(secs("evaluation.evaluate")),
        "evaluation.self_s": sum(self_times(spans, "evaluation.evaluate")),
        "evaluation.mrr": report.get("combined", {}).get("mrr", 0.0),
        "cli.build_queries_per_s": built / build_s if build_s else 0.0,
        "cli.eval_queries_per_s": queries / first["stage_s"]["evaluate"] if queries else 0.0,
        "cli.artifact_bytes": dir_bytes(traced_first["workdir"]),
        "trace.overhead": ref_wall(traced) / ref_wall(plain) - 1.0,
    }
    for stage in ("train-embeddings", "build-finetune", "build-eval", "evaluate"):
        out[f"cli.stage_s.{stage}"] = stage_s.get(stage, 0.0)
    return out


# ---------------------------------------------------------------- driver


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "kgrerank", "__init__.py")):
        print(f"error: no kgrerank sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    deadline = time.monotonic() + time_limit(seconds)
    work = os.path.join(ROOT, ".perfbench-work", f"{workload}-s{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        t = time.perf_counter()
        run = make_inputs(workload, seed, seconds, work)
        print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}")
        print(f"inputs generated in {time.perf_counter() - t:.2f} s")
        print("graph " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in run["shape"].items()))
        reps = 1 if trace else WORKLOADS[workload]["reps"]
        plain = run_child(run, work, "plain", reps, trace=False, deadline=deadline)
        failures, digests = check_run(run, plain)
        if trace:
            traced = run_child(run, work, "traced", reps, trace=True, deadline=deadline)
            traced_failures, traced_digests = check_run(run, traced)
            failures += [f"traced run: {f}" for f in traced_failures]
            if traced_digests != digests:
                failures.append("the traced run's artifacts differ from the untraced run's")
            if traced["absent"]:
                print("absent (no longer in kgrerank, reported as 0): " + ", ".join(traced["absent"]))
            values = per_layer(plain, traced)
        else:
            values = end_to_end(plain)
    except ChildFailed as e:
        print(f"CHECK FAILED: {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    for i, rep in enumerate(plain["reps"]):
        print(f"repetition {i + 1}: " + " ".join(f"{stage} {secs:.3f} s" for stage, secs in rep["stage_s"].items()))
    print(f"load_kg calls {len(plain['loads'])}: " + " ".join(f"{t1 - t0:.3f}" for t0, t1 in plain["loads"]) + " s")
    print("load_kg calls at the reference speed: " + " ".join(f"{x:.3f}" for x in ref_loads(plain)) + " s")
    print("speed probes " + " ".join(f"{1000 * x:.1f}" for rep in plain["reps"] for x in rep["probe_s"]) + " ms")
    print("timed sections " + " ".join(f"{x:.3f}" for x in walls(plain)) + " s")
    print("timed sections at the reference speed " + " ".join(f"{sum(t.values()):.3f}" for t in ref_stage_times(plain)) + " s")
    if plain["stub"]:
        print("stub " + " ".join(f"{k}={v}" for k, v in plain["stub"].items()))
    for name, digest in digests.items():
        print(f"sha256 {name} {digest}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(f"checks {'passed' if not failures else 'FAILED'}")

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics computed {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")

    if workload == "remote-select":  # operations are remote queries; a failure never got a 200
        attempted = 2 * run["shape"]["test"]
        failed = attempted - plain["stub"]["ok"]
    else:  # operations are CLI stages
        stages = [s for rep in plain["reps"] for s in rep["stages"]]
        attempted = len(stages)
        failed = sum(1 for s in stages if s["exit"] != 0)
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(seed: int, seconds: int) -> int:
    """Every workload, each in its own process, and one table of the results."""
    rows, status = [], 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode or result is None:
            status = 1
            print(f"{workload}: FAILED (exit {proc.returncode})")
            continue
        for name, metric in result["metrics"].items():
            rows.append(f"{workload:16s} {name:22s} {metric['value']:14.6g} {metric['unit']}")
        rows.append(f"{workload:16s} {'correct':22s} {str(result['correct']):>14s}")
    print("\n".join(rows))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
