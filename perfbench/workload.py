"""One timed run of a workload, in a fresh interpreter.

``run.py`` starts this as ``python3 perfbench/workload.py <spec.json>``. It
runs the workload on an already generated dataset once per entry of the
spec's ``reps``, each time in that entry's empty workdir, times each
repetition, and writes the measurements to the spec's ``out`` path. With
``trace`` set it also records spans around every traced kgrerank function
and writes them next to the measurements.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np

# Each workload's CLI stages, and how many of them come before the timed
# section: remote-select prepares its checkpoint untimed.
STAGES = {
    "fb237-pipeline": (("train-embeddings", "build-finetune", "build-eval", "evaluate"), 0),
    "remote-select": (("train-embeddings", "evaluate"), 1),
}


class SpeedProbe:
    """A fixed piece of work, in the mix the pipeline runs, timed between segments.

    It parses tab-separated lines into an id table, as a graph load does, and
    scores every entity of an FB15K-237-sized table, as ranking does. Its time
    tracks how fast the shared machine runs at that moment.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.standard_normal((14541, 100))
        self.lines = [f"/m/{i:05x}\t/r/{i % 237}\t/m/{i * 7 % 14541:05x}" for i in range(40000)]

    def __call__(self) -> float:
        start = time.perf_counter()
        ids: dict[str, int] = {}
        for line in self.lines:
            head, _, tail = line.split("\t")
            ids.setdefault(head, len(ids))
            ids.setdefault(tail, len(ids))
        for j in range(20):
            u = self.table + self.table[j]
            (u * u).sum(axis=1)
        return time.perf_counter() - start


class Meter:
    """Cuts a repetition into segments, with a speed probe between each two.

    ``probe_s[i]`` and ``probe_s[i + 1]`` bracket ``segments[i]``, which is
    ``[stage, start, end, cpu_s, threads]``: ``threads`` is how many threads
    of the program ran in it. A stage ends a segment, and so does every graph
    load inside a stage, so that no segment runs for long unprobed. The
    probes' own time is in no segment.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.stage = None
        self.probe_s = [probe()]
        self.segments: list[list] = []
        self.start()

    def start(self) -> None:
        self._start, self._cpu = time.perf_counter(), time.process_time()

    def cut(self, threads: int) -> None:
        end, cpu = time.perf_counter(), time.process_time()
        self.segments.append([self.stage, self._start, end, cpu - self._cpu, threads])
        self.probe_s.append(self.probe())
        self.start()


def _probe_after_loads(meters: list) -> None:
    """End a segment after every graph load made from inside a stage."""
    import kgrerank.kg

    original = kgrerank.kg.load_kg

    def load_kg(*args, **kwargs):
        kg = original(*args, **kwargs)
        if meters and meters[-1].stage is not None:
            meters[-1].cut(threads=1)  # a load runs on the calling thread
        return kg

    for name, module in list(sys.modules.items()):
        if name.startswith("kgrerank") and getattr(module, "load_kg", None) is original:
            module.load_kg = load_kg


def _stage_outputs(workdir: str) -> set[str]:
    return set(os.listdir(workdir)) if os.path.isdir(workdir) else set()


def _run_stage(main, stage: str, rep: dict, record: dict, meter: Meter, threads: int) -> None:
    """One CLI stage on ``threads`` threads; it must return 0 and create a new output in the workdir."""
    before = _stage_outputs(rep["workdir"])
    meter.stage = stage
    meter.start()
    code = main([stage, "--config", rep["config"]])
    meter.cut(threads)
    meter.stage = None
    record["stage_s"][stage] = sum(seg[2] - seg[1] for seg in meter.segments if seg[0] == stage)
    created = sorted(_stage_outputs(rep["workdir"]) - before)
    record["stages"].append({"stage": stage, "exit": code, "created": created})


def _capture_losses(losses: list) -> None:
    """Make every ``train`` call report its per-epoch losses into ``losses``."""
    import kgrerank.cli
    import kgrerank.embeddings

    original = kgrerank.embeddings.train

    def train(kg, config, *, epoch_losses=None):
        return original(kg, config, epoch_losses=losses)

    kgrerank.embeddings.train = train
    kgrerank.cli.train = train


def run(spec: dict) -> dict:
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import kgrerank
    import kgrerank.cli

    from tracer import COARSE, Tracer

    # the program must come from the checkout, not from an installed copy
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(kgrerank.__file__).startswith(src + os.sep):
        raise RuntimeError(f"kgrerank imported from {kgrerank.__file__}, not {src}")

    for rep in spec["reps"]:
        if _stage_outputs(rep["workdir"]):
            raise RuntimeError(f"workdir {rep['workdir']} is not empty")
    losses: list[float] = []
    _capture_losses(losses)
    tracer = Tracer()
    keep = {"cli.main": lambda a, kw: a[0][0] if a and a[0] else None, "embeddings.train": lambda a, kw: a[1].epochs}
    tracer.install(None if spec["trace"] else COARSE, keep)
    meters: list[Meter] = []
    _probe_after_loads(meters)  # after the tracer, so that a load's span leaves out the probe
    stages, untimed = STAGES[spec["workload"]]
    main = kgrerank.cli.main

    probe = SpeedProbe()
    reps = []
    for rep in spec["reps"]:
        # one repetition of the workload in its own empty workdir
        meters.append(Meter(probe))
        record = {"workdir": rep["workdir"], "stage_s": {}, "stages": [], "timed": list(stages[untimed:])}
        for stage in stages:
            _run_stage(main, stage, rep, record, meters[-1], spec["threads"])
        record["probe_s"], record["segments"] = meters[-1].probe_s, meters[-1].segments
        reps.append(record)
    tracer.uninstall()

    out = {
        "reps": reps,
        "losses": losses,
        "absent": tracer.absent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loads": [[s[1], s[2]] for s in tracer.spans if s[0] == "kg.load_kg"],
    }
    if spec["trace"]:
        tracer.dump(spec["spans"])
    return out


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    record = run(spec)
    with open(spec["out"], "w", encoding="utf-8") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
