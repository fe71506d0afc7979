"""The benchmark's inputs, stages and workloads.

Every run executes three stages through the public service API, on the
serial executor and the batch data plane, in one process with no extra
threads:

* **build** — the seven algorithms built one after another through
  ``SynopsisService.build`` and published to an in-memory store;
* **serve** — a closed loop with one client over a four-synopsis catalog in a
  ``DirectoryBackend`` store: 256-query zipfian *lookups* through
  ``QueryServer.range_sums`` to one synopsis at a time, and after every
  ``LOOKUP_BLOCK`` lookups a 16,384-query mixed *scan* fanned across the whole
  catalog through ``SynopsisService.query``;
* **ingest** — a zipf insert / 20 % delete update stream fed through
  ``SynopsisService.ingest`` into an in-memory store at cadence 4,
  with a 256-query mixed read from the latest version after every batch.

A workload names one *primary* stage, which runs at full scale and whose
set-up is timed (``setup_s``).  The other two stages run as *probes*, builds
and update streams at a smaller scale, so that every end-to-end metric has a
value on every workload.  Compare a metric only with the same metric on the
same workload.  The serve stage is never primary: its catalog and queries are
the same at either scale, so the workloads that carry it as a probe already
measure it.

The primary stage's set-up and the three stages take turns in whole units of
work (a set-up, a build suite, a block of lookups and its scan, a pass over
the update stream), the one furthest below its share of the time used so far
going next, so each metric's samples spread over the whole run.  A shared
2-vCPU VM was seen running 1.5x slower for about five seconds at a time: a
stage measured in one stretch would take such a spell whole, where spread
over the run it shares it with the other stages.  Build times, set-up times
and throughputs are medians over the run's builds, set-ups, scans and passes.
Lookup percentiles are taken within each block of lookups and the run reports
the median over blocks, so one disturbed block moves the metric by one rank,
not by its whole tail.  Fresh and read percentiles pool the whole run: a
stream pass holds too few publishes and reads to give a steady percentile of
its own.

Every input derives from the run's ``--seed``.  Every operation's output is
checked, and a failed check counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.haar import sparse_haar_transform
from repro.core.histogram import WaveletHistogram
from repro.core.topk_coefficients import top_k_coefficients
from repro.experiments.config import ExperimentConfig
from repro.service.facade import AlgorithmSpec, SynopsisService
from repro.service.profile import RuntimeProfile
from repro.serving.store import SynopsisStore
from repro.serving.workload import UpdateStreamGenerator, WorkloadGenerator

ALGORITHMS = ("send-v", "send-coef", "h-wtopk", "send-sketch",
              "basic-s", "improved-s", "twolevel-s")
EXACT_ALGORITHMS = frozenset({"send-v", "send-coef", "h-wtopk"})
# Builds of one algorithm per pass through the suite: the cheap ones repeat,
# so their medians rest on more samples.
SUITE_REPEATS = {"send-v": 4, "send-coef": 2, "h-wtopk": 1, "send-sketch": 1,
                 "basic-s": 4, "improved-s": 6, "twolevel-s": 6}
WARMUP_ALGORITHMS = ("send-v", "h-wtopk")
EXACT_RTOL = 1e-9
ANSWER_TOL = 1e-9

U = 2 ** 15
# Build scales: the Figure 10 workload (Zipf 1.1, u = 2^15, k = 30) at its
# fixed split size of 20 KB, small enough that a 50-second run times each
# algorithm at least a dozen times at full scale and twenty times as a probe.
BUILD_SCALES = {"full": (32_000, 8), "probe": (8_000, 2)}
CATALOG_N = 640_000  # the fig10 anchor and its WorldCup-like counterpart
CATALOG_KS = (30, 256)
LOOKUP_QUERIES = 256
LOOKUP_BLOCK = 512  # lookups between two scans
SCAN_QUERIES = 16_384
MAX_RESIDENT = 3  # one fewer than the catalog holds: loads stay on the path
CHECK_EVERY = 16  # lookups/reads between two scalar-oracle checks
STREAM_K = 30
STREAM_BATCH = 10_000
STREAM_BATCHES = {"full": 128, "probe": 64}
STREAM_CADENCE = 4
READ_QUERIES = 256

# Shares of a run's time.  The primary stage's set-up is repeated through the
# run, like a stage, and setup_s is the median set-up.
SETUP_SHARE = 0.1
PRIMARY_SHARE = 0.4
PROBE_SHARE = 0.25
MAX_ERRORS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str
    why: str


WORKLOADS = {
    "build-anchor": Workload(
        "build-anchor", "build",
        "the paper's own measurement: the seven builds on the fig10 workload "
        "(Zipf 1.1, n = 32k, 8 splits), where the MapReduce runtime, task "
        "state, sketch and transform layers do the work"),
    "ingest-serve": Workload(
        "ingest-serve", "ingest",
        "writes beside reads: the store write path, streaming maintenance and "
        "cold engine materialisation do the work, and every publish drops "
        "the range cache"),
}

UNMEASURED = ("the parallel executor, zero-copy task shipping and concurrent "
              "build scheduling go unmeasured until a machine with at least 4 "
              "CPUs is available; every run uses the serial executor")


# ---------------------------------------------------------------- inputs
@dataclass
class BuildInput:
    config: ExperimentConfig
    dataset: object
    cluster: object
    exact: Dict[int, float]


@dataclass
class StreamInput:
    batches: list
    reads: list
    reference_checksum: str
    updates: int


@dataclass
class Inputs:
    seed: int
    builds: Dict[str, BuildInput]
    catalog: List[Tuple[str, object, object, int, Dict[int, float]]]
    streams: Dict[str, StreamInput]
    lookup_names: np.ndarray


def exact_top_k(keys: np.ndarray, u: int, k: int) -> Dict[int, float]:
    """The exact top-k Haar coefficients of a key multiset (the oracle)."""
    counts = np.bincount(keys, minlength=u + 1)
    sparse = {int(key): float(counts[key]) for key in np.flatnonzero(counts)}
    return top_k_coefficients(sparse_haar_transform(sparse, u), k)


def _build_input(seed: int, n: int, splits: int) -> BuildInput:
    config = ExperimentConfig(seed=seed, n=n, target_splits=splits)
    dataset = config.build_dataset(name=f"fig10-n{n}")
    return BuildInput(config, dataset, config.build_cluster(dataset),
                      exact_top_k(dataset.keys, config.u, config.k))


def _stream_input(seed: int, num_batches: int) -> StreamInput:
    generator = UpdateStreamGenerator(u=U, seed=seed, delete_fraction=0.2)
    batches = generator.batches(STREAM_BATCH, num_batches)
    reads = [WorkloadGenerator(U, seed=_subseed(seed, 3, index)).generate(
        READ_QUERIES, "mixed") for index in range(num_batches)]
    histogram = WaveletHistogram.from_coefficients(
        exact_top_k(generator.net_keys(batches), U, STREAM_K), U, k=STREAM_K)
    reference = SynopsisStore.in_memory().save(
        "reference", histogram, algorithm="batch").checksum_sha256
    return StreamInput(batches, reads, reference,
                       sum(len(batch) for batch in batches))


def _subseed(seed: int, stream: int, index: int) -> int:
    return (seed * 16 + stream) * 10_000_000 + index


def generate_inputs(seed: int) -> Inputs:
    """Every dataset, query and update stream of a run, from its seed."""
    catalog_config = ExperimentConfig(seed=seed, n=CATALOG_N)
    catalog = []
    for label, dataset in (
            ("anchor", catalog_config.build_dataset(name="anchor")),
            ("worldcup", catalog_config.build_worldcup_dataset(name="worldcup"))):
        cluster = catalog_config.build_cluster(dataset)
        for k in CATALOG_KS:
            catalog.append((f"{label}-k{k}", dataset, cluster, k,
                            exact_top_k(dataset.keys, U, k)))
    # Each lookup goes to one synopsis, zipf-skewed by catalog position; the
    # seed picks the sequence, not which synopsis is hot.
    rng = np.random.default_rng((seed, 11))
    weights = 1.0 / np.arange(1, len(catalog) + 1) ** 1.1
    lookup_names = rng.choice(len(catalog), size=1 << 16, p=weights / weights.sum())
    return Inputs(
        seed=seed,
        builds={scale: _build_input(seed, n, splits)
                for scale, (n, splits) in BUILD_SCALES.items()},
        catalog=catalog,
        streams={scale: _stream_input(seed, batches)
                 for scale, batches in STREAM_BATCHES.items()},
        lookup_names=lookup_names,
    )


def lookup_batch(seed: int, index: int):
    return WorkloadGenerator(U, seed=_subseed(seed, 1, index)).generate(
        LOOKUP_QUERIES, "zipfian")


def scan_batch(seed: int, index: int):
    return WorkloadGenerator(U, seed=_subseed(seed, 2, index)).generate(
        SCAN_QUERIES, "mixed")


# ----------------------------------------------------------------- a pass
@dataclass
class PassResult:
    """Everything one pass over a workload measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    digests: Dict[tuple, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    fanout_queries_sent: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


class Context:
    """Per-pass state: seed, inputs, telemetry, scratch directory, spans."""

    def __init__(self, inputs: Inputs, telemetry, workdir: str,
                 recorder=None) -> None:
        self.inputs = inputs
        self.seed = inputs.seed
        self.telemetry = telemetry
        self.workdir = workdir
        self.recorder = recorder
        self.result = PassResult()

    def span(self, name: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    def op(self, label: str, action: Callable[[], None]) -> None:
        """Run one operation; an exception counts it as failed."""
        self.result.attempted += 1
        try:
            action()
        except Exception:  # noqa: BLE001 - a failed operation is a result
            self.result.fail(f"{label}: {traceback.format_exc(limit=3)}")

    def tempdir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)

    def profile(self, cluster=None) -> RuntimeProfile:
        return RuntimeProfile(cluster=cluster, seed=self.seed,
                              telemetry=self.telemetry)


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:24]


def _close_enough(answer: float, expected: float) -> bool:
    return abs(answer - expected) <= ANSWER_TOL * max(1.0, abs(expected))


def _is_exact(coefficients: Dict[int, float], exact: Dict[int, float]) -> bool:
    return sorted(coefficients) == sorted(exact) and all(
        abs(coefficients[i] - exact[i]) <= EXACT_RTOL * abs(exact[i]) for i in exact)


def _median(values: List[float]) -> Optional[float]:
    return float(np.median(values)) if values else None


def _percentile(values: List[float], q: float) -> Optional[float]:
    return float(np.percentile(values, q)) if values else None


def _block_percentile(blocks: List[List[float]], q: float) -> Optional[float]:
    """The median over blocks of each block's q-th percentile."""
    return _median([float(np.percentile(block, q)) for block in blocks if block])


def _median_rate(work_per_sample: float, seconds: List[float]) -> Optional[float]:
    return work_per_sample / _median(seconds) if seconds else None


def _ms(seconds: Optional[float]) -> Optional[float]:
    return seconds * 1e3 if seconds is not None else None


def _spec(name: str, config: ExperimentConfig, k: Optional[int] = None) -> AlgorithmSpec:
    parameters = {}
    if name == "send-sketch":
        parameters["bytes_per_level"] = config.sketch_bytes_per_level
    elif name.endswith("-s"):
        parameters["epsilon"] = config.epsilon
    return AlgorithmSpec(name, k=k if k is not None else config.k, parameters=parameters)


# ----------------------------------------------------------------- stages
class Stage:
    """One stage of a pass: ``setup``, then whole ``unit``s until time is up.

    One unit of work gives at least one sample of every metric the stage
    owns, so a stage that runs a single unit can report all of them.
    """

    name = "stage"

    def __init__(self, ctx: Context, scale: str) -> None:
        self.ctx = ctx
        self.scale = scale
        self.root: Optional[str] = None

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def _fresh_root(self) -> str:
        self.root = self.ctx.tempdir(f"{self.name}-")
        return self.root

    def cleanup(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)


class BuildStage(Stage):
    """The seven algorithms built and published one after another."""

    name = "build"

    def __init__(self, ctx: Context, scale: str) -> None:
        super().__init__(ctx, scale)
        self.input = ctx.inputs.builds[scale]
        self.service: Optional[SynopsisService] = None
        self.checksums: Dict[str, str] = {}
        self.times: Dict[str, List[float]] = {name: [] for name in ALGORITHMS}

    def setup(self) -> None:
        """A fresh service, warmed by two small builds."""
        probe = self.ctx.inputs.builds["probe"]
        self.service = SynopsisService(profile=self.ctx.profile(self.input.cluster))
        for name in WARMUP_ALGORITHMS:
            self.service.build(_spec(name, probe.config), probe.dataset,
                               self.ctx.profile(probe.cluster), name=f"warmup-{name}")

    def unit(self) -> None:
        """One suite: every algorithm, the cheap ones several times."""
        for name in ALGORITHMS:
            for _ in range(SUITE_REPEATS[name]):
                self.ctx.op(f"build {name}", lambda: self._build(name))

    def _build(self, name: str) -> None:
        spec = _spec(name, self.input.config)
        began = time.perf_counter()
        report = self.service.build(spec, self.input.dataset, name=name)
        self.times[name].append(time.perf_counter() - began)
        checksum = report.checksum_sha256
        result = self.ctx.result
        result.digests[("build", self.scale, name, len(self.times[name]))] = checksum
        if name in EXACT_ALGORITHMS:
            if not _is_exact(report.result.histogram.coefficients, self.input.exact):
                result.fail(f"build {name}: not the exact top-k within "
                            f"{EXACT_RTOL} relative")
        elif self.checksums.setdefault(name, checksum) != checksum:
            result.fail(f"build {name}: approximate build not bit-identical "
                        f"across repetitions")

    def finish(self) -> None:
        for name in ALGORITHMS:
            self.ctx.result.metrics[f"build_s.{name}"] = _median(self.times[name])
            self.ctx.result.samples[f"build_s.{name}"] = len(self.times[name])


class ServeStage(Stage):
    """Blocks of zipfian lookups to one synopsis at a time, each closed by a
    scan of the whole catalog."""

    name = "serve"

    def __init__(self, ctx: Context, scale: str) -> None:
        super().__init__(ctx, scale)
        self.service: Optional[SynopsisService] = None
        self.names = [entry[0] for entry in ctx.inputs.catalog]
        self.oracles: Dict[str, WaveletHistogram] = {}
        self.blocks: List[List[float]] = []  # lookup seconds, per block
        self.scans: List[float] = []

    def setup(self) -> None:
        """Publish the catalog into a fresh directory store and touch it."""
        self.service = SynopsisService(SynopsisStore(self._fresh_root()),
                                       profile=self.ctx.profile(),
                                       max_synopses=MAX_RESIDENT)
        config = self.ctx.inputs.builds["full"].config
        for name, dataset, cluster, k, exact in self.ctx.inputs.catalog:
            report = self.service.build(_spec("send-v", config, k=k), dataset,
                                        self.ctx.profile(cluster), name=name)
            self.ctx.result.attempted += 1
            if not _is_exact(report.result.histogram.coefficients, exact):
                self.ctx.result.fail(f"catalog {name}: not the exact top-k")
        for name in self.names:
            self.service.server.engine(name)

    def unit(self) -> None:
        """``LOOKUP_BLOCK`` lookups, then one scan."""
        if not self.oracles:
            self.oracles = {name: self.service.store.load(name).histogram
                            for name in self.names}
        block: List[float] = []
        first = len(self.blocks) * LOOKUP_BLOCK
        for index in range(first, first + LOOKUP_BLOCK):
            self.ctx.op(f"lookup {index}", lambda: self._lookup(index, block))
        self.blocks.append(block)
        scan = len(self.scans)
        self.ctx.op(f"scan {scan}", lambda: self._scan(scan))

    def _lookup(self, index: int, block: List[float]) -> None:
        inputs = self.ctx.inputs
        name = self.names[inputs.lookup_names[index % inputs.lookup_names.size]]
        batch = lookup_batch(self.ctx.seed, index)
        began = time.perf_counter()
        answers = self.service.server.range_sums(name, batch.los, batch.his)
        block.append(time.perf_counter() - began)
        self.ctx.result.digests[("lookup", self.scale, index)] = _digest(answers)
        if index % CHECK_EVERY == 0:
            row = index % LOOKUP_QUERIES
            self._check(name, batch.los[row], batch.his[row], answers[row],
                        f"lookup {index}")

    def _scan(self, index: int) -> None:
        batch = scan_batch(self.ctx.seed, index)
        began = time.perf_counter()
        answers = self.service.query(self.names, batch.los, batch.his)
        elapsed = time.perf_counter() - began
        self.scans.append(elapsed)
        self.ctx.result.fanout_queries_sent += batch.los.size * len(self.names)
        self.ctx.result.digests[("scan", self.scale, index)] = _digest(
            np.concatenate([answers[name] for name in self.names]))
        for offset, name in enumerate(self.names):
            row = (index * 7 + offset * 4099) % batch.los.size
            self._check(name, batch.los[row], batch.his[row], answers[name][row],
                        f"scan {index}")

    def _check(self, name: str, lo, hi, answer: float, label: str) -> None:
        expected = self.oracles[name].range_sum_scalar(int(lo), int(hi))
        if not _close_enough(float(answer), expected):
            self.ctx.result.fail(
                f"{label} on {name}: range [{lo}, {hi}] answered {answer!r}, "
                f"scalar loop gives {expected!r}")

    def finish(self) -> None:
        result = self.ctx.result
        lookups = sum(len(block) for block in self.blocks)
        result.metrics["lookup_p50_ms"] = _ms(_block_percentile(self.blocks, 50))
        result.metrics["lookup_p99_ms"] = _ms(_block_percentile(self.blocks, 99))
        result.metrics["scan_qps"] = _median_rate(SCAN_QUERIES * len(self.names),
                                                  self.scans)
        result.samples.update({"lookup_p50_ms": lookups, "lookup_p99_ms": lookups,
                               "scan_qps": len(self.scans)})


class IngestStage(Stage):
    """Passes over an update stream into an in-memory store, a read after
    every batch.

    The store is in memory because the file-system share of a directory
    store's write path drifted by up to a quarter between two sets of runs
    twenty minutes apart on a shared 2-vCPU VM, more than any bound the
    benchmark may set; the serve stage keeps the directory store's read path.
    """

    name = "ingest"

    def __init__(self, ctx: Context, scale: str) -> None:
        super().__init__(ctx, scale)
        self.stream = ctx.inputs.streams[scale]
        self.passes: List[float] = []  # busy seconds of each pass
        self.fresh: List[float] = []
        self.reads: List[float] = []

    def setup(self) -> None:
        """A fresh store, warmed by one publish window and a read."""
        service = SynopsisService(SynopsisStore.in_memory(), profile=self.ctx.profile())
        for batch in self.stream.batches[:STREAM_CADENCE]:
            service.ingest("warmup", batch.inserts, batch.deletes, u=U,
                           k=STREAM_K, cadence=STREAM_CADENCE)
        read = self.stream.reads[0]
        service.server.range_sums("warmup", read.los, read.his)

    def unit(self) -> None:
        """One pass over the whole stream into a fresh store."""
        number = len(self.passes)
        service = SynopsisService(SynopsisStore.in_memory(), profile=self.ctx.profile())
        result = self.ctx.result
        busy = 0.0
        window_start = 0.0
        published = False
        for index, (batch, read) in enumerate(zip(self.stream.batches, self.stream.reads)):
            result.attempted += 1
            try:
                began = time.perf_counter()
                if index % STREAM_CADENCE == 0:
                    window_start = began
                metadata = service.ingest("stream", batch.inserts, batch.deletes, u=U,
                                          k=STREAM_K, cadence=STREAM_CADENCE)
                ingested = time.perf_counter()
                busy += ingested - began
                published = published or metadata is not None
                if not published:
                    continue  # nothing to read before the first publish
                answers = service.server.range_sums("stream", read.los, read.his)
                answered = time.perf_counter()
                busy += answered - ingested
                self.reads.append(answered - ingested)
                self._check_read(service, number, index, metadata, read, answers)
                if metadata is not None:
                    self.fresh.append(answered - window_start)
            except Exception:  # noqa: BLE001 - a failed operation is a result
                result.fail(f"ingest pass {number} batch {index}: "
                            f"{traceback.format_exc(limit=3)}")
        self.passes.append(busy)
        self.ctx.op(f"ingest pass {number} final checksum",
                    lambda: self._check_final(service, number))

    def _check_read(self, service, number, index, metadata, read, answers) -> None:
        result = self.ctx.result
        result.digests[("read", self.scale, number, index)] = _digest(answers)
        handle = service.server.synopsis("stream")
        if metadata is not None and handle.metadata.version != metadata.version:
            result.fail(f"ingest pass {number} batch {index}: read served "
                        f"v{handle.metadata.version}, latest is v{metadata.version}")
        elif index % CHECK_EVERY == 0:
            row = index % READ_QUERIES
            expected = handle.histogram.range_sum_scalar(int(read.los[row]),
                                                         int(read.his[row]))
            if not _close_enough(float(answers[row]), expected):
                result.fail(f"ingest pass {number} read {index}: answered "
                            f"{answers[row]!r}, scalar loop gives {expected!r}")

    def _check_final(self, service, number: int) -> None:
        # The cadence divides the stream, so nothing is left pending.
        leftover = service.maintain("stream")
        metadata = service.store.load("stream").metadata
        self.ctx.result.digests[("stream", self.scale, number)] = metadata.checksum_sha256
        if leftover is not None or metadata.checksum_sha256 != self.stream.reference_checksum:
            self.ctx.result.fail(f"ingest pass {number}: streamed checksum differs "
                                 f"from a batch build of the surviving multiset")
        elif metadata.build.get("applied_batches") != len(self.stream.batches):
            self.ctx.result.fail(f"ingest pass {number}: not every batch was applied")

    def finish(self) -> None:
        result = self.ctx.result
        result.metrics["ingest_updates_per_s"] = _median_rate(self.stream.updates,
                                                              self.passes)
        result.metrics["fresh_p50_ms"] = _ms(_percentile(self.fresh, 50))
        result.metrics["fresh_p90_ms"] = _ms(_percentile(self.fresh, 90))
        result.metrics["read_p95_ms"] = _ms(_percentile(self.reads, 95))
        result.samples.update({"ingest_updates_per_s": len(self.passes),
                               "fresh_p50_ms": len(self.fresh),
                               "fresh_p90_ms": len(self.fresh),
                               "read_p95_ms": len(self.reads)})


STAGES = {"build": BuildStage, "serve": ServeStage, "ingest": IngestStage}


# ------------------------------------------------------------------ memory
def _reset_peak_rss() -> float:
    """Reset the peak to the current resident size; returns that size in MB."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then also covers input generation
    return _status_mb("VmRSS:")


def _status_mb(field_name: str) -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field_name):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if field_name != "VmHWM:":
        return 0.0
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------- a pass
def run_workload(ctx: Context, workload: Workload, seconds: float) -> PassResult:
    """One pass: set-ups of the primary stage and units of every stage, in turns."""
    result = ctx.result
    gc.collect()
    baseline_mb = _reset_peak_rss()
    stages = {name: cls(ctx, "full" if name == workload.primary else "probe")
              for name, cls in STAGES.items()}
    primary = stages[workload.primary]
    setups: List[float] = []

    def setup() -> None:
        primary.cleanup()  # the previous set-up's files, untimed
        began = time.perf_counter()
        ctx.op("setup", primary.setup)
        setups.append(time.perf_counter() - began)

    turns = {"setup": setup, **{name: stage.unit for name, stage in stages.items()}}
    shares = {"setup": SETUP_SHARE, **{
        name: PRIMARY_SHARE if stage is primary else PROBE_SHARE
        for name, stage in stages.items()}}
    used = dict.fromkeys(turns, 0.0)
    order = list(turns)  # one turn each first, so every metric has a sample
    try:
        with ctx.span("bench.setup"):
            for name, stage in stages.items():
                if stage is not primary:
                    ctx.op(f"{name} probe setup", stage.setup)
        end = time.perf_counter() + seconds
        while order or time.perf_counter() < end:
            name = order.pop(0) if order else min(
                used, key=lambda candidate: used[candidate] / shares[candidate])
            began = time.perf_counter()
            with ctx.span(f"bench.{name}"):
                turns[name]()
            used[name] += time.perf_counter() - began
    finally:
        for stage in stages.values():
            stage.cleanup()
    result.metrics["setup_s"] = _median(setups)
    result.samples["setup_s"] = len(setups)
    result.metrics["peak_rss_mb"] = _status_mb("VmHWM:") - baseline_mb
    result.samples["peak_rss_mb"] = 1
    for stage in stages.values():
        stage.finish()
    return result
