"""Common driver interface and result type for all histogram algorithms."""

from __future__ import annotations

import math
import warnings
from abc import ABC
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.histogram import WaveletHistogram
from repro.cost.model import CostModel
from repro.errors import InvalidParameterError, PlanError
from repro.mapreduce.cluster import ClusterSpec
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.plan import JobPlan, execute_plan
from repro.mapreduce.runtime import JobResult, JobRunner
from repro.mapreduce.state import StateStore
from repro.service.profile import RuntimeProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.store import SynopsisStore

__all__ = ["AlgorithmResult", "HistogramAlgorithm"]

# Sentinel distinguishing "caller never passed this" from an explicit None in
# the deprecated kwarg shim of :meth:`HistogramAlgorithm.run`.
_UNSET: Any = object()

_RUN_KWARGS_DEPRECATION = (
    "HistogramAlgorithm.run's loose keyword arguments (cluster=, "
    "cost_parameters=, seed=, executor=, data_plane=, store=, store_name=) "
    "are deprecated: pass a repro.service.RuntimeProfile via profile=..., "
    "and persist builds through repro.service.SynopsisService (results are "
    "bit-identical either way)"
)

# Job Configuration keys shared by all algorithms.
CONF_DOMAIN = "wavelet.domain.u"
CONF_K = "wavelet.top.k"
CONF_EPSILON = "wavelet.epsilon"
CONF_TOTAL_RECORDS = "wavelet.total.records"
CONF_SAMPLE_PROBABILITY = "wavelet.sample.probability"
CONF_SKETCH_SEED = "wavelet.sketch.seed"
CONF_SKETCH_BYTES_PER_LEVEL = "wavelet.sketch.bytes.per.level"
CONF_T1_OVER_M = "wavelet.hwtopk.t1.over.m"
CACHE_CANDIDATES = "wavelet.hwtopk.candidates"


@dataclass
class AlgorithmResult:
    """Outcome of running one algorithm end to end.

    Attributes:
        algorithm: algorithm name (e.g. ``"TwoLevel-S"``).
        histogram: the k-term wavelet histogram produced.
        rounds: the per-MapReduce-round job results, in execution order.
        communication_bytes: total network traffic (shuffle + side channels).
        simulated_time_s: end-to-end simulated running time.
        counters: all counters merged across rounds.
        details: algorithm-specific extras (thresholds, sample sizes, ...).
    """

    algorithm: str
    histogram: WaveletHistogram
    rounds: List[JobResult] = field(default_factory=list)
    communication_bytes: float = 0.0
    simulated_time_s: float = 0.0
    counters: Counters = field(default_factory=Counters)
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_rounds(self) -> int:
        """Number of MapReduce rounds the algorithm used."""
        return len(self.rounds)

    def sse(self, reference) -> float:
        """SSE of the histogram against a reference frequency vector."""
        return self.histogram.sse(reference)

    def publish(self, store: "SynopsisStore", *, name: Optional[str] = None,
                seed: Optional[int] = None,
                extra_build: Optional[Dict[str, Any]] = None):
        """Persist the histogram to ``store`` with this run's provenance.

        The single publish path shared by :meth:`HistogramAlgorithm.run`'s
        deprecated ``store=`` shim and the service façade, so the stored
        build metadata cannot drift between entry points.  Records the entry
        under ``details["store_entry"]`` and returns the new version's
        metadata.

        Args:
            store: the catalog to publish into.
            name: catalog name (the algorithm name when omitted).
            seed: the build's RNG seed, recorded as provenance.
            extra_build: additional build-metadata keys (e.g. the dataset
                name) merged over the standard counters.
        """
        build = {
            "communication_bytes": self.communication_bytes,
            "simulated_time_s": self.simulated_time_s,
            "rounds": self.num_rounds,
            "counters": self.counters.as_dict(),
        }
        build.update(extra_build or {})
        metadata = store.save(
            name if name is not None else self.algorithm,
            self.histogram,
            algorithm=self.algorithm,
            seed=seed,
            build=build,
        )
        self.details["store_entry"] = {
            "name": metadata.name,
            "version": metadata.version,
            "checksum_sha256": metadata.checksum_sha256,
        }
        return metadata


class HistogramAlgorithm(ABC):
    """Base class for all wavelet-histogram construction algorithms.

    Subclasses set :attr:`name` and implement :meth:`create_plan`, which
    declares the algorithm's MapReduce rounds as a
    :class:`~repro.mapreduce.plan.JobPlan` — a DAG of stages plus a
    driver-finish step.  The shared :meth:`run` driver wires up the runner,
    executes the plan sequentially, and assembles the result; the cluster
    scheduler executes the *same* plan concurrently with other jobs.
    """

    name: str = "abstract"

    def __init__(self, u: int, k: int) -> None:
        if k < 1:
            raise InvalidParameterError(f"k must be positive, got {k}")
        self.u = u
        self.k = k

    # ------------------------------------------------------------------ hooks
    def create_plan(self, input_path: str) -> JobPlan:
        """Declare the algorithm's rounds as a :class:`JobPlan` over ``input_path``.

        All seven shipped algorithms implement this; the default raises, so
        a subclass that forgets it fails with a clear message.
        """
        raise PlanError(
            f"{type(self).__name__} does not declare a JobPlan; override "
            f"create_plan() to run it"
        )

    # ----------------------------------------------------------------- driver
    def run(
        self,
        hdfs: HDFS,
        input_path: str,
        profile: Optional[RuntimeProfile] = None,
        cost_parameters: Any = _UNSET,
        seed: Any = _UNSET,
        executor: Any = _UNSET,
        data_plane: Any = _UNSET,
        store: Any = _UNSET,
        store_name: Any = _UNSET,
        *,
        cluster: Any = _UNSET,
    ) -> AlgorithmResult:
        """Execute the algorithm against a file already stored in the simulated HDFS.

        Args:
            hdfs: the simulated file system holding the input.
            input_path: path of the input file.
            profile: a :class:`~repro.service.profile.RuntimeProfile` bundling
                cluster, cost parameters, seed, executor spec and data plane.
                The default profile runs on the paper's 16-node cluster with
                the serial executor and the batch data plane, seed 7.

        Deprecated args (the pre-profile kwarg surface — every one of these,
        positionally or by keyword, emits a single :class:`DeprecationWarning`
        and is folded into an equivalent profile, so both spellings are
        bit-identical):

            cluster: cluster description.
            cost_parameters: per-operation cost constants for the time model.
            seed: seed for all randomised components.
            executor: task executor for the MapReduce phases.
            data_plane: ``"batch"`` or ``"records"``.
            store: persist the built histogram to this
                :class:`~repro.serving.store.SynopsisStore` (new code builds
                through :class:`~repro.service.facade.SynopsisService`
                instead).  The stored entry is reported under
                ``details["store_entry"]``.
            store_name: catalog name to persist under; defaults to the
                algorithm name.
        """
        profile, store_value, store_name_value = self._resolve_run_arguments(
            profile, cluster, cost_parameters, seed, executor, data_plane,
            store, store_name,
        )
        cluster_spec = profile.resolved_cluster()
        runner = JobRunner(hdfs, cluster=cluster_spec, state_store=StateStore(),
                           seed=profile.seed, executor=profile.build_executor(),
                           data_plane=profile.data_plane,
                           zero_copy=profile.zero_copy,
                           telemetry=profile.telemetry)
        # The sequential reference path the scheduler's concurrent execution
        # is bit-identical to.
        outcome = execute_plan(self.create_plan(input_path), runner)
        result = self.assemble_result(outcome, profile)
        if store_value is not None:
            result.publish(store_value, name=store_name_value, seed=profile.seed)
        return result

    def assemble_result(self, outcome: "ExecutionOutcome",
                        profile: RuntimeProfile) -> AlgorithmResult:
        """Fold an :class:`ExecutionOutcome` into the full :class:`AlgorithmResult`.

        The one assembly path (cost model, merged counters, histogram) shared
        by :meth:`run` and the cluster scheduler's batch entry points, so a
        scheduled build reports exactly what a sequential build reports.
        """
        cluster_spec = profile.resolved_cluster()
        cost_model = CostModel(cluster_spec, parameters=profile.cost_parameters)
        counters = Counters()
        for round_result in outcome.rounds:
            counters = counters.merge(round_result.counters)

        histogram = WaveletHistogram.from_coefficients(outcome.coefficients, self.u, k=self.k)
        return AlgorithmResult(
            algorithm=self.name,
            histogram=histogram,
            rounds=outcome.rounds,
            communication_bytes=cost_model.total_communication_bytes(outcome.rounds),
            simulated_time_s=cost_model.total_seconds(outcome.rounds),
            counters=counters,
            details=outcome.details,
        )

    @staticmethod
    def _resolve_run_arguments(
        profile: Any,
        cluster: Any,
        cost_parameters: Any,
        seed: Any,
        executor: Any,
        data_plane: Any,
        store: Any,
        store_name: Any,
    ) -> "tuple[RuntimeProfile, Optional[SynopsisStore], Optional[str]]":
        """Fold the deprecated kwarg surface into one RuntimeProfile.

        The third positional of the old signature was ``cluster``; a non-profile
        value in the ``profile`` slot is therefore treated as a positional
        legacy cluster.  Any legacy argument — runtime or persistence — emits
        exactly one DeprecationWarning per call.
        """
        legacy: Dict[str, Any] = {}
        if profile is not None and not isinstance(profile, RuntimeProfile):
            if not isinstance(profile, ClusterSpec):
                raise InvalidParameterError(
                    f"run() expected a RuntimeProfile (or a legacy ClusterSpec), "
                    f"got {type(profile).__name__}"
                )
            legacy["cluster"] = profile
            profile = None
        if cluster is not _UNSET and cluster is not None:
            if "cluster" in legacy:
                raise InvalidParameterError(
                    "cluster passed both positionally and by keyword"
                )
            legacy["cluster"] = cluster
        for key, value in (("cost_parameters", cost_parameters), ("seed", seed),
                           ("executor", executor), ("data_plane", data_plane)):
            if value is not _UNSET and value is not None:
                legacy[key] = value
        store_value = store if store is not _UNSET else None
        store_name_value = store_name if store_name is not _UNSET else None

        if legacy or store is not _UNSET or store_name is not _UNSET:
            warnings.warn(_RUN_KWARGS_DEPRECATION, DeprecationWarning, stacklevel=3)
        if legacy:
            if profile is not None:
                raise InvalidParameterError(
                    "pass either profile= or the deprecated loose kwargs, not both"
                )
            profile = RuntimeProfile(**legacy)
        elif profile is None:
            profile = RuntimeProfile()
        return profile, store_value, store_name_value

    # ------------------------------------------------------------- utilities
    @staticmethod
    def log2_domain(u: int) -> int:
        """``log2(u)``, validated to be integral."""
        log_u = int(math.log2(u))
        if 1 << log_u != u:
            raise InvalidParameterError(f"domain size must be a power of two, got {u}")
        return log_u


@dataclass
class ExecutionOutcome:
    """What a concrete algorithm hands back to the shared driver."""

    coefficients: Dict[int, float]
    rounds: List[JobResult]
    details: Dict[str, Any] = field(default_factory=dict)
