"""Tests for the error hierarchy and the package's public API surface."""

from __future__ import annotations

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_every_error_derives_from_repro_error(self):
        error_classes = [
            errors.InvalidDomainError,
            errors.InvalidParameterError,
            errors.KeyOutOfDomainError,
            errors.HdfsError,
            errors.FileNotFoundInHdfsError,
            errors.FileAlreadyExistsError,
            errors.MapReduceError,
            errors.JobConfigurationError,
            errors.DistributedCacheError,
            errors.SketchError,
            errors.SamplingError,
            errors.TopKError,
        ]
        for error_class in error_classes:
            assert issubclass(error_class, errors.ReproError)

    def test_hdfs_errors_are_hdfs_errors(self):
        assert issubclass(errors.FileNotFoundInHdfsError, errors.HdfsError)
        assert issubclass(errors.FileAlreadyExistsError, errors.HdfsError)

    def test_mapreduce_errors_are_mapreduce_errors(self):
        assert issubclass(errors.JobConfigurationError, errors.MapReduceError)
        assert issubclass(errors.DistributedCacheError, errors.MapReduceError)

    def test_catching_the_base_class_catches_concrete_errors(self):
        with pytest.raises(errors.ReproError):
            raise errors.SketchError("boom")


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_key_entry_points_are_importable(self):
        from repro import (  # noqa: F401
            HWTopk,
            SendV,
            TwoLevelSampling,
            WaveletHistogram,
            ZipfDatasetGenerator,
            paper_cluster,
        )
        from repro.experiments import figures  # noqa: F401
        from repro.sketches import WaveletGcsSketch  # noqa: F401
        from repro.topk import magnitude_lower_bound  # noqa: F401

    def test_algorithm_names_are_the_papers(self):
        from repro.algorithms import (
            BasicSampling,
            HWTopk,
            ImprovedSampling,
            SendCoef,
            SendSketch,
            SendV,
            TwoLevelSampling,
        )

        assert SendV.name == "Send-V"
        assert SendCoef.name == "Send-Coef"
        assert HWTopk.name == "H-WTopk"
        assert SendSketch.name == "Send-Sketch"
        assert BasicSampling.name == "Basic-S"
        assert ImprovedSampling.name == "Improved-S"
        assert TwoLevelSampling.name == "TwoLevel-S"
