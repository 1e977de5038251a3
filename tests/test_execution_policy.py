"""ExecutionPolicy: one group-engine field, one resolution order, typed errors."""

import json
import urllib.error
import urllib.request
import warnings

import pytest

from repro.config import ComparisonConfig
from repro.errors import ConfigError
from repro.execution import (
    DEFAULT_EXECUTION,
    ExecutionPolicy,
    execution_policy_from_dict,
)
from repro.experiments.parallel import use_jobs
from repro.service import QueryService, QuerySpec, run_query, spec_from_document
from repro.telemetry import MetricsRegistry, ObservatoryServer

#: A small, fast spec for the service-door tests.
SPEC = QuerySpec(
    method="spr", k=3, dataset="synthetic", n_items=12, seed=7, tenant="acme",
)


class TestGroupEngineResolution:
    def test_library_default_is_racing(self):
        assert DEFAULT_EXECUTION.resolve_group_engine() == "racing"

    def test_legacy_config_spelling_decides_when_policy_silent(self):
        config = ComparisonConfig(group_engine="sequential")
        assert DEFAULT_EXECUTION.resolve_group_engine(config) == "sequential"

    def test_explicit_policy_beats_the_config(self):
        policy = ExecutionPolicy(group_engine="racing")
        config = ComparisonConfig(group_engine="sequential")
        assert policy.resolve_group_engine(config) == "racing"

    def test_apply_to_config_rewrites_only_on_disagreement(self):
        config = ComparisonConfig(group_engine="racing")
        assert DEFAULT_EXECUTION.apply_to_config(config) is config
        rewritten = ExecutionPolicy(group_engine="sequential").apply_to_config(
            config
        )
        assert rewritten.group_engine == "sequential"
        assert rewritten.confidence == config.confidence


class TestValidationAndSerialization:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"group_engine": "warp"},
            {"group_engin": "sequential"},
            {"run_engine": "pool"},
            {"n_jobs": 8},
            {"group_engine": "racing", "n_jobs": 0},
        ],
    )
    def test_bad_fields_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            execution_policy_from_dict(kwargs)

    def test_document_round_trip(self):
        policy = ExecutionPolicy(group_engine="sequential")
        assert policy.to_document() == {"group_engine": "sequential"}
        assert execution_policy_from_dict(policy.to_document()) == policy

    def test_empty_document_is_the_default(self):
        assert execution_policy_from_dict({}) == DEFAULT_EXECUTION

    def test_with_validates(self):
        assert DEFAULT_EXECUTION.with_(group_engine="sequential").group_engine == (
            "sequential"
        )
        with pytest.raises(ConfigError):
            DEFAULT_EXECUTION.with_(group_engine="warp")


class TestUnknownKeysThroughEveryDoor:
    def test_spec_document_with_misspelled_key_raises(self):
        document = {
            "method": "spr",
            "execution": {"group_engin": "sequential"},
        }
        with pytest.raises(ConfigError, match="group_engin"):
            spec_from_document(document)

    def test_spec_document_with_removed_field_raises(self):
        document = {"method": "spr", "execution": {"n_jobs": 8}}
        with pytest.raises(ConfigError, match="n_jobs"):
            spec_from_document(document)

    def test_http_submit_with_unknown_key_is_400(self):
        document = SPEC.to_document()
        document["execution"] = {"group_engin": "sequential"}
        with QueryService(registry=MetricsRegistry(), max_workers=1) as service:
            with ObservatoryServer(
                registry=service.registry, service=service
            ) as observatory:
                request = urllib.request.Request(
                    f"{observatory.url}/submit",
                    data=json.dumps(document).encode(),
                    method="POST",
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as caught:
                    urllib.request.urlopen(request)
                assert caught.value.code == 400
                assert "group_engin" in caught.value.read().decode()
            assert service.handles() == []

    def test_parent_format_spec_document_still_recovers(self, tmp_path):
        # Spec documents persisted before the removal carry the two
        # dropped fields as nulls; recover() must still revive them.
        document = {"id": "q0001", **SPEC.to_document()}
        document["execution"] = {
            "group_engine": None, "run_engine": None, "n_jobs": None,
        }
        (tmp_path / "q0001.spec.json").write_text(json.dumps(document))
        expected = run_query(SPEC)
        with QueryService(
            registry=MetricsRegistry(), max_workers=1, state_dir=tmp_path
        ) as service:
            revived = service.recover()
            assert [handle.id for handle in revived] == ["q0001"]
            outcome = revived[0].result(timeout=120)
        assert revived[0].spec == SPEC
        assert outcome.topk == expected.topk
        assert outcome.cost == expected.cost
        assert outcome.rounds == expected.rounds


class TestLegacySpellingsStayWarningFree:
    def test_no_deprecation_warnings_from_legacy_knobs(self):
        # The legacy spellings are deprecated in documentation only:
        # downstream scripts drive whole suites through them, so they
        # must stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = ComparisonConfig(group_engine="sequential")
            DEFAULT_EXECUTION.apply_to_config(config)
            with use_jobs(2):
                DEFAULT_EXECUTION.resolve_group_engine(config)
