"""Bit-for-bit parity of the vectorized apply path against the pre-change path.

The array-native bookkeeping rewrite (batched record synthesis, bulk cache
appends, ``charge_many``, batched counters) must be invisible: record
streams, cache state, ledger totals, telemetry counters, RNG consumption
and the final top-k have to match the historical per-row path exactly.

The historical behaviour is pinned as a golden fixture
(``tests/golden/apply_parity.json``) generated **from the pre-change
tree** by ``scripts/gen_apply_parity_golden.py``; this suite re-runs the
same seeded queries and compares digests field for field.  Regenerating
the golden is only legitimate when a PR deliberately changes semantics —
the justification belongs in the PR description.

Two tiers:

* tier-1: the first :data:`TIER1_SEEDS` seeds of every variant (fast,
  every PR);
* statistical: all :data:`SEEDS` seeds per variant (the ≥200-seed
  acceptance bar).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    ComparisonConfig,
    FaultPolicy,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.core.spr import spr_topk
from repro.crowd.oracle import BinaryOracle, LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.telemetry import MetricsRegistry, use_registry

pytestmark = pytest.mark.faultfree  # digests pin fault-free (or self-seeded-fault) traces

GOLDEN_PATH = Path(__file__).parent / "golden" / "apply_parity.json"

#: Full statistical-tier seed counts per variant (student carries the
#: ≥200-seed acceptance bar; the other paths are cheaper spot checks).
SEEDS = {"student": 200, "stein": 60, "hoeffding": 60, "faulty": 60, "deadline": 40}
#: Seeds per variant in the tier-1 (every-PR) slice.
TIER1_SEEDS = 6

N_ITEMS, K = 12, 3


def _scores(seed: int) -> np.ndarray:
    return np.random.default_rng(seed + 9000).normal(0.0, 2.5, N_ITEMS)


def _config(variant: str, seed: int) -> ComparisonConfig:
    base = dict(confidence=0.95, budget=150, min_workload=5, batch_size=10)
    if variant == "stein":
        base["estimator"] = "stein"
    elif variant == "hoeffding":
        base["estimator"] = "hoeffding"
    elif variant == "faulty":
        base["resilience"] = ResiliencePolicy(
            fault=FaultPolicy(
                timeout_rate=0.05,
                loss_rate=0.025,
                duplicate_rate=0.02,
                outage_rate=0.01,
                seed=seed,
            )
        )
    elif variant == "deadline":
        base["resilience"] = ResiliencePolicy(
            retry=RetryPolicy(deadline_rounds=4)
        )
    elif variant != "student":
        raise ValueError(f"unknown variant {variant!r}")
    return ComparisonConfig(**base)


def _oracle(variant: str, seed: int):
    base = LatentScoreOracle(_scores(seed), GaussianNoise(1.0))
    return BinaryOracle(base) if variant == "hoeffding" else base


def _float_repr(value: float) -> str:
    """Exact, bit-stable rendering (NaNs collapse to one token)."""
    return "nan" if math.isnan(value) else float(value).hex()


def _record_line(record) -> str:
    return "|".join(
        (
            str(record.left),
            str(record.right),
            record.outcome.name,
            str(record.workload),
            str(record.cost),
            str(record.rounds),
            _float_repr(record.mean),
            _float_repr(record.std),
        )
    )


def _cache_digest(cache) -> str:
    sha = hashlib.sha256()
    cache.settle()  # fold deferred round batches before poking at _bags
    for key in sorted(cache._bags):
        bag = cache._bags[key]
        sha.update(
            f"{key}|{bag.size}|{_float_repr(bag.s1)}|{_float_repr(bag.s2)}|".encode()
        )
        sha.update(bag.view().tobytes())
    return sha.hexdigest()


def _counters(registry: MetricsRegistry) -> dict:
    snap = registry.snapshot()
    counters = {
        f"{c['name']}|{json.dumps(c['labels'], sort_keys=True)}": c["value"]
        for c in snap["counters"]
    }
    for h in snap["histograms"]:
        if h["name"].endswith("_seconds"):  # wall-clock: not deterministic
            continue
        counters[f"hist:{h['name']}|{json.dumps(h['labels'], sort_keys=True)}"] = [
            h["count"],
            _float_repr(h["sum"]),
        ]
    return counters


def run_case(variant: str, seed: int) -> dict:
    """One seeded SPR query; returns the full parity digest for the case."""
    with use_registry(MetricsRegistry()) as registry:
        session = CrowdSession(_oracle(variant, seed), _config(variant, seed), seed=seed)
        lines: list[str] = []
        session.add_compare_listener(lambda _s, r: lines.append(_record_line(r)))
        result = spr_topk(session, list(range(N_ITEMS)), K)
        return {
            "topk": [int(i) for i in result.topk],
            "cost": int(session.total_cost),
            "rounds": int(session.total_rounds),
            "comparisons": int(session.cost.comparisons),
            "rng": hashlib.sha256(
                repr(session.rng.bit_generator.state).encode()
            ).hexdigest(),
            "records": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
            "n_records": len(lines),
            "cache": _cache_digest(session.cache),
            "counters": _counters(registry),
        }


def _golden() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - repo invariant
        pytest.fail(
            f"{GOLDEN_PATH} missing; regenerate with "
            "scripts/gen_apply_parity_golden.py on a known-good tree"
        )
    return json.loads(GOLDEN_PATH.read_text())


def _check(variant: str, seed: int, golden: dict) -> list[str]:
    expected = golden["cases"][f"{variant}:{seed}"]
    actual = run_case(variant, seed)
    return [
        f"{variant}:{seed}:{field} expected {expected[field]!r} got {actual[field]!r}"
        for field in expected
        if actual.get(field) != expected[field]
    ]


class TestApplyParityTier1:
    """Every-PR slice: the first seeds of each variant, field-for-field."""

    @pytest.mark.parametrize("variant", sorted(SEEDS))
    def test_first_seeds_match_golden(self, variant):
        golden = _golden()
        diffs: list[str] = []
        for seed in range(TIER1_SEEDS):
            diffs.extend(_check(variant, seed, golden))
        assert not diffs, "\n".join(diffs[:10])


@pytest.mark.statistical
class TestApplyParityFull:
    """The ≥200-seed acceptance bar (statistical tier, one CI leg)."""

    @pytest.mark.parametrize("variant", sorted(SEEDS))
    def test_all_seeds_match_golden(self, variant):
        golden = _golden()
        diffs: list[str] = []
        for seed in range(SEEDS[variant]):
            diffs.extend(_check(variant, seed, golden))
        assert not diffs, f"{len(diffs)} field diffs; first: " + "\n".join(diffs[:5])
