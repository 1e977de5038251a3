"""Synthetic dataset generators: shapes, simulation-rule consistency."""

import numpy as np
import pytest

from repro.datasets import (
    Dataset,
    load_dataset,
    make_book,
    make_imdb,
    make_jester,
    make_peopleage,
    make_photo,
)
from repro.datasets.registry import DATASET_NAMES, clear_dataset_cache
from repro.errors import ConfigError, DatasetError


# Small generator settings so the whole file runs in seconds.
SMALL = {
    "imdb": dict(n_items=40, min_votes=5_000, max_votes=20_000),
    "book": dict(n_items=30),
    "jester": dict(n_items=20, n_users=500),
    "photo": dict(n_items=15),
    "peopleage": dict(n_items=20),
}


@pytest.fixture(params=list(SMALL))
def small_dataset(request) -> Dataset:
    return load_dataset(request.param, seed=1, **SMALL[request.param])


class TestCommonContract:
    def test_items_and_oracle_agree(self, small_dataset, rng):
        ids = small_dataset.items.ids
        draws = small_dataset.oracle.draw(int(ids[0]), int(ids[1]), 10, rng)
        assert draws.shape == (10,)
        assert np.all(np.isfinite(draws))

    def test_oracle_mean_tracks_ground_truth_order(self, small_dataset, rng):
        # Best vs worst item: the preference mean must favour the best.
        order = small_dataset.items.true_order
        best, worst = int(order[0]), int(order[-1])
        draws = small_dataset.oracle.draw(best, worst, 2000, rng)
        assert draws.mean() > 0

    def test_deterministic_generation(self, small_dataset):
        name = small_dataset.name
        clear_dataset_cache()
        again = load_dataset(name, seed=1, **SMALL[name])
        assert np.array_equal(again.items.scores, small_dataset.items.scores)

    def test_different_seeds_differ(self, small_dataset):
        name = small_dataset.name
        other = load_dataset(name, seed=2, **SMALL[name])
        assert not np.array_equal(other.items.scores, small_dataset.items.scores)

    def test_session_factory(self, small_dataset):
        from repro.crowd.faults import FaultInjector

        session = small_dataset.session(seed=0)
        oracle = session.oracle
        if isinstance(oracle, FaultInjector):  # CI fault leg auto-wraps
            oracle = oracle.base
        assert oracle is small_dataset.oracle

    def test_sample_items(self, small_dataset, rng):
        sub = small_dataset.sample_items(5, rng)
        assert len(sub) == 5
        assert small_dataset.sample_items(None) is small_dataset.items
        size = len(small_dataset)
        assert small_dataset.sample_items(size) is small_dataset.items
        with pytest.raises(ConfigError, match=str(size + 1)):
            small_dataset.sample_items(size + 1)


class TestHonestItemCount:
    """Asking for more items than a dataset holds is a typed error, not a
    silent clamp to the whole dataset (jester holds 100 items)."""

    def test_run_query_raises(self):
        from repro.service import QuerySpec, run_query

        with pytest.raises(ConfigError, match="5000"):
            run_query(QuerySpec(method="spr", dataset="jester", n_items=5000))

    def test_cli_query_exits_with_an_error(self, capsys):
        from repro.cli import main

        assert main(["query", "--dataset", "jester", "--n-items", "5000"]) == 2
        err = capsys.readouterr().err
        assert "n_items=5000" in err
        assert "jester" in err


class TestRegistry:
    def test_all_names_present(self):
        assert set(DATASET_NAMES) == {
            "imdb", "book", "jester", "photo", "peopleage", "synthetic",
        }

    def test_cache_returns_same_object(self):
        a = load_dataset("jester", seed=3, **SMALL["jester"])
        b = load_dataset("jester", seed=3, **SMALL["jester"])
        assert a is b

    def test_unknown_name(self):
        with pytest.raises(DatasetError):
            load_dataset("netflix")


class TestIMDb:
    def test_paper_scale_defaults(self):
        dataset = load_dataset("imdb")
        assert len(dataset) == 1225

    def test_weighted_rank_in_rating_range(self):
        dataset = load_dataset("imdb", seed=1, **SMALL["imdb"])
        assert np.all(dataset.items.scores > 1.0)
        assert np.all(dataset.items.scores < 10.0)

    def test_judgments_are_integer_star_differences(self, rng):
        dataset = load_dataset("imdb", seed=1, **SMALL["imdb"])
        draws = dataset.oracle.draw(0, 1, 100, rng)
        assert np.all(draws == np.round(draws))
        assert np.all(np.abs(draws) <= 9)

    def test_supports_rating(self):
        assert load_dataset("imdb", seed=1, **SMALL["imdb"]).oracle.supports_rating

    def test_validation(self):
        with pytest.raises(ValueError):
            make_imdb(n_items=1)
        with pytest.raises(ValueError):
            make_imdb(min_votes=100, max_votes=10)


class TestBook:
    def test_paper_scale_defaults(self):
        assert len(load_dataset("book")) == 537

    def test_noisier_than_imdb(self):
        # Book's tiny vote pools leave larger histogram-vs-model gaps; we
        # just sanity-check scores stay on the 0..10 scale.
        dataset = load_dataset("book", seed=1, **SMALL["book"])
        assert np.all(dataset.items.scores >= 0.0)
        assert np.all(dataset.items.scores <= 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_book(n_items=0)


class TestJester:
    def test_paper_scale_defaults(self):
        assert len(load_dataset("jester")) == 100

    def test_ratings_bounded(self, rng):
        dataset = load_dataset("jester", seed=1, **SMALL["jester"])
        ratings = dataset.oracle.rate(0, 500, rng)
        assert np.all(ratings >= -10.0)
        assert np.all(ratings <= 10.0)

    def test_ground_truth_is_mean_rating(self):
        dataset = load_dataset("jester", seed=1, **SMALL["jester"])
        for item in (0, 5, 13):
            assert dataset.items.score_of(item) == pytest.approx(
                dataset.oracle.mean_rating(item)
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            make_jester(n_items=1)
        with pytest.raises(ValueError):
            make_jester(n_users=0)


class TestPhoto:
    def test_paper_scale_defaults(self):
        assert len(load_dataset("photo")) == 200

    def test_judgments_live_on_likert_support(self, rng):
        dataset = load_dataset("photo", seed=1, **SMALL["photo"])
        draws = dataset.oracle.draw(0, 1, 300, rng)
        levels = np.array([-7, -5, -3, -1, 1, 3, 5, 7]) / 7.0
        assert all(any(np.isclose(v, levels).tolist()) for v in draws)

    def test_record_pools_at_least_paper_minimum(self):
        dataset = load_dataset("photo", seed=1, **SMALL["photo"])
        assert dataset.oracle.record_count(0, 1) >= 10

    def test_no_rating_support(self):
        dataset = load_dataset("photo", seed=1, **SMALL["photo"])
        assert not dataset.oracle.supports_rating

    def test_validation(self):
        with pytest.raises(ValueError):
            make_photo(n_items=1)
        with pytest.raises(ValueError):
            make_photo(records_per_pair=0)


class TestPeopleAge:
    def test_paper_scale_defaults(self):
        assert len(load_dataset("peopleage")) == 100

    def test_top_items_are_youngest(self):
        dataset = load_dataset("peopleage", seed=1, **SMALL["peopleage"])
        best = int(dataset.items.true_top_k(1)[0])
        assert "aged 1" in dataset.items.label_of(best)

    def test_older_pairs_are_harder(self, rng):
        dataset = make_peopleage(seed=1, n_items=100)
        ages = {int(i): -dataset.items.score_of(int(i)) for i in dataset.items.ids}
        by_age = sorted(ages, key=ages.get)
        young_pair = (by_age[0], by_age[10])  # ages 1 vs 11
        old_pair = (by_age[60], by_age[70])  # ages 61 vs 71
        young_draws = dataset.oracle.draw(*young_pair, 2000, rng)
        old_draws = dataset.oracle.draw(*old_pair, 2000, rng)
        # same true age gap, but the old pair's signal-to-noise is worse
        assert abs(young_draws.mean()) / young_draws.std() > abs(
            old_draws.mean()
        ) / old_draws.std()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_peopleage(n_items=1)


class TestSynthetic:
    def test_distributions(self):
        from repro.datasets.synthetic import make_synthetic

        normal = make_synthetic(seed=1, n_items=50)
        uniform = make_synthetic(seed=1, n_items=50, distribution="uniform")
        assert len(normal) == len(uniform) == 50
        assert not np.array_equal(normal.items.scores, uniform.items.scores)

    def test_careless_rate_changes_oracle(self, rng):
        from repro.datasets.synthetic import make_synthetic

        honest = make_synthetic(seed=1, n_items=10, careless_rate=0.0)
        sloppy = make_synthetic(seed=1, n_items=10, careless_rate=0.5)
        order = honest.items.true_order
        a, b = int(order[0]), int(order[-1])
        honest_std = honest.oracle.draw(a, b, 3000, rng).std()
        sloppy_std = sloppy.oracle.draw(a, b, 3000, rng).std()
        assert sloppy_std > honest_std

    def test_validation(self):
        from repro.datasets.synthetic import make_synthetic

        with pytest.raises(ValueError):
            make_synthetic(n_items=1)
        with pytest.raises(ValueError):
            make_synthetic(score_spread=0.0)
        with pytest.raises(ValueError):
            make_synthetic(careless_rate=2.0)
        with pytest.raises(ValueError):
            make_synthetic(distribution="cauchy")

    def test_rating_supported_for_hybrid(self):
        from repro.datasets.synthetic import make_synthetic

        assert make_synthetic(seed=1, n_items=10).oracle.supports_rating
