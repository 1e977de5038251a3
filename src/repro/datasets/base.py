"""The dataset abstraction: items + ground truth + a crowd to ask."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ComparisonConfig
from ..core.items import ItemSet
from ..crowd.oracle import JudgmentOracle
from ..crowd.session import CrowdSession
from ..errors import ConfigError

__all__ = ["Dataset"]


@dataclass(frozen=True)
class Dataset:
    """A named item collection with a judgment oracle over it.

    Attributes
    ----------
    name:
        Short dataset identifier (``"imdb"``, ``"book"``, …).
    items:
        The full item collection with ground-truth scores defining Ω.
    oracle:
        The simulated crowd answering pairwise (and possibly graded)
        microtasks about the items.
    description:
        One-line provenance note.
    """

    name: str
    items: ItemSet
    oracle: JudgmentOracle
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a dataset needs a non-empty name")

    def __len__(self) -> int:
        return len(self.items)

    def session(
        self,
        config: ComparisonConfig | None = None,
        seed: int | None | np.random.Generator = None,
        max_total_cost: int | None = None,
    ) -> CrowdSession:
        """Open a fresh crowd session over this dataset's oracle."""
        return CrowdSession(
            self.oracle, config=config, seed=seed, max_total_cost=max_total_cost
        )

    def sample_items(
        self, n: int | None, rng: np.random.Generator | None = None
    ) -> ItemSet:
        """A random ``n``-item working set (``None`` = all items).

        The cardinality sweeps of Figure 9 run queries over random subsets;
        the subset inherits the global ground truth restricted to it.
        Asking for more items than the dataset holds raises
        :class:`~repro.errors.ConfigError`; ``n`` equal to its size is
        all items.
        """
        size = len(self.items)
        if n is not None and n > size:
            raise ConfigError(
                f"n_items={n} exceeds the {size} items of dataset {self.name!r}"
            )
        if n is None or n == size:
            return self.items
        return self.items.subset(n, rng)
