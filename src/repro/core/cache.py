"""Census entries in the artifact store: keys and the one lookup rule.

The census is deterministic given ``(graph, config, root)``, so every
rooted census memoises in :class:`repro.runtime.store.ArtifactStore`
under the ``"census"`` stage, keyed by the graph fingerprint and the
flat config tuple built here.  :func:`stored_census` is the single read
path (the extractor, the Table-3 timer and, through the extractor, the
serving daemon all go through it), so the capped-lookup rule below can
never differ between callers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from repro.core.census import CensusConfig, _cap_exceeded, census_total
from repro.core.graph import HeteroGraph
from repro.core.sampled import SampledCensusConfig, sampled_config_key
from repro.runtime.store import STAGE_CENSUS, ArtifactStore, FrozenConfig


def census_config_key(
    config: CensusConfig, sampled: SampledCensusConfig | None = None
) -> tuple:
    """Flatten a census config to the plain tuple used in store keys.

    Flattening (rather than keying on the dataclass) keeps keys
    comparable across library versions that add config fields with
    defaults — and keeps a pickled store independent of the
    ``CensusConfig`` class itself.

    A sampled census keys on the estimator knobs too (budget, seed,
    rel_err, ...) via a tuple *suffix*, so sampled estimates can never
    collide with exact counts — nor with estimates under a different
    budget or seed — while every exact key stays byte-identical to what
    older stores hold.
    """
    key = (
        config.max_edges,
        config.max_degree,
        config.mask_start_label,
        config.key,
        config.group_by_label,
        config.include_trivial,
        config.max_subgraphs,
    )
    if sampled is not None:
        key += sampled_config_key(sampled)
    return key


def census_store_config(
    config: CensusConfig,
    root: int,
    sampled: SampledCensusConfig | None = None,
) -> FrozenConfig:
    """The artifact-store stage config of one rooted census, frozen as
    made (scalars only), so no get, put or discard walks it again."""
    return FrozenConfig((*census_config_key(config, sampled), int(root)))


def stored_census(
    store: ArtifactStore,
    graph: HeteroGraph,
    config: CensusConfig,
    root: int,
    sampled: SampledCensusConfig | None = None,
) -> Counter | None:
    """The stored census of ``root``, or ``None`` on a miss.

    A capped exact request (``config.max_subgraphs`` set) that misses
    also consults the *uncapped* entry for the same config: a stored
    total at or under the cap is exactly what the capped census would
    have produced, so it is served; a total over the cap means the live
    census would have raised, so this raises the same
    :class:`~repro.exceptions.CensusError` instead of serving a result
    the caller asked to be protected from.
    """
    fingerprint = graph.fingerprint()
    census = store.get(
        fingerprint, STAGE_CENSUS, census_store_config(config, root, sampled)
    )
    cap = config.max_subgraphs
    if census is None and cap is not None and sampled is None:
        uncapped = replace(config, max_subgraphs=None)
        census = store.get(
            fingerprint, STAGE_CENSUS, census_store_config(uncapped, root)
        )
        if census is not None and census_total(census) > cap:
            raise _cap_exceeded(root, cap)
    return census
