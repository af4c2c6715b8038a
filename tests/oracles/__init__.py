"""Reference implementations the library is checked and timed against.

Each layer of ``repro`` ships one implementation.  The straightforward
versions those implementations were optimised from live here, unchanged
in behaviour, as parity oracles:

* :func:`reference_census` — the recursive, set-based rooted census;
* :func:`reference_uniform_walks`, :func:`reference_node2vec_walks` —
  per-node, per-step walks with the library's epoch seeding;
* :class:`ReferenceSkipGramTrainer` — per-pair SGNS negatives, float64;
* :class:`ReferenceLINE` — per-edge LINE negatives, float64;
* :class:`ReferenceDeepWalk`, :class:`ReferenceNode2Vec` — the oracle
  walks fed to the oracle trainer;
* :class:`ReferenceDecisionTreeRegressor`,
  :class:`ReferenceDecisionTreeClassifier` — the per-node tree builder;
* :class:`ReferenceRandomForestRegressor`,
  :class:`ReferenceRandomForestClassifier` — one per-node tree fit and
  predict at a time;
* :class:`RebuildingRankExperiment` — the rank grid without family reuse;
* :class:`ReferenceLogisticRegression`, :class:`ReferenceOneVsRest`,
  :func:`reference_tune_regularization` — one scipy L-BFGS-B solve per
  binary problem and per grid value;
* :class:`ReferenceLinearSVR` — the linear SVR solved with L-BFGS-B.

The scipy oracles need scipy, a test-only dependency (the ``dev`` extra).

The tier-1 parity suites import them (no ``test_*`` module lives here, so
pytest collects nothing from this package), and the ``benchmarks/``
speed gates time the library against them.

``ENGINES`` names the two sides of every parity test: ``"fast"`` is the
library, ``"reference"`` the oracle.
"""

from tests.oracles.census import reference_census
from tests.oracles.embeddings import ReferenceDeepWalk, ReferenceNode2Vec
from tests.oracles.forest import (
    ReferenceRandomForestClassifier,
    ReferenceRandomForestRegressor,
)
from tests.oracles.line import ReferenceLINE
from tests.oracles.logistic import (
    ReferenceLogisticRegression,
    ReferenceOneVsRest,
    reference_tune_regularization,
)
from tests.oracles.rank import RebuildingRankExperiment
from tests.oracles.sgns import ReferenceSkipGramTrainer, pairs_per_walk
from tests.oracles.svm import ReferenceLinearSVR
from tests.oracles.tree import (
    ReferenceDecisionTreeClassifier,
    ReferenceDecisionTreeRegressor,
)
from tests.oracles.walks import reference_node2vec_walks, reference_uniform_walks

ENGINES = ("fast", "reference")

__all__ = [
    "ENGINES",
    "RebuildingRankExperiment",
    "ReferenceDecisionTreeClassifier",
    "ReferenceDecisionTreeRegressor",
    "ReferenceDeepWalk",
    "ReferenceLINE",
    "ReferenceLinearSVR",
    "ReferenceLogisticRegression",
    "ReferenceOneVsRest",
    "ReferenceNode2Vec",
    "ReferenceRandomForestClassifier",
    "ReferenceRandomForestRegressor",
    "ReferenceSkipGramTrainer",
    "pairs_per_walk",
    "reference_census",
    "reference_tune_regularization",
    "reference_node2vec_walks",
    "reference_uniform_walks",
]
