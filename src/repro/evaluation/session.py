"""The interactive retrieval session.

:class:`InteractiveSession` wires together every subsystem exactly as
Figure 4 of the paper does: the retrieval engine answers k-NN queries, the
simulated user provides relevance judgments, the feedback engine iterates the
loop, and FeedbackBypass predicts parameters before the loop and stores the
converged parameters afterwards.

For every processed query the session evaluates the three strategies the
paper compares:

* **Default** — first-round results with the user's query point and the
  unweighted Euclidean distance,
* **FeedbackBypass** — first-round results with the parameters predicted by
  the (so far trained) Simplex Tree; the prediction is taken *before* the
  query's own feedback is inserted, so it always refers to a new query,
* **AlreadySeen** — first-round results with the parameters the feedback
  loop converges to for this very query, i.e. the upper bound the prediction
  approaches for repeated queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bootstrap import bypass_for_histograms
from repro.core.bypass import FeedbackBypass
from repro.core.oqp import OptimalQueryParameters
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.query import ResultSet
from repro.evaluation.metrics import precision, recall
from repro.evaluation.simulated_user import SimulatedUser
from repro.features.datasets import ImageDataset
from repro.features.normalization import drop_last_bin
from repro.feedback.engine import FeedbackEngine, FeedbackLoopResult
from repro.feedback.reweighting import ReweightingRule
from repro.feedback.scheduler import LoopRequest, LoopScheduler
from repro.utils.validation import ValidationError, check_dimension, check_positive


@dataclass(frozen=True)
class SessionConfig:
    """Knobs of an interactive session.

    Attributes
    ----------
    k:
        Result-set size used both for feedback and for evaluation (the paper
        uses 50 by default and never exceeds 80).
    epsilon:
        Insert threshold ε of the Simplex Tree.
    reweighting_rule:
        Re-weighting rule of the feedback loop.
    move_query_point:
        Whether the loop applies query-point movement.
    max_iterations:
        Iteration budget of the feedback loop.
    measure_bypass_loop:
        When true, the session additionally runs the feedback loop *starting
        from the predicted parameters* for every query, which is needed for
        the Saved-Cycles efficiency metric but doubles the work.
    """

    k: int = 50
    epsilon: float = 0.05
    reweighting_rule: ReweightingRule = ReweightingRule.OPTIMAL
    move_query_point: bool = True
    max_iterations: int = 10
    measure_bypass_loop: bool = False

    def __post_init__(self) -> None:
        check_dimension(self.k, "k")
        check_positive(self.epsilon, name="epsilon", strict=False)
        check_dimension(self.max_iterations, "max_iterations")


@dataclass(frozen=True)
class StrategyMetrics:
    """Precision and recall of one strategy for one query."""

    precision: float
    recall: float


@dataclass(frozen=True)
class QueryOutcome:
    """Everything measured while processing one query.

    Attributes
    ----------
    query_index:
        Index of the query image in the dataset / collection.
    category:
        The query's category.
    default, bypass, already_seen:
        First-round metrics of the three strategies.
    loop_iterations_default:
        Feedback iterations needed when the loop starts from the default
        parameters.
    loop_iterations_bypass:
        Feedback iterations needed when the loop starts from the predicted
        parameters (``None`` unless ``measure_bypass_loop`` is enabled).
    inserted:
        Whether the query's converged parameters were stored in the tree
        ("inserted" / "updated" / "skipped" / "none" when no feedback signal
        was available).
    prediction_was_default:
        True when the prediction used for the Bypass strategy was still the
        default parameters (e.g. for the very first queries).
    """

    query_index: int
    category: str
    default: StrategyMetrics
    bypass: StrategyMetrics
    already_seen: StrategyMetrics
    loop_iterations_default: int
    loop_iterations_bypass: int | None
    inserted: str
    prediction_was_default: bool

    @property
    def default_precision(self) -> float:
        """Shortcut to the Default strategy's precision."""
        return self.default.precision

    @property
    def bypass_precision(self) -> float:
        """Shortcut to the FeedbackBypass strategy's precision."""
        return self.bypass.precision

    @property
    def already_seen_precision(self) -> float:
        """Shortcut to the AlreadySeen strategy's precision."""
        return self.already_seen.precision


class InteractiveSession:
    """Interactive retrieval enriched with FeedbackBypass (Figure 4).

    Most users construct it through :meth:`for_dataset`, which builds the
    embedded feature collection, the retrieval and feedback engines, the
    simulated user and a fresh FeedbackBypass instance in one call.
    """

    def __init__(
        self,
        collection: FeatureCollection,
        user: SimulatedUser,
        bypass: FeedbackBypass,
        config: SessionConfig,
        *,
        query_vectors: np.ndarray | None = None,
    ) -> None:
        if collection.labels is None:
            raise ValidationError("the session requires a labelled collection")
        if bypass.query_dimension != collection.dimension:
            raise ValidationError("FeedbackBypass dimensionality does not match the collection")
        self._collection = collection
        self._user = user
        self._bypass = bypass
        self._config = config
        self._engine = RetrievalEngine(collection)
        self._feedback = FeedbackEngine(
            self._engine,
            reweighting_rule=self._config.reweighting_rule,
            move_query_point=self._config.move_query_point,
            max_iterations=self._config.max_iterations,
        )
        self._scheduler = LoopScheduler(self._feedback)
        # Query vectors default to the collection vectors themselves (the
        # paper samples query images from the database).
        self._query_vectors = collection.vectors if query_vectors is None else query_vectors
        self._outcomes: list[QueryOutcome] = []

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def for_dataset(
        cls, dataset: ImageDataset, config: SessionConfig | None = None
    ) -> "InteractiveSession":
        """Build a session for an :class:`~repro.features.datasets.ImageDataset`.

        Histograms are embedded into the standard simplex by dropping the
        last bin, the Simplex Tree is rooted on that simplex, and the
        simulated user judges by the dataset's category labels.
        """
        if config is None:
            config = SessionConfig()
        embedded = drop_last_bin(dataset.features)
        labels = [record.category for record in dataset.records]
        collection = FeatureCollection(embedded, labels=labels)
        user = SimulatedUser(collection)
        bypass = bypass_for_histograms(dataset.n_bins, epsilon=config.epsilon)
        return cls(collection, user, bypass, config)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def collection(self) -> FeatureCollection:
        """The embedded, labelled feature collection."""
        return self._collection

    @property
    def retrieval_engine(self) -> RetrievalEngine:
        """The k-NN engine."""
        return self._engine

    @property
    def feedback_engine(self) -> FeedbackEngine:
        """The feedback-loop controller."""
        return self._feedback

    @property
    def bypass(self) -> FeedbackBypass:
        """The FeedbackBypass module being trained."""
        return self._bypass

    @property
    def user(self) -> SimulatedUser:
        """The simulated user."""
        return self._user

    @property
    def config(self) -> SessionConfig:
        """The session configuration."""
        return self._config

    @property
    def outcomes(self) -> list[QueryOutcome]:
        """Outcomes of every processed query, in processing order."""
        return list(self._outcomes)

    # ------------------------------------------------------------------ #
    # Measurement helpers
    # ------------------------------------------------------------------ #
    def _metrics_for(self, results: ResultSet, category: str) -> StrategyMetrics:
        categories = self._user.categories_of(results)
        relevant_total = self._user.relevant_count(category)
        return StrategyMetrics(
            precision=precision(results, categories, category),
            recall=recall(results, categories, category, relevant_total),
        )

    def evaluate_first_round(
        self, query_index: int, parameters: OptimalQueryParameters, *, k: int | None = None
    ) -> StrategyMetrics:
        """Metrics of a single (first-round) search under the given parameters."""
        k = self._config.k if k is None else check_dimension(k, "k")
        query_point = self._query_vectors[query_index]
        category = self._collection.label(query_index)
        results = self._engine.search_with_parameters(
            query_point, k, delta=parameters.delta, weights=parameters.weights
        )
        return self._metrics_for(results, category)

    def run_feedback_loop(
        self, query_index: int, parameters: OptimalQueryParameters, *, k: int | None = None
    ) -> FeedbackLoopResult:
        """Run the feedback loop for a query, starting from ``parameters``."""
        k = self._config.k if k is None else check_dimension(k, "k")
        query_point = self._query_vectors[query_index]
        judge = self._user.judge_for_query(query_index)
        return self._feedback.run_loop(
            query_point,
            k,
            judge,
            initial_delta=parameters.delta,
            initial_weights=parameters.weights,
        )

    def run_feedback_loops(
        self,
        query_indices,
        parameters: "list[OptimalQueryParameters]",
        *,
        k: int | None = None,
    ) -> "list[FeedbackLoopResult]":
        """Run many queries' feedback loops batched on the frontier scheduler.

        Byte-identical to ``[self.run_feedback_loop(i, p) for i, p in
        zip(query_indices, parameters)]`` (the scheduler contract), but
        iteration *i* of all still-active loops runs as one batched search
        instead of one scan per query.
        """
        k = self._config.k if k is None else check_dimension(k, "k")
        query_indices = [int(query_index) for query_index in query_indices]
        if len(query_indices) != len(parameters):
            raise ValidationError("run_feedback_loops needs one parameter object per query index")
        requests = [
            LoopRequest(
                query_point=self._query_vectors[int(query_index)],
                k=k,
                judge=self._user.judge_for_query(int(query_index)),
                initial_delta=query_parameters.delta,
                initial_weights=query_parameters.weights,
            )
            for query_index, query_parameters in zip(query_indices, parameters)
        ]
        return self._scheduler.run(requests)

    # ------------------------------------------------------------------ #
    # Query processing
    # ------------------------------------------------------------------ #
    def _assemble_outcome(
        self,
        query_index: int,
        predicted: OptimalQueryParameters,
        default_metrics: StrategyMetrics,
        bypass_metrics: StrategyMetrics,
        loop_default: FeedbackLoopResult,
        loop_iterations_bypass: "int | None",
        inserted: str,
    ) -> QueryOutcome:
        """Record one query's outcome, given its loops and insert action."""
        category = self._collection.label(query_index)
        # Strategy 3: AlreadySeen — first round under the optimal parameters.
        already_seen_metrics = self._metrics_for(loop_default.final_results, category)
        outcome_record = QueryOutcome(
            query_index=int(query_index),
            category=category,
            default=default_metrics,
            bypass=bypass_metrics,
            already_seen=already_seen_metrics,
            loop_iterations_default=loop_default.iterations,
            loop_iterations_bypass=loop_iterations_bypass,
            inserted=inserted,
            prediction_was_default=predicted.is_default(tolerance=1e-9),
        )
        self._outcomes.append(outcome_record)
        return outcome_record

    def _complete_query(
        self,
        query_index: int,
        predicted: OptimalQueryParameters,
        default_metrics: StrategyMetrics,
        bypass_metrics: StrategyMetrics,
    ) -> QueryOutcome:
        """Run the feedback loop and train the bypass, given the first rounds.

        Sequential tail of :meth:`run_query`; :meth:`run_batch` performs the
        same steps for a whole cohort with the loops batched on the frontier
        scheduler, and both produce identical outcomes.
        """
        query_point = self._query_vectors[query_index]
        default_parameters = OptimalQueryParameters.default(self._collection.dimension)

        # Run the feedback loop from the default start to obtain this query's
        # optimal parameters (the paper's automated loop).
        loop_default = self.run_feedback_loop(query_index, default_parameters)

        # Optionally measure how many iterations remain when starting from
        # the prediction (Saved-Cycles).
        loop_iterations_bypass: int | None = None
        if self._config.measure_bypass_loop:
            loop_bypass = self.run_feedback_loop(query_index, predicted)
            loop_iterations_bypass = loop_bypass.iterations

        # Store the optimal parameters, unless the loop produced no feedback
        # signal at all (no relevant results ever appeared).
        optimal = loop_default.parameters_to_store(query_point)
        inserted = "none" if optimal is None else self._bypass.insert(query_point, optimal).action

        return self._assemble_outcome(
            query_index,
            predicted,
            default_metrics,
            bypass_metrics,
            loop_default,
            loop_iterations_bypass,
            inserted,
        )

    def run_query(self, query_index: int) -> QueryOutcome:
        """Process one query end-to-end and train the bypass with its outcome."""
        query_point = self._query_vectors[query_index]
        default_parameters = OptimalQueryParameters.default(self._collection.dimension)

        # Strategy 1: Default first round.
        default_metrics = self.evaluate_first_round(query_index, default_parameters)

        # Strategy 2: FeedbackBypass prediction (before inserting this query).
        predicted = self._bypass.mopt(query_point)
        bypass_metrics = self.evaluate_first_round(query_index, predicted)

        return self._complete_query(query_index, predicted, default_metrics, bypass_metrics)

    def run_batch(self, query_indices) -> list[QueryOutcome]:
        """Process a batch of queries end-to-end with batched phases.

        The Default and FeedbackBypass first rounds of the whole batch run
        through the engine's batch path — one pairwise-matrix search per arm
        instead of one scan per query — and the predictions are taken from
        the tree state at batch start, which models a group of queries
        arriving simultaneously (none of them can see the others' feedback).

        The feedback phase is batched too: the whole cohort's loops run on
        the frontier scheduler, which advances iteration *i* of every
        still-active query with one batched search (byte-identical to the
        sequential loops).  The retired cohort's converged OQPs are then
        handed to :meth:`~repro.core.bypass.FeedbackBypass.insert_batch` in
        input order, exactly as :meth:`run_query` would insert them.
        """
        indices = np.asarray(query_indices, dtype=np.intp)
        if indices.size == 0:
            return []
        points = self._query_vectors[indices]
        k = self._config.k
        positions = range(indices.size)

        # Strategy 1: Default first rounds, one batched search under the
        # default distance.
        default_results = self._engine.search_batch(points, k)

        # Strategy 2: FeedbackBypass first rounds — batched predictions plus
        # one batched search with per-query (Δ, W) parameters.
        predictions, deltas, weights = self._bypass.predict_for_engine_batch(points)
        bypass_results = self._engine.search_batch_with_parameters(points, k, deltas, weights)

        # Feedback phase: the cohort's default-start loops advance together
        # on the frontier (the paper's automated loop, batched), plus the
        # prediction-start loops when Saved-Cycles measurement is on.
        default_parameters = OptimalQueryParameters.default(self._collection.dimension)
        loops_default = self.run_feedback_loops(indices, [default_parameters] * indices.size)
        bypass_iteration_counts: list[int | None] = [None] * indices.size
        if self._config.measure_bypass_loop:
            loops_bypass = self.run_feedback_loops(indices, predictions)
            bypass_iteration_counts = [loop.iterations for loop in loops_bypass]

        # Train the bypass with the retired cohort: one ordered insert_batch
        # call over the queries that produced a feedback signal.
        optimals = [loop.parameters_to_store(point) for point, loop in zip(points, loops_default)]
        insertable = [position for position in positions if optimals[position] is not None]
        inserted = ["none"] * indices.size
        if insertable:
            insert_outcomes = self._bypass.insert_batch(
                points[insertable], [optimals[position] for position in insertable]
            )
            for position, insert_outcome in zip(insertable, insert_outcomes):
                inserted[position] = insert_outcome.action

        outcomes: list[QueryOutcome] = []
        for position, query_index in enumerate(indices):
            category = self._collection.label(int(query_index))
            outcomes.append(
                self._assemble_outcome(
                    int(query_index),
                    predictions[position],
                    self._metrics_for(default_results[position], category),
                    self._metrics_for(bypass_results[position], category),
                    loops_default[position],
                    bypass_iteration_counts[position],
                    inserted[position],
                )
            )
        return outcomes

    def run_stream(self, query_indices, *, batch_size: int | None = None) -> list[QueryOutcome]:
        """Process a stream of queries, training the bypass incrementally.

        With ``batch_size`` set, the stream is processed in chunks through
        :meth:`run_batch`: first rounds are batched, the chunk's feedback
        loops advance together on the frontier scheduler, and predictions
        within a chunk share the tree state at chunk start (simultaneous
        arrivals); between chunks the tree keeps learning as usual.  Without
        it, every query sees the feedback of all previous ones (the paper's
        sequential single-user regime).
        """
        indices = np.asarray(query_indices, dtype=np.intp)
        if batch_size is None:
            return [self.run_query(int(index)) for index in indices]
        check_dimension(batch_size, "batch_size")
        outcomes: list[QueryOutcome] = []
        for start in range(0, indices.size, batch_size):
            outcomes.extend(self.run_batch(indices[start : start + batch_size]))
        return outcomes
