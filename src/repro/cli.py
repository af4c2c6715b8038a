"""Command-line interface.

Exposes the library's day-to-day operations on serialised graphs::

    python -m repro info graph.json
    python -m repro connectivity graph.hel
    python -m repro ingest graph.hel --out graph.hmg
    python -m repro census graph.hmg --root MIT --emax 4
    python -m repro features graph.json --nodes MIT,ETH --out features.json
    python -m repro collisions --labels 2 --max-edges 5 --no-loops
    python -m repro embed graph.json --method deepwalk --out emb.npy
    python -m repro runtime graph.json --roots 25
    python -m repro rank --conferences KDD --families classic,subgraph
    python -m repro label graph.json --per-label 16
    python -m repro serve graph.json --socket /tmp/repro.sock

Graphs load from the labelled edge-list format (``.hel``, see
:mod:`repro.io.edgelist`), the out-of-core mmap format (``.hmg``, built
by ``repro ingest`` — see ``docs/out_of_core.md``), or the JSON format
(anything else).  ``--mmap-graph`` on the census/features/rank/label
commands converts an in-memory graph to mmap storage before the run.

Results (tables, matrices, counts) go to stdout via ``print``;
diagnostics go to stderr through :mod:`repro.obs.log` and are controlled
by ``--log-level``/``-v``.  Every analysis command accepts
``--telemetry-out run.json`` to write a JSON run manifest (config,
engine/n_jobs provenance, cache hit rates, per-stage wall clock, peak
RSS — see ``docs/observability.md``).

Commands execute as declared pipeline stages (``dataset → graph →
census → features → embed → experiment``, see
:mod:`repro.runtime.pipeline`) running under one
:class:`~repro.runtime.context.RunContext`.  ``--artifact-store PATH``
attaches a content-addressed :class:`~repro.runtime.store.ArtifactStore`
memoising census counters, walk corpora, embedding matrices, and feature
matrices across runs, so a warm rerun skips every computed stage (see
``docs/architecture.md``).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.core import (
    CensusConfig,
    SampledCensusConfig,
    SubgraphFeatureExtractor,
    code_to_string,
    describe_code,
    find_collisions,
    label_connectivity,
)
from repro.core.census import effective_labelset
from repro.exceptions import PartitionError
from repro.io import read_edgelist, read_graph_json, write_features_json
from repro.obs import (
    add_logging_args,
    configure_logging,
    fresh_telemetry,
    get_logger,
    get_telemetry,
    write_manifest,
)
from repro.runtime import (
    ENGINE_FAST,
    ENGINE_SAMPLED,
    VALID_ENGINES,
    ArtifactStore,
    Pipeline,
    RunContext,
)

logger = get_logger(__name__)


def _load_graph(path: str, *, mmap: bool = False):
    """Load a graph file, dispatching on suffix.

    ``mmap=True`` (the ``--mmap-graph`` flag) converts an in-memory
    graph to out-of-core mmap storage through a temp ``.hmg`` file;
    graphs already opened from ``.hmg`` are returned as they are.
    """
    from repro.core.mmap_graph import HMG_SUFFIX, MmapGraph

    path = Path(path)
    if not path.exists():
        raise SystemExit(f"error: no such file: {path}")
    if path.suffix == HMG_SUFFIX:
        graph = MmapGraph(path)
    elif path.suffix == ".hel":
        graph = read_edgelist(path)
    else:
        graph = read_graph_json(path)
    if mmap:
        from repro.io.stream import to_mmap_graph

        graph = to_mmap_graph(graph)
    return graph


def _census_config(args) -> CensusConfig:
    return CensusConfig(
        max_edges=args.emax,
        max_degree=args.dmax,
        mask_start_label=args.mask,
    )


def _sampled_config(args) -> SampledCensusConfig | None:
    """Estimator knobs for ``--engine sampled``; ``None`` for exact engines.

    Giving a sampling flag with an exact engine is rejected rather than
    silently ignored — the run would otherwise look budgeted but be exact.
    """
    engine = getattr(args, "engine", None)
    given = [
        flag
        for flag, value in (
            ("--sample-budget", getattr(args, "sample_budget", None)),
            ("--sample-rel-err", getattr(args, "sample_rel_err", None)),
        )
        if value is not None
    ]
    if engine != ENGINE_SAMPLED:
        if given:
            raise SystemExit(
                f"error: {', '.join(given)} requires --engine sampled "
                f"(got --engine {engine})"
            )
        return None
    kwargs = {"seed": getattr(args, "sample_seed", 0)}
    if args.sample_budget is not None:
        kwargs["budget"] = args.sample_budget
    if args.sample_rel_err is not None:
        kwargs["rel_err"] = args.sample_rel_err
    return SampledCensusConfig(**kwargs)


def _build_context(args) -> RunContext:
    """Construct the :class:`RunContext` a command's pipeline runs under.

    ``--artifact-store`` opens (or creates) the content-addressed store.
    Engine, worker count, and seed come from the command's own flags when
    it defines them, so every stage sees one consistent execution policy.
    """
    store_path = getattr(args, "artifact_store", None)
    store = None
    if store_path:
        store = ArtifactStore(store_path)
        get_telemetry().annotate("cache/path", str(store_path))
    workers = getattr(args, "workers", None)
    if workers:
        workers = tuple(
            spec.strip() for group in workers for spec in group.split(",") if spec.strip()
        )
    return RunContext(
        engine=getattr(args, "engine", None),
        n_jobs=getattr(args, "n_jobs", None),
        partitions=getattr(args, "partitions", None),
        workers=workers or None,
        seed=getattr(args, "seed", None),
        store=store,
    )


def _save_store(ctx: RunContext) -> None:
    """Persist the run's artifact store (if any) and log a summary."""
    store = ctx.store
    if store is None or store.path is None:
        return
    store.save()
    logger.info(
        "artifact store: %d entries (%d hits, %d misses) -> %s",
        len(store),
        store.hits,
        store.misses,
        store.path,
    )


def _csv(value: str, caster=str) -> list:
    return [caster(item) for item in value.split(",") if item]


def cmd_info(args) -> int:
    graph = _load_graph(args.graph)
    print(graph)
    counts = graph.label_counts()
    for i, name in enumerate(graph.labelset.names):
        print(f"  {name}: {int(counts[i])} nodes")
    degrees = graph.degrees()
    if graph.num_nodes:
        print(f"  degree: mean {degrees.mean():.2f}, max {int(degrees.max())}")
    return 0


def cmd_connectivity(args) -> int:
    graph = _load_graph(args.graph)
    connectivity = label_connectivity(graph)
    print(connectivity.render())
    print(f"collision-free e_max: {connectivity.collision_free_emax()}")
    return 0


def cmd_ingest(args) -> int:
    from repro.core.mmap_graph import HMG_SUFFIX, MmapGraph
    from repro.exceptions import GraphError
    from repro.io.stream import build_mmap_graph

    source = Path(args.edgelist)
    if not source.exists():
        raise SystemExit(f"error: no such file: {source}")
    out = Path(args.out) if args.out else source.with_suffix(HMG_SUFFIX)
    try:
        build_mmap_graph(
            source,
            out,
            chunk_edges=args.chunk_edges,
            store_ids=not args.no_ids,
        )
    except GraphError as exc:
        raise SystemExit(f"error: {exc}") from None
    with MmapGraph(out) as graph:
        print(f"{out}: {out.stat().st_size} bytes")
        print(f"  nodes: {graph.num_nodes}")
        print(f"  edges: {graph.num_edges}")
        print(f"  labels: {', '.join(graph.labelset.names)}")
        print(f"  fingerprint: {graph.fingerprint()}")
    return 0


def cmd_census(args) -> int:
    ctx = _build_context(args)
    pipeline = Pipeline("census", ctx)
    with pipeline.stage("dataset"):
        graph = _load_graph(args.graph, mmap=args.mmap_graph)
    config = _census_config(args)
    extractor = SubgraphFeatureExtractor(
        config, sampled=_sampled_config(args), ctx=ctx
    )
    with pipeline.stage("census"):
        counts = extractor.census_many(graph, [graph.index(args.root)])[0]
    _save_store(ctx)
    labelset = effective_labelset(graph, config)
    for code, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        # Sampled censuses carry float estimates; exact engines stay ints.
        shown = f"{count:g}" if isinstance(count, float) else str(count)
        line = f"{shown}\t{code_to_string(code, labelset)}"
        if args.describe:
            line += f"\t{describe_code(code, labelset)}"
        print(line)
    logger.info(
        "%s subgraphs in %d classes around %r",
        f"{sum(counts.values()):g}",
        len(counts),
        args.root,
    )
    return 0


def cmd_features(args) -> int:
    ctx = _build_context(args)
    pipeline = Pipeline("features", ctx)
    with pipeline.stage("dataset"):
        graph = _load_graph(args.graph, mmap=args.mmap_graph)
    config = _census_config(args)
    names = _csv(args.nodes)
    if not names:
        raise SystemExit("error: --nodes must list at least one node id")
    nodes = [graph.index(name) for name in names]
    extractor = SubgraphFeatureExtractor(
        config, sampled=_sampled_config(args), ctx=ctx
    )
    # The census stage runs inside fit_transform (and is skipped entirely
    # when the store already holds this feature matrix).
    with pipeline.stage("features"):
        features = extractor.fit_transform(graph, nodes)
    _save_store(ctx)
    write_features_json(features, effective_labelset(graph, config), args.out)
    print(
        f"wrote {features.matrix.shape[0]} x {features.matrix.shape[1]} "
        f"feature matrix to {args.out}"
    )
    return 0


def cmd_embed(args) -> int:
    import json

    import numpy as np

    from repro.experiments.common import EmbeddingParams, embedding_matrix

    ctx = _build_context(args)
    pipeline = Pipeline("embed", ctx)
    with pipeline.stage("dataset"):
        graph = _load_graph(args.graph)
    params = EmbeddingParams(
        dim=args.dim,
        num_walks=args.num_walks,
        walk_length=args.walk_length,
        window=args.window,
        negative=args.negative,
        p=args.p,
        q=args.q,
        line_samples=args.line_samples,
    )
    with pipeline.stage("embed"):
        with get_telemetry().span(f"phase/embed_{args.method}"):
            matrix = embedding_matrix(
                graph,
                np.arange(graph.num_nodes),
                args.method,
                params,
                seed=args.seed,
                ctx=ctx,
            )
    _save_store(ctx)
    out = Path(args.out)
    if out.suffix == ".npy":
        np.save(out, matrix)
    else:
        payload = {
            str(node_id): [float(x) for x in matrix[i]]
            for i, node_id in enumerate(graph.node_ids)
        }
        out.write_text(json.dumps(payload) + "\n")
    print(
        f"wrote {matrix.shape[0]} x {matrix.shape[1]} {args.method} embedding "
        f"(n_jobs={args.n_jobs}) to {out}"
    )
    return 0


def cmd_runtime(args) -> int:
    import numpy as np

    from repro.experiments.common import EmbeddingParams
    from repro.experiments.reporting import render_table3
    from repro.experiments.runtime import runtime_report

    ctx = _build_context(args)
    pipeline = Pipeline("runtime", ctx)
    with pipeline.stage("dataset"):
        graph = _load_graph(args.graph)
    if graph.num_nodes == 0:
        raise SystemExit("error: graph has no nodes")
    rng = np.random.default_rng(args.seed)
    roots = rng.choice(
        graph.num_nodes, size=min(args.roots, graph.num_nodes), replace=False
    )
    params = (
        EmbeddingParams.paper() if args.preset == "paper" else EmbeddingParams.fast()
    )
    with pipeline.stage("experiment"):
        report = runtime_report(
            Path(args.graph).stem,
            graph,
            [int(r) for r in roots],
            emax=args.emax,
            dmax_percentile=args.dmax_percentile,
            embedding_params=params,
            seed=args.seed,
            ctx=ctx,
        )
    _save_store(ctx)
    print(render_table3([report]))
    return 0


def cmd_rank(args) -> int:
    from repro.datasets.mag import MagConfig, SyntheticMAG
    from repro.experiments.rank_prediction import (
        FEATURE_FAMILIES,
        REGRESSOR_NAMES,
        RankPredictionExperiment,
        RankTaskConfig,
    )
    from repro.experiments.reporting import render_figure3, render_table1

    families = tuple(_csv(args.families)) if args.families else FEATURE_FAMILIES
    regressors = tuple(_csv(args.regressors)) if args.regressors else REGRESSOR_NAMES
    mag_config = MagConfig(
        num_institutions=args.institutions,
        authors_per_institution=args.authors,
        papers_per_conference_year=args.papers,
        seed=args.seed + 7,
    )
    conferences = tuple(_csv(args.conferences)) if args.conferences else None
    task = RankTaskConfig(
        train_years=tuple(_csv(args.train_years, int)),
        test_year=args.test_year,
        conferences=conferences,
        emax=args.emax,
        forest_trees=args.trees,
        seed=args.seed,
        layout=args.layout,
        engine=args.engine,
        sampled=_sampled_config(args),
        n_jobs=args.n_jobs,
        storage="mmap" if args.mmap_graph else "dict",
    )
    ctx = _build_context(args)
    pipeline = Pipeline("rank", ctx)
    with pipeline.stage("dataset"):
        with get_telemetry().span("phase/build_world"):
            mag = SyntheticMAG(mag_config)
    logger.info(
        "rank world: %d institutions, %d conferences, years %d-%d",
        mag_config.num_institutions,
        len(conferences or mag.config.conferences),
        min(task.train_years),
        task.test_year,
    )
    experiment = RankPredictionExperiment(mag, task, ctx=ctx)
    with pipeline.stage("experiment"):
        result = experiment.run(families=families, regressors=regressors)
    _save_store(ctx)
    print(render_table1(result, families=families))
    if args.per_conference:
        print()
        print(render_figure3(result, families=families))
    return 0


def cmd_label(args) -> int:
    from repro.experiments.label_prediction import (
        FEATURE_TYPES,
        LabelPredictionExperiment,
        LabelTaskConfig,
    )
    from repro.experiments.reporting import render_sweep

    ctx = _build_context(args)
    pipeline = Pipeline("label", ctx)
    with pipeline.stage("dataset"):
        graph = _load_graph(args.graph, mmap=args.mmap_graph)
    features = tuple(_csv(args.features)) if args.features else FEATURE_TYPES
    config = LabelTaskConfig(
        per_label=args.per_label,
        emax=args.emax,
        dmax_percentile=args.dmax_percentile,
        train_fractions=tuple(_csv(args.fractions, float)),
        removal_fractions=tuple(_csv(args.removal_fractions, float)),
        n_repeats=args.repeats,
        seed=args.seed,
        layout=args.layout,
        engine=args.engine,
        sampled=_sampled_config(args),
        n_jobs=args.n_jobs,
    )
    experiment = LabelPredictionExperiment(graph, config, ctx=ctx)
    logger.info(
        "label task: %d sampled roots over %d labels, mode=%s",
        len(experiment.nodes),
        len(graph.labelset),
        args.mode,
    )
    telemetry = get_telemetry()
    with pipeline.stage("experiment"):
        if args.mode == "removal":
            with telemetry.span("phase/label_removal"):
                sweep = experiment.run_label_removal(features=features)
            title = "Figure 5D-F: macro-F1 vs removed label fraction"
        else:
            with telemetry.span("phase/label_sweep"):
                sweep = experiment.run_training_sweep(features=features)
            title = "Figure 5A-C: macro-F1 vs training fraction"
    _save_store(ctx)
    print(render_sweep(title, sweep))
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.net import parse_endpoint
    from repro.serve import (
        FeatureService,
        ReplayConfig,
        ServeConfig,
        ServeDaemon,
        generate_trace,
        serve_and_replay,
    )

    ctx = _build_context(args)
    pipeline = Pipeline("serve", ctx)
    with pipeline.stage("dataset"):
        graph = _load_graph(args.graph)
    config = ServeConfig(
        emax=args.emax,
        dmax=args.dmax,
        engine=args.engine,
        n_jobs=args.n_jobs,
        top_k=args.top_k,
    )
    service = FeatureService(graph, config, store=ctx.store)
    if args.warm:
        with get_telemetry().span("phase/serve_warm"):
            warmed = service.warm()
        logger.info("warmed %d roots", warmed)
    endpoint = parse_endpoint(
        f"tcp:{args.tcp}" if args.tcp is not None else f"unix:{args.socket}"
    )
    daemon = ServeDaemon(
        service,
        endpoint,
        request_timeout=args.request_timeout,
        max_inflight=args.max_inflight,
    )
    if args.replay is not None:
        # Self-contained benchmark mode: serve, fire a generated trace at
        # ourselves, report, exit.
        replay_config = ReplayConfig(
            requests=args.replay,
            connections=args.connections,
            write_fraction=args.write_fraction,
            seed=args.seed,
        )
        trace = generate_trace(service.graph, replay_config)
        with get_telemetry().span("phase/serve_replay"):
            report = asyncio.run(
                serve_and_replay(
                    daemon, trace, connections=replay_config.connections
                )
            )
        _save_store(ctx)
        print(report.summary())
        return 0
    try:
        asyncio.run(daemon.run())
    except KeyboardInterrupt:
        logger.info("interrupted; shutting down")
    _save_store(ctx)
    print(
        f"served {daemon.requests} requests "
        f"({daemon.shed_requests} shed, {daemon.timeouts} timeouts)"
    )
    return 0


def cmd_worker(args) -> int:
    import asyncio

    from repro.dist import PartitionConfig, ShardWorker, partition_graph
    from repro.net import parse_endpoint

    endpoint = parse_endpoint(args.listen)
    shards = None
    if args.graph is not None:
        if args.partitions is None:
            raise SystemExit("error: --graph preloading requires --partitions")
        graph = _load_graph(args.graph, mmap=getattr(args, "mmap_graph", False))
        config = CensusConfig(max_edges=args.emax, max_degree=args.dmax)
        pset = partition_graph(
            graph, PartitionConfig(num_partitions=args.partitions), config
        )
        wanted = (
            sorted(int(s) for s in args.shards.split(","))
            if args.shards
            else range(len(pset))
        )
        shards = {i: pset.partitions[i] for i in wanted}
        logger.info("preloaded shards %s", sorted(shards))
    worker = ShardWorker(endpoint, partitions=shards)
    asyncio.run(worker.run())
    print(
        f"worker stopped after {worker.requests} requests "
        f"({worker.censuses} censuses)"
    )
    return 0


def cmd_collisions(args) -> int:
    report = find_collisions(
        num_labels=args.labels,
        max_edges=args.max_edges,
        allow_same_label_edges=not args.no_loops,
        stop_at_first=args.first,
    )
    print(report.summary())
    for collision in report.collisions[: args.show]:
        print(f"  {collision.first}")
        print(f"  {collision.second}")
        print("  --")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="heterogeneous subgraph features toolkit"
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_args(p, telemetry: bool = True):
        add_logging_args(p)
        if telemetry:
            p.add_argument(
                "--telemetry-out",
                default=None,
                metavar="PATH",
                help="write a JSON run manifest (see docs/observability.md)",
            )

    def jobs_arg(p, help):
        p.add_argument(
            "--n-jobs", "--jobs", dest="n_jobs", type=int, default=1, help=help
        )

    def partitions_arg(p, help):
        p.add_argument("--partitions", type=int, default=None, help=help)

    def engine_arg(p, help):
        p.add_argument("--engine", choices=VALID_ENGINES, default="fast", help=help)

    def size_args(p, emax: int, dmax: str | None = "degree"):
        """``--emax`` with the command's default, and the hub cut-off as an
        absolute ``--dmax`` (``"degree"``), a ``--dmax-percentile``
        (``"percentile"``), or not at all (``None``)."""
        p.add_argument("--emax", type=int, default=emax, help="max subgraph edges")
        if dmax == "degree":
            p.add_argument(
                "--dmax", type=int, default=None, help="hub degree cut-off"
            )
        elif dmax == "percentile":
            p.add_argument(
                "--dmax-percentile",
                type=float,
                default=90.0,
                help="hub degree cut-off percentile",
            )

    def layout_arg(p):
        p.add_argument(
            "--layout",
            choices=("dense", "sparse"),
            default="dense",
            help="count-feature matrix layout",
        )

    def store_args(p):
        p.add_argument(
            "--artifact-store",
            default=None,
            metavar="PATH",
            help="content-addressed store memoising census, walk, embedding "
            "and feature artifacts across runs (see docs/architecture.md)",
        )

    p_info = sub.add_parser("info", help="summarise a graph file")
    p_info.add_argument("graph")
    common_args(p_info, telemetry=False)
    p_info.set_defaults(func=cmd_info)

    p_conn = sub.add_parser("connectivity", help="print the label connectivity graph")
    p_conn.add_argument("graph")
    common_args(p_conn, telemetry=False)
    p_conn.set_defaults(func=cmd_connectivity)

    p_ingest = sub.add_parser(
        "ingest", help="build an out-of-core .hmg graph from an edge list"
    )
    p_ingest.add_argument("edgelist", help="labelled edge-list file (.hel)")
    p_ingest.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output .hmg path (default: the edge list with a .hmg suffix)",
    )
    p_ingest.add_argument(
        "--chunk-edges",
        type=int,
        default=1 << 18,
        metavar="N",
        help="edges sorted per in-memory run; bounds the ingester's "
        "working set (see docs/out_of_core.md)",
    )
    p_ingest.add_argument(
        "--no-ids",
        action="store_true",
        help="drop external node ids; nodes are addressed by dense index",
    )
    common_args(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    def sample_args(p):
        p.add_argument(
            "--sample-budget",
            type=int,
            default=None,
            metavar="N",
            help="probe draws per root for --engine sampled "
            "(default: 2000; see docs/sampled_census.md)",
        )
        p.add_argument(
            "--sample-seed",
            type=int,
            default=0,
            help="rng seed for the sampled census estimator",
        )
        p.add_argument(
            "--sample-rel-err",
            type=float,
            default=None,
            metavar="EPS",
            help="stop a root early once its CI half-width falls below "
            "EPS x the total estimate",
        )

    def mmap_args(p):
        p.add_argument(
            "--mmap-graph",
            action="store_true",
            help="convert the graph to out-of-core mmap storage before the "
            "run; results are bit-identical (see docs/out_of_core.md)",
        )

    def workers_arg(p):
        p.add_argument(
            "--workers",
            action="append",
            default=None,
            metavar="ENDPOINT[,ENDPOINT...]",
            help="run the census on these repro worker daemons "
            "(host:port or unix:path; repeat the flag or comma-separate; "
            "see docs/distributed_census.md)",
        )

    def census_args(p):
        p.add_argument("graph")
        size_args(p, emax=4)
        p.add_argument("--mask", action="store_true", help="mask the start label")
        engine_arg(
            p,
            "census implementation (sampled = budgeted estimates "
            "with confidence bounds)",
        )
        sample_args(p)
        jobs_arg(p, "worker processes for the census (0 = all cores)")
        partitions_arg(
            p,
            "halo-complete graph shards to cut for --workers "
            "(default: one per worker)",
        )
        workers_arg(p)
        mmap_args(p)
        store_args(p)
        common_args(p)

    p_census = sub.add_parser("census", help="rooted census around one node")
    census_args(p_census)
    p_census.add_argument("--root", required=True, help="node id of the start node")
    p_census.add_argument(
        "--describe", action="store_true", help="append decoded descriptions"
    )
    p_census.set_defaults(func=cmd_census)

    p_feat = sub.add_parser("features", help="extract a feature matrix to JSON")
    census_args(p_feat)
    p_feat.add_argument("--nodes", required=True, help="comma-separated node ids")
    p_feat.add_argument("--out", required=True, help="output JSON path")
    p_feat.set_defaults(func=cmd_features)

    def pipeline_args(p):
        jobs_arg(p, "worker processes for corpus generation")
        p.add_argument("--seed", type=int, default=0, help="rng seed")
        store_args(p)
        common_args(p)

    p_embed = sub.add_parser("embed", help="train an embedding baseline")
    p_embed.add_argument("graph")
    p_embed.add_argument(
        "--method",
        required=True,
        choices=("deepwalk", "node2vec", "line"),
        help="embedding baseline to train",
    )
    p_embed.add_argument("--out", required=True, help="output path (.npy or JSON)")
    p_embed.add_argument("--dim", type=int, default=128)
    p_embed.add_argument("--num-walks", type=int, default=10)
    p_embed.add_argument("--walk-length", type=int, default=80)
    p_embed.add_argument("--window", type=int, default=10)
    p_embed.add_argument("--negative", type=int, default=5)
    p_embed.add_argument("--p", type=float, default=1.0)
    p_embed.add_argument("--q", type=float, default=1.0)
    p_embed.add_argument("--line-samples", type=int, default=None)
    pipeline_args(p_embed)
    p_embed.set_defaults(func=cmd_embed)

    p_runtime = sub.add_parser(
        "runtime", help="Table-3 style census + embedding timing row"
    )
    p_runtime.add_argument("graph")
    p_runtime.add_argument(
        "--roots", type=int, default=25, help="number of census roots to time"
    )
    size_args(p_runtime, emax=3, dmax="percentile")
    p_runtime.add_argument(
        "--preset",
        choices=("fast", "paper"),
        default="fast",
        help="embedding hyper-parameter preset",
    )
    pipeline_args(p_runtime)
    p_runtime.set_defaults(func=cmd_runtime)

    p_rank = sub.add_parser(
        "rank", help="Table-1 style rank prediction on a synthetic MAG world"
    )
    p_rank.add_argument(
        "--conferences", default=None, help="comma-separated subset (default: all)"
    )
    p_rank.add_argument(
        "--families", default=None, help="feature families (default: all)"
    )
    p_rank.add_argument(
        "--regressors", default=None, help="regressors (default: all)"
    )
    p_rank.add_argument(
        "--train-years",
        default="2011,2012,2013,2014",
        help="comma-separated training sample years",
    )
    p_rank.add_argument("--test-year", type=int, default=2015)
    size_args(p_rank, emax=3, dmax=None)
    p_rank.add_argument("--trees", type=int, default=150, help="random forest size")
    p_rank.add_argument(
        "--institutions", type=int, default=60, help="synthetic world size"
    )
    p_rank.add_argument("--authors", type=int, default=8, help="authors/institution")
    p_rank.add_argument("--papers", type=int, default=70, help="papers/conference-year")
    p_rank.add_argument(
        "--per-conference",
        action="store_true",
        help="also print the Figure-3 per-conference grids",
    )
    p_rank.add_argument("--seed", type=int, default=0, help="rng seed")
    layout_arg(p_rank)
    engine_arg(
        p_rank,
        "census implementation for the subgraph family (sampled = "
        "budgeted estimates with confidence bounds)",
    )
    sample_args(p_rank)
    jobs_arg(
        p_rank,
        "worker processes for the experiment grid and forests "
        "(results are identical for any value)",
    )
    mmap_args(p_rank)
    store_args(p_rank)
    common_args(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_label = sub.add_parser(
        "label", help="Figure-5 style label prediction on a graph file"
    )
    p_label.add_argument("graph")
    p_label.add_argument(
        "--mode",
        choices=("sweep", "removal"),
        default="sweep",
        help="training-size sweep (5A-C) or label removal (5D-F)",
    )
    p_label.add_argument("--per-label", type=int, default=40)
    size_args(p_label, emax=3, dmax="percentile")
    p_label.add_argument(
        "--features", default=None, help="feature types (default: all)"
    )
    p_label.add_argument(
        "--fractions", default="0.1,0.3,0.5,0.7,0.9", help="training fractions"
    )
    p_label.add_argument(
        "--removal-fractions", default="0.0,0.25,0.5,0.75", help="removal fractions"
    )
    p_label.add_argument("--repeats", type=int, default=10, help="splits per point")
    p_label.add_argument("--seed", type=int, default=0, help="rng seed")
    layout_arg(p_label)
    engine_arg(
        p_label,
        "census implementation for the subgraph features (sampled = "
        "budgeted estimates with confidence bounds)",
    )
    sample_args(p_label)
    jobs_arg(
        p_label,
        "worker processes for the training sweep "
        "(results are identical for any value)",
    )
    mmap_args(p_label)
    store_args(p_label)
    common_args(p_label)
    p_label.set_defaults(func=cmd_label)

    p_serve = sub.add_parser(
        "serve", help="feature-serving daemon with incremental census repair"
    )
    p_serve.add_argument("graph")
    listen = p_serve.add_mutually_exclusive_group(required=True)
    listen.add_argument(
        "--socket",
        metavar="PATH",
        help="unix domain socket to listen on (see docs/serving.md)",
    )
    listen.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="TCP endpoint to listen on instead of a unix socket "
        "(port 0 binds an ephemeral port; the resolved address is logged)",
    )
    size_args(p_serve, emax=4)
    p_serve.add_argument(
        "--engine",
        choices=(ENGINE_FAST,),
        default=ENGINE_FAST,
        help="census implementation (exact only: incremental repair "
        "must be bit-identical to a cold recompute)",
    )
    jobs_arg(p_serve, "worker processes for warm-up and repair censuses")
    p_serve.add_argument(
        "--top-k", type=int, default=10, help="default result size for rank queries"
    )
    p_serve.add_argument(
        "--warm",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="precompute every root's census before accepting connections",
    )
    p_serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request deadline before a typed timeout error",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="concurrent requests before shedding with the overloaded error",
    )
    p_serve.add_argument(
        "--replay",
        type=int,
        default=None,
        metavar="N",
        help="benchmark mode: serve, fire N generated requests at the "
        "daemon, print the latency report, and exit",
    )
    p_serve.add_argument(
        "--connections",
        type=int,
        default=8,
        help="client connections in --replay mode",
    )
    p_serve.add_argument(
        "--write-fraction",
        type=float,
        default=0.1,
        help="edge-mutation share of the --replay trace",
    )
    p_serve.add_argument("--seed", type=int, default=0, help="rng seed for --replay")
    store_args(p_serve)
    common_args(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_worker = sub.add_parser(
        "worker",
        help="shard-census worker daemon for census/features --workers "
        "(see docs/distributed_census.md)",
    )
    p_worker.add_argument(
        "--listen",
        required=True,
        metavar="ENDPOINT",
        help="endpoint to serve census RPCs on: host:port, unix:PATH, "
        "or a socket path (TCP port 0 binds an ephemeral port)",
    )
    p_worker.add_argument(
        "--graph",
        default=None,
        help="optional graph file to preload shards from (otherwise the "
        "coordinator ships shards over the wire)",
    )
    partitions_arg(
        p_worker,
        "partition count used to cut preloaded shards (must match "
        "the coordinator's --partitions)",
    )
    p_worker.add_argument(
        "--shards",
        default=None,
        metavar="I[,I...]",
        help="shard ids to preload (default: all of them)",
    )
    size_args(p_worker, emax=4)
    mmap_args(p_worker)
    common_args(p_worker)
    p_worker.set_defaults(func=cmd_worker)

    p_coll = sub.add_parser("collisions", help="enumerate encoding collisions")
    p_coll.add_argument("--labels", type=int, default=2)
    p_coll.add_argument("--max-edges", type=int, default=5)
    p_coll.add_argument(
        "--no-loops",
        action="store_true",
        help="forbid same-label edges (the e_max=5 regime)",
    )
    p_coll.add_argument("--first", action="store_true", help="stop at first collision")
    p_coll.add_argument("--show", type=int, default=3, help="collisions to print")
    common_args(p_coll, telemetry=False)
    p_coll.set_defaults(func=cmd_collisions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level, args.verbosity)
    with fresh_telemetry() as telemetry:
        with telemetry.span("phase/total"):
            try:
                code = args.func(args)
            except PartitionError as exc:
                # A shard setting the run cannot use, such as --partitions
                # without --workers, is a usage error.
                parser.error(str(exc))
        if getattr(args, "telemetry_out", None):
            config = {
                key: value
                for key, value in vars(args).items()
                if key not in ("func", "verbosity")
            }
            write_manifest(args.telemetry_out, args.command, config=config)
        if args.verbosity > 0:
            from repro.experiments.reporting import render_telemetry

            logger.debug("%s", render_telemetry(telemetry))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
