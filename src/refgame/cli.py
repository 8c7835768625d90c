"""Command-line front end.

Subcommands: ingest, normalize, predict, oed, score, compare, simulate.
Every file-writing command also writes a <output>.manifest.json recording
the command, resolved settings, seed, and sha256 digests of its inputs,
so any output can be reproduced exactly. Exit codes: 0 success, 1 domain
error in the data, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .association import (
    Tables,
    bigram_association,
    cosine_association,
    load_association,
    load_normalized,
    quantile_normalize,
    relatedness_association,
    save_association,
    save_normalized,
    topic_association,
)
from .errors import DataError
from .evaluation import (
    load_responses,
    model_agreement,
    metric_rank_correlation,
    read_jsonl,
    render_gameplay,
    render_matrix,
    render_score_reports,
    score_responses,
    simulate_gameplay,
)
from .lexicon import (
    load_counts,
    load_embeddings,
    load_lexicon,
    load_relatedness,
    load_topics,
)
from .oed import (
    MODES,
    ModelSet,
    SearchSettings,
    candidate_to_record,
    check_filter_bounds,
    filter_candidates,
    monte_carlo_search,
)
from .rsa import (
    LISTENER,
    SPEAKER,
    clue_word,
    configuration_from_record,
    pair_words,
    parse_model_spec,
    predict,
    scenario_from_record,
)

_LITERAL_ALL = (
    "bigram:literal",
    "embedding-cosine:literal",
    "graph-relatedness:literal",
    "topic-distance:literal",
)

# Experiment presets: scenario shape, search mode, and model set.
PRESETS = {
    "exp1": {"nouns": 5, "adjectives": 8, "mode": "joint", "models": _LITERAL_ALL},
    "exp2-speaker": {
        "nouns": 3,
        "adjectives": 4,
        "mode": "separate-speaker",
        "models": _LITERAL_ALL,
    },
    "exp2-listener": {
        "nouns": 3,
        "adjectives": 4,
        "mode": "separate-listener",
        "models": _LITERAL_ALL,
    },
    "exp3": {
        "nouns": 3,
        "adjectives": 3,
        "mode": "joint",
        "models": (
            "bigram:literal",
            "embedding-cosine:literal",
            "graph-relatedness:literal",
        ),
    },
    "exp4": {
        "nouns": 3,
        "adjectives": 3,
        "mode": "joint",
        "models": ("bigram:literal", "bigram:pragmatic:1.0"),
    },
}

_INGEST_KINDS = ("counts", "embeddings", "relatedness", "topics")


class _UsageError(Exception):
    """Bad flag values detected after argparse: exit code 2."""


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(output: str, command: str, settings: dict, seed: int | None, inputs) -> None:
    """Write the reproducibility sidecar <output>.manifest.json."""
    manifest = {
        "command": command,
        "settings": settings,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "version": __version__,
    }
    Path(str(output) + ".manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _parse_spec(text: str, role: str):
    # Bad model strings are usage errors (exit 2), not data errors.
    try:
        return parse_model_spec(text, role)
    except DataError as exc:
        raise _UsageError(str(exc)) from None


def _matrix_paths(entries) -> list[str]:
    """The file paths of --matrix flags ("metric=path" or bare path)."""
    return [entry.split("=", 1)[-1] for entry in entries]


def _load_matrices(entries) -> Tables:
    """Load --matrix flags ("metric=path" or bare path) into a metric map."""
    tables = {}
    for entry in entries:
        label = None
        path = entry
        if "=" in entry:
            label, path = entry.split("=", 1)
            label = label.strip()
        norm = load_normalized(path)
        if label and label != norm.metric:
            raise DataError(f"matrix {path} holds metric '{norm.metric}', not '{label}'")
        if norm.metric in tables:
            raise DataError(f"metric '{norm.metric}' supplied twice")
        tables[norm.metric] = norm
    return Tables.of(tables)


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON ({exc})") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_ingest(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    if args.kind == "counts":
        assoc = bigram_association(load_counts(args.input, lexicon))
    elif args.kind == "embeddings":
        assoc = cosine_association(load_embeddings(args.input, lexicon))
    elif args.kind == "relatedness":
        assoc = relatedness_association(load_relatedness(args.input, lexicon))
    else:
        assoc = topic_association(load_topics(args.input, lexicon))
    save_association(assoc, args.output)
    _write_manifest(
        args.output,
        "ingest",
        {"kind": args.kind, "input": args.input, "lexicon": args.lexicon, "output": args.output},
        None,
        [args.input, args.lexicon],
    )
    return 0


def cmd_normalize(args) -> int:
    assoc = load_association(args.input)
    save_normalized(quantile_normalize(assoc), args.output)
    _write_manifest(
        args.output,
        "normalize",
        {"input": args.input, "output": args.output},
        None,
        [args.input],
    )
    return 0


def cmd_predict(args) -> int:
    tables = _load_matrices(args.matrix)
    lexicon = tables.lexicon
    config = configuration_from_record(_load_json(args.config), lexicon)
    spec = _parse_spec(args.model, config.role)
    dist = predict(tables[spec.metric], config, spec)
    lines = ["# answer\tprobability"]
    for answer, prob in zip(dist.support, dist.probs):
        if config.role == LISTENER:
            name = ",".join(pair_words(config.scenario, answer, lexicon))
        else:
            name = clue_word(config.scenario, answer, lexicon)
        lines.append(f"{name}\t{repr(float(prob))}")
    _emit("\n".join(lines) + "\n", args.output)
    if args.output:
        _write_manifest(
            args.output,
            "predict",
            {
                "matrix": list(args.matrix),
                "config": args.config,
                "model": args.model,
                "output": args.output,
            },
            None,
            _matrix_paths(args.matrix) + [args.config],
        )
    return 0


def _resolve_oed_settings(args) -> dict:
    resolved = {"nouns": None, "adjectives": None, "mode": None, "models": None}
    if args.preset:
        if args.preset not in PRESETS:
            raise _UsageError(
                f"unknown preset {args.preset!r} (have {', '.join(sorted(PRESETS))})"
            )
        resolved.update(PRESETS[args.preset])
    if args.nouns is not None:
        resolved["nouns"] = args.nouns
    if args.adjectives is not None:
        resolved["adjectives"] = args.adjectives
    if args.mode is not None:
        resolved["mode"] = args.mode
    if args.model:
        resolved["models"] = tuple(args.model)
    for key in ("nouns", "adjectives", "mode", "models"):
        if resolved[key] is None:
            raise _UsageError(f"--{key if key != 'models' else 'model'} required without a preset")
    return resolved


def cmd_oed(args) -> int:
    # Bad flag values are usage errors, found before any matrix is read.
    for flag, value in (
        ("--min-word-diff", args.min_word_diff),
        ("--max-word-occurrence", args.max_word_occurrence),
    ):
        if value is not None and not args.filter:
            raise _UsageError(f"{flag} needs --filter")
    min_word_diff = 2 if args.min_word_diff is None else args.min_word_diff
    max_word_occurrence = 20 if args.max_word_occurrence is None else args.max_word_occurrence
    resolved = _resolve_oed_settings(args)
    try:
        settings = SearchSettings(
            nouns=resolved["nouns"],
            adjectives=resolved["adjectives"],
            mode=resolved["mode"],
            iterations=args.iterations,
            seed=args.seed,
            top_k=args.top,
        )
        check_filter_bounds(min_word_diff, max_word_occurrence)
    except DataError as exc:
        raise _UsageError(str(exc)) from None
    tables = _load_matrices(args.matrix)
    lexicon = tables.lexicon
    if settings.role is None:
        models = (
            ModelSet(tuple(_parse_spec(s, SPEAKER) for s in resolved["models"])),
            ModelSet(tuple(_parse_spec(s, LISTENER) for s in resolved["models"])),
        )
    else:
        models = ModelSet(tuple(_parse_spec(s, settings.role) for s in resolved["models"]))
    candidates = monte_carlo_search(tables, models, settings)
    if args.filter:
        candidates = filter_candidates(
            candidates,
            min_word_difference=min_word_diff,
            max_word_occurrence=max_word_occurrence,
        )
    lines = [json.dumps(candidate_to_record(c, lexicon), sort_keys=True) for c in candidates]
    Path(args.output).write_text("\n".join(lines) + ("\n" if lines else ""))
    _write_manifest(
        args.output,
        "oed",
        {
            "matrix": list(args.matrix),
            "preset": args.preset,
            "nouns": settings.nouns,
            "adjectives": settings.adjectives,
            "mode": settings.mode,
            "models": list(resolved["models"]),
            "iterations": settings.iterations,
            "top": settings.top_k,
            "filter": bool(args.filter),
            "min_word_diff": min_word_diff,
            "max_word_occurrence": max_word_occurrence,
            "output": args.output,
        },
        settings.seed,
        _matrix_paths(args.matrix),
    )
    return 0


def cmd_score(args) -> int:
    for model in args.model:
        _parse_spec(model, LISTENER)  # a syntax check: each record binds its own role
    tables = _load_matrices(args.matrix)
    lexicon = tables.lexicon
    records = load_responses(args.responses, lexicon)
    reports = [score_responses(tables, model, records) for model in args.model]
    _emit(render_score_reports(reports, fmt=args.format), args.output)
    if args.output:
        _write_manifest(
            args.output,
            "score",
            {
                "matrix": list(args.matrix),
                "responses": args.responses,
                "models": list(args.model),
                "format": args.format,
                "output": args.output,
            },
            None,
            _matrix_paths(args.matrix) + [args.responses],
        )
    return 0


def cmd_compare(args) -> int:
    if args.model and not args.configs:
        raise _UsageError("--model needs --configs")
    tables = _load_matrices(args.matrix)
    lexicon = tables.lexicon
    metrics = sorted(tables)
    sections = []

    corr = [[metric_rank_correlation(tables[a], tables[b]) for b in metrics] for a in metrics]
    sections.append(render_matrix(metrics, corr, fmt=args.format, title="metric rank correlation"))

    if args.configs:
        configs = read_jsonl(
            args.configs, lambda r: configuration_from_record(r, lexicon), "empty record file"
        )
        by_role: dict[str, list] = {}
        for config in configs:
            by_role.setdefault(config.role, []).append(config)
        for role in sorted(by_role):
            role_configs = by_role[role]
            if args.model:
                specs = [_parse_spec(s, role) for s in args.model]
            else:
                specs = [_parse_spec(f"{m}:literal", role) for m in metrics]
            labels = [s.spec_string() for s in specs]
            agreement = [
                [model_agreement(a, b, tables, role_configs) for b in specs] for a in specs
            ]
            for k, name in enumerate(("top-answer agreement", "prediction rank correlation")):
                matrix = [[cell[k] for cell in row] for row in agreement]
                sections.append(
                    render_matrix(labels, matrix, fmt=args.format, title=f"{role} {name}")
                )

    _emit("\n".join(sections), args.output)
    if args.output:
        inputs = _matrix_paths(args.matrix)
        if args.configs:
            inputs.append(args.configs)
        _write_manifest(
            args.output,
            "compare",
            {
                "matrix": list(args.matrix),
                "configs": args.configs,
                "models": list(args.model or []),
                "format": args.format,
                "output": args.output,
            },
            None,
            inputs,
        )
    return 0


def cmd_simulate(args) -> int:
    tables = _load_matrices(args.matrix)
    lexicon = tables.lexicon

    def scenario_of(record):
        # accept bare scenario records and oed candidate records
        if isinstance(record, dict) and "scenario" in record:
            record = record["scenario"]
        return scenario_from_record(record, lexicon)

    scenarios = read_jsonl(args.scenarios, scenario_of, "empty record file")
    speaker_spec = _parse_spec(args.speaker, SPEAKER)
    listener_spec = _parse_spec(args.listener, LISTENER)
    report = simulate_gameplay(tables, scenarios, speaker_spec, listener_spec)
    _emit(render_gameplay(report, lexicon, fmt=args.format), args.output)
    if args.output:
        _write_manifest(
            args.output,
            "simulate",
            {
                "matrix": list(args.matrix),
                "scenarios": args.scenarios,
                "speaker": args.speaker,
                "listener": args.listener,
                "format": args.format,
                "output": args.output,
            },
            None,
            _matrix_paths(args.matrix) + [args.scenarios],
        )
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refgame",
        description="Reference-game toolkit: semantic metrics, RSA agents, design search, scoring.",
    )
    parser.add_argument("--version", action="version", version=f"refgame {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a raw association matrix from a resource file")
    p.add_argument("kind", choices=_INGEST_KINDS)
    p.add_argument("input")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("normalize", help="quantile-normalize a raw matrix")
    p.add_argument("input")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_normalize)

    p = sub.add_parser("predict", help="run one model on one configuration")
    p.add_argument("--matrix", action="append", required=True, metavar="[METRIC=]PATH")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, metavar="METRIC:DEPTH[:ALPHA]")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("oed", help="search for informative scenarios or configurations")
    p.add_argument("--matrix", action="append", required=True, metavar="[METRIC=]PATH")
    p.add_argument("--model", action="append", metavar="METRIC:DEPTH[:ALPHA]")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--nouns", type=int)
    p.add_argument("--adjectives", type=int)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--iterations", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=500)
    p.add_argument("--filter", action="store_true", help="apply the diversity filter")
    p.add_argument(
        "--min-word-diff",
        type=int,
        help="needs --filter: least words, per side, by which a kept candidate differs from"
        " every other kept one (default 2)",
    )
    p.add_argument(
        "--max-word-occurrence",
        type=int,
        help="needs --filter: most kept candidates one word may appear in (default 20)",
    )
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_oed)

    p = sub.add_parser("score", help="score models against response records")
    p.add_argument("--matrix", action="append", required=True, metavar="[METRIC=]PATH")
    p.add_argument("--responses", required=True)
    p.add_argument("--model", action="append", required=True, metavar="METRIC:DEPTH[:ALPHA]")
    p.add_argument("--format", choices=("tsv", "table"), default="tsv")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("compare", help="metric-vs-metric and model-vs-model agreement matrices")
    p.add_argument("--matrix", action="append", required=True, metavar="[METRIC=]PATH")
    p.add_argument("--configs", help="JSONL of configuration records")
    p.add_argument(
        "--model",
        action="append",
        metavar="METRIC:DEPTH[:ALPHA]",
        help="needs --configs: a model to compare on the configurations"
        " (default: each metric's literal model)",
    )
    p.add_argument("--format", choices=("tsv", "table"), default="tsv")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("simulate", help="analytic speaker-listener gameplay over scenarios")
    p.add_argument("--matrix", action="append", required=True, metavar="[METRIC=]PATH")
    p.add_argument("--scenarios", required=True, help="JSONL of scenario or candidate records")
    p.add_argument("--speaker", required=True, metavar="METRIC:DEPTH[:ALPHA]")
    p.add_argument("--listener", required=True, metavar="METRIC:DEPTH[:ALPHA]")
    p.add_argument("--format", choices=("tsv", "table"), default="tsv")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error: no such input: {name}", file=sys.stderr)
        return 2
    except (IsADirectoryError, PermissionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
