"""Command-line front end.

Subcommands: ingest, normalize, predict, oed, score, compare, simulate.
Every file-writing command also writes a <output>.manifest.json recording
the command, its parsed flags after preset resolution (the seed apart),
and sha256 digests of its inputs, so any output can be reproduced
exactly. Exit codes: 0 success, 1 domain error in the data, 2 usage or
I/O error.
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

# Flags that name an input file; with the --matrix paths they are the
# inputs a manifest records.
_INPUT_FLAGS = ("input", "lexicon", "config", "responses", "configs", "scenarios")


class _UsageError(Exception):
    """Bad flag values detected after argparse: exit code 2."""


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(args) -> None:
    """Write the reproducibility sidecar <output>.manifest.json. Its
    settings are the parsed flags after preset resolution, the seed apart."""
    settings = {k: v for k, v in vars(args).items() if k not in ("command", "handler", "seed")}
    inputs = [_matrix_entry(entry)[1] for entry in settings.get("matrix", ())]
    inputs += [settings[flag] for flag in _INPUT_FLAGS if settings.get(flag) is not None]
    manifest = {
        "command": args.command,
        "settings": settings,
        "seed": getattr(args, "seed", None),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "version": __version__,
    }
    Path(str(args.output) + ".manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def _finish(args, text: str) -> int:
    """Write a command's report to stdout, or with --output to that file
    and its manifest."""
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
        _write_manifest(args)
    return 0


def _parse_spec(text: str, role: str):
    # Bad model strings are usage errors (exit 2), not data errors.
    try:
        return parse_model_spec(text, role)
    except DataError as exc:
        raise _UsageError(str(exc)) from None


def _matrix_entry(entry: str) -> tuple[str | None, str]:
    """The (metric label or None, path) of a --matrix flag, "metric=path"
    or a bare path."""
    label, eq, path = entry.partition("=")
    return (label.strip(), path) if eq else (None, entry)


def _load_matrices(entries) -> Tables:
    """Load --matrix flags into a metric map."""
    tables = {}
    for entry in entries:
        label, path = _matrix_entry(entry)
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
    _write_manifest(args)
    return 0


def cmd_normalize(args) -> int:
    assoc = load_association(args.input)
    save_normalized(quantile_normalize(assoc), args.output)
    _write_manifest(args)
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
    return _finish(args, "\n".join(lines) + "\n")


def _resolve_oed_settings(args) -> None:
    """Fill the scenario shape, mode and models a flag leaves unset from
    the preset, and the filter bounds from their defaults, into args."""
    preset = PRESETS.get(args.preset, {})
    for key in ("nouns", "adjectives", "mode", "models"):
        if getattr(args, key) is None:
            setattr(args, key, preset.get(key))
        if getattr(args, key) is None:
            raise _UsageError(f"--{key if key != 'models' else 'model'} required without a preset")
    args.models = list(args.models)
    if args.min_word_diff is None:
        args.min_word_diff = 2
    if args.max_word_occurrence is None:
        args.max_word_occurrence = 20


def cmd_oed(args) -> int:
    # Bad flag values are usage errors, found before any matrix is read.
    for flag, value in (
        ("--min-word-diff", args.min_word_diff),
        ("--max-word-occurrence", args.max_word_occurrence),
    ):
        if value is not None and not args.filter:
            raise _UsageError(f"{flag} needs --filter")
    _resolve_oed_settings(args)
    try:
        settings = SearchSettings(
            nouns=args.nouns,
            adjectives=args.adjectives,
            mode=args.mode,
            iterations=args.iterations,
            seed=args.seed,
            top_k=args.top,
        )
        check_filter_bounds(args.min_word_diff, args.max_word_occurrence)
    except DataError as exc:
        raise _UsageError(str(exc)) from None
    tables = _load_matrices(args.matrix)
    lexicon = tables.lexicon
    if settings.role is None:
        models = (
            ModelSet(tuple(_parse_spec(s, SPEAKER) for s in args.models)),
            ModelSet(tuple(_parse_spec(s, LISTENER) for s in args.models)),
        )
    else:
        models = ModelSet(tuple(_parse_spec(s, settings.role) for s in args.models))
    candidates = monte_carlo_search(tables, models, settings)
    if args.filter:
        candidates = filter_candidates(
            candidates,
            min_word_difference=args.min_word_diff,
            max_word_occurrence=args.max_word_occurrence,
        )
    lines = [json.dumps(candidate_to_record(c, lexicon), sort_keys=True) for c in candidates]
    return _finish(args, "\n".join(lines) + ("\n" if lines else ""))


def cmd_score(args) -> int:
    for model in args.models:
        _parse_spec(model, LISTENER)  # a syntax check: each record binds its own role
    tables = _load_matrices(args.matrix)
    lexicon = tables.lexicon
    records = load_responses(args.responses, lexicon)
    reports = [score_responses(tables, model, records) for model in args.models]
    return _finish(args, render_score_reports(reports, fmt=args.format))


def cmd_compare(args) -> int:
    if args.models and not args.configs:
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
            if args.models:
                specs = [_parse_spec(s, role) for s in args.models]
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

    return _finish(args, "\n".join(sections))


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
    return _finish(args, render_gameplay(report, lexicon, fmt=args.format))


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
    p.add_argument("--model", action="append", dest="models", metavar="METRIC:DEPTH[:ALPHA]")
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
    p.add_argument(
        "--model", action="append", dest="models", required=True, metavar="METRIC:DEPTH[:ALPHA]"
    )
    p.add_argument("--format", choices=("tsv", "table"), default="tsv")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("compare", help="metric-vs-metric and model-vs-model agreement matrices")
    p.add_argument("--matrix", action="append", required=True, metavar="[METRIC=]PATH")
    p.add_argument("--configs", help="JSONL of configuration records")
    p.add_argument(
        "--model",
        action="append",
        dest="models",
        default=[],
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
