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
from .errors import DataError, prefix_errors, read_text
from .evaluation import (
    _render,
    agreement_measure,
    load_responses,
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
    MAX_WORD_OCCURRENCE,
    MIN_WORD_DIFFERENCE,
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
    "exp2-speaker": {"nouns": 3, "adjectives": 4, "mode": "separate-speaker", "models": _LITERAL_ALL},
    "exp2-listener": {"nouns": 3, "adjectives": 4, "mode": "separate-listener", "models": _LITERAL_ALL},
    # every literal model but topic distance
    "exp3": {"nouns": 3, "adjectives": 3, "mode": "joint", "models": _LITERAL_ALL[:3]},
    "exp4": {"nouns": 3, "adjectives": 3, "mode": "joint", "models": ("bigram:literal", "bigram:pragmatic:1.0")},
}

# Each ingest kind's raw association, from its resource file and the lexicon.
_INGEST = {
    "counts": lambda path, lexicon: bigram_association(load_counts(path, lexicon)),
    "embeddings": lambda path, lexicon: cosine_association(load_embeddings(path, lexicon)),
    "relatedness": lambda path, lexicon: relatedness_association(load_relatedness(path, lexicon)),
    "topics": lambda path, lexicon: topic_association(load_topics(path, lexicon)),
}

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
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _finish(args, text: str) -> int:
    """Write a command's report to stdout, or with --output to that file
    and its manifest."""
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
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
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON ({exc})") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_ingest(args) -> int:
    save_association(_INGEST[args.kind](args.input, load_lexicon(args.lexicon)), args.output)
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
    record = _load_json(args.config)
    with prefix_errors(args.config):
        config = configuration_from_record(record, lexicon)
    spec = _parse_spec(args.model, config.role)
    dist = predict(tables[spec.metric], config, spec)
    if config.role == LISTENER:
        names = [",".join(pair_words(config.scenario, pair, lexicon)) for pair in dist.support]
    else:
        names = [clue_word(config.scenario, clue, lexicon) for clue in dist.support]
    return _finish(args, _render(("answer", "probability"), zip(names, dist.probs), "tsv"))


def _resolve_oed_settings(args) -> None:
    """Fill the scenario shape, mode and models a flag leaves unset from
    the preset, and the filter bounds from their defaults, into args."""
    filter_bounds = {"min_word_diff": MIN_WORD_DIFFERENCE, "max_word_occurrence": MAX_WORD_OCCURRENCE}
    preset = {**filter_bounds, **PRESETS.get(args.preset, {})}
    for key in ("nouns", "adjectives", "mode", "models", *filter_bounds):
        if getattr(args, key) is None:
            setattr(args, key, preset.get(key))
        if getattr(args, key) is None:
            raise _UsageError(f"--{key if key != 'models' else 'model'} required without a preset")
    args.models = list(args.models)


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

    def model_set(role):
        return ModelSet(tuple(_parse_spec(s, role) for s in args.models))

    models = (model_set(SPEAKER), model_set(LISTENER)) if settings.role is None else model_set(settings.role)
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


def _symmetric(items, measure) -> list[list]:
    """The square matrix of measure(a, b) over items, for a measure that
    is symmetric: each unordered pair, the diagonal included, is measured
    once, in row-major order over i <= j, and mirrored."""
    matrix = [[None] * len(items) for _ in items]
    for i, a in enumerate(items):
        for j in range(i, len(items)):
            matrix[i][j] = matrix[j][i] = measure(a, items[j])
    return matrix


def cmd_compare(args) -> int:
    if args.models and not args.configs:
        raise _UsageError("--model needs --configs")
    tables = _load_matrices(args.matrix)
    lexicon = tables.lexicon
    metrics = sorted(tables)
    sections = []

    corr = _symmetric(metrics, lambda a, b: metric_rank_correlation(tables[a], tables[b]))
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
            specs = [_parse_spec(s, role) for s in args.models or [f"{m}:literal" for m in metrics]]
            labels = [s.spec_string() for s in specs]
            measure = agreement_measure(specs, tables, role_configs)
            agreement = _symmetric(range(len(specs)), measure)
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
    model_spec = "METRIC:DEPTH[:ALPHA]"
    commands = {}

    def command(name, handler, summary, matrix=True):
        p = commands[name] = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if matrix:
            p.add_argument("--matrix", action="append", required=True, metavar="[METRIC=]PATH")
        return p

    p = command("ingest", cmd_ingest, "build a raw association matrix from a resource file", matrix=False)
    p.add_argument("kind", choices=_INGEST)
    p.add_argument("input")
    p.add_argument("--lexicon", required=True)

    p = command("normalize", cmd_normalize, "quantile-normalize a raw matrix", matrix=False)
    p.add_argument("input")

    p = command("predict", cmd_predict, "run one model on one configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, metavar=model_spec)

    p = command("oed", cmd_oed, "search for informative scenarios or configurations")
    p.add_argument("--model", action="append", dest="models", metavar=model_spec)
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
        help="needs --filter: least words by which a kept candidate differs from every other"
        " kept one, the larger of the two boards' counts of words the other lacks"
        f" (default {MIN_WORD_DIFFERENCE})",
    )
    p.add_argument(
        "--max-word-occurrence",
        type=int,
        help="needs --filter: most kept candidates one word may appear in"
        f" (default {MAX_WORD_OCCURRENCE})",
    )

    p = command("score", cmd_score, "score models against response records")
    p.add_argument("--responses", required=True)
    p.add_argument("--model", action="append", dest="models", required=True, metavar=model_spec)

    p = command("compare", cmd_compare, "metric-vs-metric and model-vs-model agreement matrices")
    p.add_argument("--configs", help="JSONL of configuration records")
    p.add_argument(
        "--model",
        action="append",
        dest="models",
        default=[],
        metavar=model_spec,
        help="needs --configs: a model to compare on the configurations"
        " (default: each metric's literal model)",
    )

    p = command("simulate", cmd_simulate, "analytic speaker-listener gameplay over scenarios")
    p.add_argument("--scenarios", required=True, help="JSONL of scenario or candidate records")
    p.add_argument("--speaker", required=True, metavar=model_spec)
    p.add_argument("--listener", required=True, metavar=model_spec)

    # after each command's own flags: a report's --format, then --output
    for name, p in commands.items():
        if name in ("score", "compare", "simulate"):
            p.add_argument("--format", choices=("tsv", "table"), default="tsv")
        p.add_argument("--output", required=name in ("ingest", "normalize", "oed"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # An unwritable output fails now, before the command reads or computes anything.
    output = None if args.output is None else Path(args.output)
    if output is not None and (output.is_dir() or not output.parent.is_dir()):
        reason = "it is a directory" if output.is_dir() else f"no directory {output.parent}"
        print(f"error: cannot write output {args.output}: {reason}", file=sys.stderr)
        return 2
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
