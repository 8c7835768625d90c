"""Acceptance suite: one test per shipping criterion.

Each test is self-contained (own seeds, own oracles) and prints one
PASS/FAIL line through the conftest terminal-summary hook.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

import refgame
from refgame import (
    AssociationMatrix,
    Configuration,
    DesignCandidate,
    ModelSet,
    ModelSpec,
    NormalizedAssociation,
    Scenario,
    SearchSettings,
    filter_candidates,
    listener_probs,
    model_information_bits,
    monte_carlo_search,
    parse_model_spec,
    predict,
    quantile_normalize,
    response_probability,
    simulate_gameplay,
    spearman,
    speaker_probs,
)

from conftest import make_lexicon

GOLDEN = Path(__file__).parent / "data" / "golden"


def pipeline_table(rng, n_nouns, n_adjs, metric="bigram", mask_frac=0.0):
    lexicon = make_lexicon(n_nouns, n_adjs)
    raw = rng.normal(size=(n_nouns, n_adjs))
    mask = rng.random(size=raw.shape) < mask_frac
    return quantile_normalize(AssociationMatrix(metric, lexicon, raw, mask))


def flat_table(n_nouns, n_adjs, metric="bigram"):
    lexicon = make_lexicon(n_nouns, n_adjs)
    return quantile_normalize(AssociationMatrix(metric, lexicon, np.ones((n_nouns, n_adjs))))


def random_configuration(rng, n_nouns, n_adjs):
    k = int(rng.integers(2, min(n_nouns, 4) + 1))
    m = int(rng.integers(1, min(n_adjs, 3) + 1))
    nouns = tuple(sorted(rng.choice(n_nouns, size=k, replace=False).tolist()))
    adjs = tuple(sorted(rng.choice(n_adjs, size=m, replace=False).tolist()))
    scenario = Scenario(nouns, adjs)
    if rng.random() < 0.5:
        return Configuration(scenario, "listener", int(rng.integers(m)))
    pair = scenario.pairs[int(rng.integers(len(scenario.pairs)))]
    return Configuration(scenario, "speaker", pair)


def random_spec(rng, role, metric="bigram"):
    if rng.random() < 0.25:
        return ModelSpec(metric, role, "literal")
    alpha = float(rng.choice([0.1, 1.0, 5.0]))
    return ModelSpec(metric, role, "pragmatic", alpha)


def test_criterion_01_rsa_sanity():
    """1000+ randomized agent runs: normalized, non-negative, scale-invariant."""
    rng = np.random.default_rng(101)
    started = time.monotonic()
    for case in range(1000):
        n_nouns = int(rng.integers(4, 9))
        n_adjs = int(rng.integers(4, 9))
        masked = case % 2 == 0
        norm = pipeline_table(rng, n_nouns, n_adjs, mask_frac=0.3 if masked else 0.0)
        config = random_configuration(rng, n_nouns, n_adjs)
        spec = random_spec(rng, config.role)
        dist = predict(norm, config, spec)
        assert (dist.probs >= 0).all()
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-9
        if not masked:
            # global positive rescaling must not move the argmax set
            scale = float(rng.choice([0.25, 0.5, 0.75]))
            scaled = NormalizedAssociation(
                norm.metric, norm.lexicon, norm.values * scale, norm.zero_mask
            )
            scaled_dist = predict(scaled, config, spec)
            assert set(dist.argmax_answers()) == set(scaled_dist.argmax_answers())
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"sanity sweep took {elapsed:.1f}s"


def test_criterion_02_pragmatic_chain_oracle():
    """Worked 2x2 example matches the hand-derived rational chain."""
    scores = np.array([[0.9, 0.5], [0.1, 0.5]])
    listener = listener_probs(scores, clue=0, alpha=1.0)
    # exact chain: L0 = (9/10, 1/10); S1 rows; L1 = (27/34, 7/34)
    assert abs(listener[0] - float(Fraction(27, 34))) <= 1e-6
    assert abs(listener[1] - float(Fraction(7, 34))) <= 1e-6
    assert listener[0] == pytest.approx(0.79412, abs=1e-5)
    assert listener[1] == pytest.approx(0.20588, abs=1e-5)

    speaker = speaker_probs(scores, target=0, alpha=1.0)
    # mirrored chain: S0 row-normalized, L1 columns, S1 = (45/62, 17/62)
    assert abs(speaker[0] - float(Fraction(45, 62))) <= 1e-6
    assert abs(speaker[1] - float(Fraction(17, 62))) <= 1e-6


def test_criterion_03_chance_constants():
    """Uniform agents land exactly on the published chance baselines."""
    checks = [
        # (k, m, role, chance)
        (5, 8, "listener", Fraction(1, 10)),   # 10 pairs
        (5, 8, "speaker", Fraction(1, 8)),     # 8 adjectives
        (3, 4, "speaker", Fraction(1, 4)),     # 4 adjectives
        (3, 3, "listener", Fraction(1, 3)),    # 3 options
        (3, 3, "speaker", Fraction(1, 3)),
    ]
    for k, m, role, chance in checks:
        norm = flat_table(8, 8)
        scenario = Scenario(tuple(range(k)), tuple(range(m)))
        index = (0, 1) if role == "speaker" else 0
        config = Configuration(scenario, role, index)
        for spec_text in (f"bigram:literal", f"bigram:pragmatic:1.0"):
            dist = predict(norm, config, parse_model_spec(spec_text, role))
            for prob in dist.probs:
                assert abs(float(prob) - float(chance)) <= 1e-12

    # a uniform listener pins gameplay success at chance, whatever the speaker
    tables = {
        "bigram": pipeline_table(np.random.default_rng(20240820), 8, 8),
        "embedding-cosine": flat_table(8, 8, metric="embedding-cosine"),
    }
    for k, expected in ((5, Fraction(1, 10)), (3, Fraction(1, 3))):
        scenario = Scenario(tuple(range(k)), (0, 1))
        report = simulate_gameplay(tables, [scenario], "bigram:literal", "embedding-cosine:literal")
        for value in report.successes[0]:
            assert abs(value - float(expected)) <= 1e-12

    # uniform-vs-uniform gameplay over 3-pair scenarios
    norm = flat_table(6, 6)
    scenarios = [Scenario((0, 1, 2), (0, 1, 2)), Scenario((3, 4, 5), (3, 4, 5))]
    report = simulate_gameplay(norm, scenarios, "bigram:literal", "bigram:literal")
    assert abs(report.mean - 1 / 3) <= 1e-12


def test_criterion_04_search_matches_enumeration():
    """Seeded search reproduces the brute-force top-20 on a 6x6 space."""
    started = time.monotonic()
    rng = np.random.default_rng(20240819)
    tables = {
        "bigram": pipeline_table(rng, 6, 6, metric="bigram"),
        "embedding-cosine": pipeline_table(rng, 6, 6, metric="embedding-cosine"),
    }
    models = ModelSet((
        parse_model_spec("bigram:pragmatic:1.0", "listener"),
        parse_model_spec("embedding-cosine:pragmatic:1.0", "listener"),
    ))
    space = math.comb(6, 3) * math.comb(6, 3) * 3
    settings = SearchSettings(nouns=3, adjectives=3, mode="separate-listener",
                              iterations=20 * space, seed=13, top_k=20)
    found = monte_carlo_search(tables, models, settings)

    exact = []
    for nouns in combinations(range(6), 3):
        for adjs in combinations(range(6), 3):
            scenario = Scenario(nouns, adjs)
            for clue in range(3):
                config = Configuration(scenario, "listener", clue)
                utility = model_information_bits(response_probability(tables, config, models))
                exact.append((nouns, adjs, clue, utility))
    exact.sort(key=lambda r: -r[3])

    assert exact[19][3] - exact[20][3] > 1e-9  # distinct top-20 boundary
    assert len(found) == 20
    for candidate, (nouns, adjs, clue, utility) in zip(found, exact[:20]):
        assert candidate.scenario.nouns == nouns
        assert candidate.scenario.adjectives == adjs
        assert candidate.index == clue
        assert abs(candidate.utility - utility) <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"enumeration check took {elapsed:.1f}s"


def test_criterion_05_information_bounds():
    """Every scored candidate obeys 0 <= U <= log2|M|; the disjoint
    deterministic pair is exactly one bit."""
    rng = np.random.default_rng(505)
    tables = {
        "bigram": pipeline_table(rng, 6, 6, metric="bigram"),
        "embedding-cosine": pipeline_table(rng, 6, 6, metric="embedding-cosine"),
        "graph-relatedness": pipeline_table(rng, 6, 6, metric="graph-relatedness"),
    }
    two_listener = ModelSet((
        parse_model_spec("bigram:pragmatic:1.0", "listener"),
        parse_model_spec("embedding-cosine:literal", "listener"),
    ))
    two_speaker = ModelSet((
        parse_model_spec("bigram:literal", "speaker"),
        parse_model_spec("embedding-cosine:pragmatic:5.0", "speaker"),
    ))
    three_listener = ModelSet((
        parse_model_spec("bigram:literal", "listener"),
        parse_model_spec("embedding-cosine:literal", "listener"),
        parse_model_spec("graph-relatedness:pragmatic:1.0", "listener"),
    ))
    scored = []
    for models, mode in ((two_listener, "separate-listener"),
                         (two_speaker, "separate-speaker"),
                         (three_listener, "separate-listener")):
        settings = SearchSettings(3, 3, mode, iterations=2000, seed=2, top_k=300)
        scored.append((len(models), monte_carlo_search(tables, models, settings)))
    joint = (two_speaker, two_listener)
    settings = SearchSettings(3, 3, "joint", iterations=2000, seed=2, top_k=300)
    scored.append((2, monte_carlo_search(tables, joint, settings)))

    total = 0
    for n_models, candidates in scored:
        bound = math.log2(n_models) + 1e-12
        for candidate in candidates:
            assert 0.0 <= candidate.utility <= bound
            total += 1
    assert total >= 600

    assert model_information_bits(np.eye(2)) == 1.0


def test_criterion_06_quantile_normalization():
    """100 random matrices: rank-preserving, uniform grid, transform
    invariant, masked floor exactly 1e-7."""
    rng = np.random.default_rng(606)
    for case in range(100):
        n_nouns = int(rng.integers(2, 8))
        n_adjs = int(rng.integers(2, 8))
        lexicon = make_lexicon(n_nouns, n_adjs)
        raw = rng.normal(size=(n_nouns, n_adjs))
        masked = case % 2 == 1
        mask = (rng.random(size=raw.shape) < 0.25) if masked else np.zeros_like(raw, dtype=bool)
        norm = quantile_normalize(AssociationMatrix("bigram", lexicon, raw, mask))

        flat_raw = raw.ravel()
        flat_val = norm.values.ravel()
        flat_mask = mask.ravel()
        order = np.argsort(flat_raw, kind="stable")
        kept = order[~flat_mask[order]]
        assert (np.diff(flat_val[kept]) >= 0).all()  # rank-preserving on unmasked

        if not masked:
            m_cells = raw.size
            expected = np.arange(1, m_cells + 1) / m_cells
            assert np.array_equal(np.sort(flat_val), expected)  # exact uniform grid

        for transform in (np.exp, np.arctan, lambda x: 3 * x + 10):
            again = quantile_normalize(
                AssociationMatrix("bigram", lexicon, transform(raw), mask)
            )
            assert np.array_equal(again.values, norm.values)

        if mask.any():
            assert (norm.values[mask] == 1e-7).all()


def test_criterion_07_spearman_exact_oracle():
    """rank correlation matches exact rational Spearman everywhere."""

    def exact(x, y):
        def ranks(values):
            out = []
            for v in values:
                greater = sum(1 for w in values if w > v)
                equal = sum(1 for w in values if w == v)
                out.append(Fraction(2 * greater + equal + 1, 2))
            return out

        rx, ry = ranks(x), ranks(y)
        n = len(rx)
        mx = sum(rx, Fraction(0)) / n
        my = sum(ry, Fraction(0)) / n
        cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
        vx = sum((a - mx) ** 2 for a in rx)
        vy = sum((b - my) ** 2 for b in ry)
        if vx == 0 or vy == 0:
            return 0.0
        return float(cov) / math.sqrt(float(vx) * float(vy))

    for n in range(2, 6):
        for px in permutations(range(n)):
            for py in permutations(range(n)):
                x = np.array(px, dtype=float)
                y = np.array(py, dtype=float)
                assert abs(spearman(x, y) - exact(px, py)) <= 1e-12

    rng = np.random.default_rng(707)
    for _ in range(500):
        n = int(rng.integers(2, 8))
        x = rng.integers(0, 4, size=n).astype(float)
        y = rng.integers(0, 4, size=n).astype(float)
        assert abs(spearman(x, y) - exact(x.tolist(), y.tolist())) <= 1e-12


def test_criterion_08_filter_properties():
    """Filtered lists obey the word-difference and occurrence rules and
    form a utility-descending greedy subsequence."""
    rng = np.random.default_rng(808)

    def words(candidate):
        return frozenset(
            [("n", n) for n in candidate.scenario.nouns]
            + [("a", a) for a in candidate.scenario.adjectives]
        )

    for trial in range(60):
        pool_nouns = int(rng.integers(5, 9))
        pool_adjs = int(rng.integers(5, 9))
        candidates = []
        utility = 10.0
        for _ in range(int(rng.integers(30, 80))):
            k = int(rng.integers(2, 4))
            m = int(rng.integers(1, 4))
            nouns = tuple(rng.choice(pool_nouns, size=k, replace=False).tolist())
            adjs = tuple(rng.choice(pool_adjs, size=m, replace=False).tolist())
            candidates.append(DesignCandidate(Scenario(nouns, adjs), None, None, utility))
            utility -= float(rng.random()) * 0.05
        kept = filter_candidates(candidates)  # defaults: min diff 2, cap 20

        kept_words = [words(c) for c in kept]
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                wi, wj = kept_words[i], kept_words[j]
                assert max(len(wi - wj), len(wj - wi)) >= 2
        occurrences = {}
        for ws in kept_words:
            for w in ws:
                occurrences[w] = occurrences.get(w, 0) + 1
        assert all(v <= 20 for v in occurrences.values())

        # greedy descending subsequence: rebuild the scan and require that
        # each dropped candidate violates a rule against the kept prefix
        position = 0
        prefix = []
        prefix_occ = {}
        for candidate in candidates:
            ws = words(candidate)
            if position < len(kept) and candidate is kept[position]:
                prefix.append(ws)
                for w in ws:
                    prefix_occ[w] = prefix_occ.get(w, 0) + 1
                position += 1
            else:
                too_close = any(
                    max(len(ws - other), len(other - ws)) < 2 for other in prefix
                )
                over_cap = any(prefix_occ.get(w, 0) >= 20 for w in ws)
                assert too_close or over_cap
        assert position == len(kept)


def test_criterion_09_pragmatic_divergence():
    """Joint design search concentrates on scenarios where literal and
    pragmatic bigram agents pick different top answers."""
    started = time.monotonic()
    rng = np.random.default_rng(0)
    lexicon = make_lexicon(8, 8)
    norm = quantile_normalize(AssociationMatrix("bigram", lexicon, rng.normal(size=(8, 8))))
    tables = {"bigram": norm}
    literal = {role: parse_model_spec("bigram:literal", role) for role in ("speaker", "listener")}
    pragmatic = {
        role: parse_model_spec("bigram:pragmatic:1.0", role) for role in ("speaker", "listener")
    }

    def top_sets_disjoint(config):
        a = set(predict(norm, config, literal[config.role]).argmax_answers())
        b = set(predict(norm, config, pragmatic[config.role]).argmax_answers())
        return not (a & b)

    # the matrix must actually exhibit the renormalization flip
    flip_found = False
    for nouns in combinations(range(8), 3):
        scenario = Scenario(nouns, (0, 1, 2))
        if any(top_sets_disjoint(Configuration(scenario, "listener", c)) for c in range(3)):
            flip_found = True
            break
    assert flip_found

    speaker_set = ModelSet((literal["speaker"], pragmatic["speaker"]))
    listener_set = ModelSet((literal["listener"], pragmatic["listener"]))
    settings = SearchSettings(nouns=3, adjectives=3, mode="joint",
                              iterations=8000, seed=0, top_k=20)
    found = monte_carlo_search(tables, (speaker_set, listener_set), settings)
    assert len(found) == 20

    diverging = 0
    for candidate in found:
        scenario = candidate.scenario
        configs = [Configuration(scenario, "speaker", pair) for pair in scenario.pairs]
        configs += [Configuration(scenario, "listener", a) for a in range(scenario.m)]
        if any(top_sets_disjoint(config) for config in configs):
            diverging += 1
    assert diverging >= 18, f"only {diverging}/20 top scenarios diverge"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"divergence check took {elapsed:.1f}s"


# the directory holding the refgame package this interpreter imported:
# ``src/`` in a checkout, site-packages after an install
PACKAGE_ROOT = Path(refgame.__file__).resolve().parents[1]


def _run_cli(argv, cwd):
    """Run ``python -m refgame ARGV`` in ``cwd`` with this interpreter and
    this refgame package, whatever ``cwd`` is and whether PYTHONPATH held a
    relative entry."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "refgame", *argv], cwd=cwd, env=env,
        capture_output=True, text=True,
    )


def test_criterion_10_end_to_end_determinism(tmp_path):
    """Presets re-run byte-identically; the golden pipeline still matches
    its stored outputs."""
    # build all four normalized matrices from the golden inputs
    work = tmp_path / "presets"
    work.mkdir()
    for name in ("lexicon.txt", "counts.tsv", "embeddings.txt", "relatedness.tsv", "topics.txt"):
        shutil.copy(GOLDEN / "inputs" / name, work)
    kinds = (
        ("counts", "counts.tsv", "bigram"),
        ("embeddings", "embeddings.txt", "embedding-cosine"),
        ("relatedness", "relatedness.tsv", "graph-relatedness"),
        ("topics", "topics.txt", "topic-distance"),
    )
    matrices = []
    for kind, source, metric in kinds:
        raw = f"raw_{metric}.tsv"
        norm = f"norm_{metric}.tsv"
        for step in (["ingest", kind, source, "--lexicon", "lexicon.txt", "--output", raw],
                     ["normalize", raw, "--output", norm]):
            result = _run_cli(step, work)
            assert result.returncode == 0, (step, result.stderr)
        matrices.extend(["--matrix", norm])

    for preset in ("exp1", "exp2-speaker", "exp2-listener", "exp3", "exp4"):
        output = f"cands_{preset}.jsonl"
        argv = ["oed", *matrices, "--preset", preset,
                "--iterations", "600", "--seed", "3", "--top", "25",
                "--output", output]
        result = _run_cli(argv, work)
        assert result.returncode == 0, (argv, result.stderr)
        first_cands = (work / output).read_bytes()
        first_manifest = (work / (output + ".manifest.json")).read_bytes()
        result = _run_cli(argv, work)
        assert result.returncode == 0, (argv, result.stderr)
        assert (work / output).read_bytes() == first_cands, preset
        assert (work / (output + ".manifest.json")).read_bytes() == first_manifest, preset

    # replay the stored pipeline and compare byte-for-byte
    replay = tmp_path / "replay"
    replay.mkdir()
    for f in (GOLDEN / "inputs").iterdir():
        shutil.copy(f, replay)
    steps = [
        ["ingest", "counts", "counts.tsv", "--lexicon", "lexicon.txt", "--output", "raw_bigram.tsv"],
        ["normalize", "raw_bigram.tsv", "--output", "norm_bigram.tsv"],
        ["oed", "--matrix", "norm_bigram.tsv", "--preset", "exp4",
         "--iterations", "4000", "--seed", "7", "--top", "25", "--filter",
         "--output", "candidates.jsonl"],
        ["simulate", "--matrix", "norm_bigram.tsv", "--scenarios", "candidates.jsonl",
         "--speaker", "bigram:pragmatic:1.0", "--listener", "bigram:literal",
         "--output", "simulation.tsv"],
    ]
    for step in steps:
        result = _run_cli(step, replay)
        assert result.returncode == 0, (step, result.stderr)
    outputs = ["raw_bigram.tsv", "norm_bigram.tsv", "candidates.jsonl", "simulation.tsv"]
    outputs += [name + ".manifest.json" for name in outputs]
    for name in outputs:
        assert (replay / name).read_bytes() == (GOLDEN / "expected" / name).read_bytes(), name

    # the filtered candidate list is fit for purpose: utilities descend
    records = [json.loads(line) for line in (replay / "candidates.jsonl").read_text().strip().split("\n")]
    utilities = [r["utility"] for r in records]
    assert utilities == sorted(utilities, reverse=True)
