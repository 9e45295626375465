"""Choosing language sets by aggregate similarity and script diversity.

Pairwise similarity sums a syntactic, geographic, and genetic cosine with a
type-level lexical Jaccard. The set objective is mean pairwise similarity
plus a signed script-diversity bonus; similar regimes maximize it and
dissimilar regimes minimize it, with diverse regimes rewarding or penalizing
the number of distinct scripts in the set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import read_tidy_csv

EXHAUSTIVE_SEARCH_LIMIT = 2_000_000

FEATURE_COMPONENTS = ("syntactic", "geographic", "genetic")
COMPONENT_COUNT = 4  # three feature cosines plus the lexical Jaccard


class MissingFeatureError(ValueError):
    """Raised when similarity cannot be computed for a language pair."""


@dataclass(frozen=True)
class FeatureVectors:
    """Typological feature vectors for one language; None marks a component
    absent from the source database."""

    lang: str
    syntactic: tuple[float, ...] | None = None
    geographic: tuple[float, ...] | None = None
    genetic: tuple[float, ...] | None = None

    def component(self, name: str) -> tuple[float, ...] | None:
        if name not in FEATURE_COMPONENTS:
            raise ValueError(f"unknown feature component {name!r}")
        return getattr(self, name)


class Regime(str, Enum):
    """The four selection regimes crossing similarity direction with script
    diversity."""

    SIM_SAME = "sim-same"
    SIM_DIV = "sim-div"
    DISSIM_SAME = "dissim-same"
    DISSIM_DIV = "dissim-div"

    @property
    def maximize(self) -> bool:
        return self in (Regime.SIM_SAME, Regime.SIM_DIV)

    @property
    def script_sign(self) -> int:
        if self is Regime.SIM_DIV:
            return 1
        if self is Regime.DISSIM_DIV:
            return -1
        return 0

    @property
    def single_script(self) -> bool:
        return self in (Regime.SIM_SAME, Regime.DISSIM_SAME)


@dataclass(frozen=True)
class SelectionSpec:
    regime: Regime
    set_size: int = 8
    alpha: float = 0.05
    script_map: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.set_size < 2:
            raise ValueError(f"set_size must be >= 2, got {self.set_size}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise ValueError(f"vector dimensions differ: {len(a)} vs {len(b)}")
    if not a:
        raise ValueError("vectors must be non-empty")
    norm_a = math.sqrt(math.fsum(v * v for v in a))
    norm_b = math.sqrt(math.fsum(v * v for v in b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    dot = math.fsum(x * y for x, y in zip(a, b))
    return dot / (norm_a * norm_b)


def word_types(corpus: Iterable[str]) -> frozenset[str]:
    types: set[str] = set()
    for line in corpus:
        types.update(line.split())
    return frozenset(types)


def lexical_similarity(corpus_x: Iterable[str],
                       corpus_y: Iterable[str]) -> float:
    """Jaccard similarity of whitespace word types in two line corpora."""
    types_x = word_types(corpus_x)
    types_y = word_types(corpus_y)
    if not types_x or not types_y:
        raise ValueError("lexical similarity needs non-empty corpora")
    return len(types_x & types_y) / len(types_x | types_y)


def aggregate_similarity(x: str, y: str,
                         features: Mapping[str, FeatureVectors],
                         corpora: Mapping[str, Sequence[str]] | None = None,
                         ) -> float:
    """Sum of the four component similarities for a language pair.

    A component missing for either language is dropped and the remaining
    components are rescaled so the full-information score stays comparable;
    a pair with no shared components is an error. A language compared with
    itself scores the full 4.0 exactly.
    """
    if x == y:
        return float(COMPONENT_COUNT)
    for lang in (x, y):
        if lang not in features:
            raise MissingFeatureError(f"no feature vectors for {lang!r}")
    present: list[float] = []
    for name in FEATURE_COMPONENTS:
        vec_x = features[x].component(name)
        vec_y = features[y].component(name)
        if vec_x is None or vec_y is None:
            continue
        present.append(cosine_similarity(vec_x, vec_y))
    if corpora is not None and x in corpora and y in corpora:
        present.append(lexical_similarity(corpora[x], corpora[y]))
    if not present:
        raise MissingFeatureError(
            f"languages {x!r} and {y!r} share no similarity components")
    return (COMPONENT_COUNT / len(present)) * math.fsum(present)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric pairwise similarities over a fixed language list."""

    langs: tuple[str, ...]
    values: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        if list(self.langs) != sorted(set(self.langs)):
            raise ValueError("langs must be sorted and unique")
        for x, y in itertools.combinations(self.langs, 2):
            if (x, y) not in self.values:
                raise ValueError(f"similarity missing for pair ({x!r}, {y!r})")

    @classmethod
    def build(cls, langs: Iterable[str],
              features: Mapping[str, FeatureVectors],
              corpora: Mapping[str, Sequence[str]] | None = None,
              ) -> "SimilarityMatrix":
        ordered = tuple(sorted(set(langs)))
        values = {
            (x, y): aggregate_similarity(x, y, features, corpora)
            for x, y in itertools.combinations(ordered, 2)
        }
        return cls(ordered, values)

    def get(self, x: str, y: str) -> float:
        if x == y:
            return float(COMPONENT_COUNT)
        key = (x, y) if x < y else (y, x)
        if key not in self.values:
            raise KeyError(f"no similarity for pair {key!r}")
        return self.values[key]

    def to_json_dict(self) -> dict:
        return {
            "langs": list(self.langs),
            "values": {f"{x}|{y}": value
                       for (x, y), value in sorted(self.values.items())},
        }


def set_objective(langs: Sequence[str], spec: SelectionSpec,
                  sims: SimilarityMatrix,
                  scripts: Mapping[str, str] | None = None) -> float:
    """Mean pairwise similarity plus the signed script-diversity term."""
    if len(langs) < 2:
        raise ValueError("objective needs at least two languages")
    if len(set(langs)) != len(langs):
        raise ValueError(f"duplicate languages in set: {sorted(langs)}")
    script_map = spec.script_map if scripts is None else scripts
    pair_sum = math.fsum(sims.get(x, y) for x, y
                         in itertools.combinations(sorted(langs), 2))
    mean = pair_sum / math.comb(len(langs), 2)
    sign = spec.regime.script_sign
    if sign == 0:
        return mean
    distinct = {_script_for(script_map, lang) for lang in langs}
    return mean + sign * spec.alpha * len(distinct)


def _script_for(script_map: Mapping[str, str], lang: str) -> str:
    if lang not in script_map:
        raise ValueError(f"no script recorded for language {lang!r}")
    return script_map[lang]


def select_subset(pool: Sequence[str], spec: SelectionSpec,
                  sims: SimilarityMatrix,
                  scripts: Mapping[str, str] | None = None,
                  ) -> tuple[tuple[str, ...], float]:
    """Pick the language set optimizing the regime objective.

    When the number of candidate sets is at most EXHAUSTIVE_SEARCH_LIMIT the
    search is exhaustive; larger pools fall back to a deterministic greedy
    build followed by best-improving single swaps. Objective ties always go
    to the lexicographically smallest set.
    """
    script_map = spec.script_map if scripts is None else scripts
    ordered = sorted(set(pool))
    if len(ordered) != len(pool):
        raise ValueError("pool contains duplicate languages")
    if len(ordered) < spec.set_size:
        raise ValueError(f"pool of {len(ordered)} languages cannot fill a "
                         f"set of {spec.set_size}")
    if spec.regime.single_script:
        pool_scripts = {_script_for(script_map, lang) for lang in ordered}
        if len(pool_scripts) != 1:
            raise ValueError(
                f"regime {spec.regime.value} requires a single-script pool, "
                f"got scripts {sorted(pool_scripts)}")

    def better(candidate: float, incumbent: float) -> bool:
        if spec.regime.maximize:
            return candidate > incumbent
        return candidate < incumbent

    def objective(langs: Sequence[str]) -> float:
        return set_objective(langs, spec, sims, script_map)

    if math.comb(len(ordered), spec.set_size) <= EXHAUSTIVE_SEARCH_LIMIT:
        best_set = None
        best_obj = None
        for combo in itertools.combinations(ordered, spec.set_size):
            obj = objective(combo)
            if best_obj is None or better(obj, best_obj):
                best_set, best_obj = combo, obj
        return best_set, best_obj

    return _greedy_with_swaps(ordered, spec, objective, better)


_PAIR_START_LIMIT = 2048


def _seed_pairs(ordered, objective, better):
    """Deterministic starting pairs for the greedy build.

    Small pools start once from every pair; larger pools start from each
    language joined with its best partner, keeping the start count linear."""
    if math.comb(len(ordered), 2) <= _PAIR_START_LIMIT:
        return list(itertools.combinations(ordered, 2))
    pairs = []
    for lang in ordered:
        best_partner = None
        best_obj = None
        for other in ordered:
            if other == lang:
                continue
            obj = objective(tuple(sorted((lang, other))))
            if best_obj is None or better(obj, best_obj):
                best_partner, best_obj = other, obj
        pairs.append(tuple(sorted((lang, best_partner))))
    return sorted(set(pairs))


def _climb(start, ordered, spec, objective, better):
    """Greedy completion of one starting pair, then best-improving single
    swaps until no swap improves the objective."""
    current = list(start)
    while len(current) < spec.set_size:
        best_add = None
        best_obj = None
        for lang in ordered:
            if lang in current:
                continue
            candidate = tuple(sorted(current + [lang]))
            obj = objective(candidate)
            if best_obj is None or better(obj, best_obj):
                best_add, best_obj = lang, obj
        current = sorted(current + [best_add])

    current_obj = objective(current)
    improved = True
    while improved:
        improved = False
        best_move = None
        best_obj = current_obj
        for member in current:
            for outsider in ordered:
                if outsider in current:
                    continue
                candidate = tuple(sorted([l for l in current if l != member]
                                         + [outsider]))
                obj = objective(candidate)
                if better(obj, best_obj) or (
                        obj == best_obj and best_move is not None
                        and candidate < best_move):
                    best_move, best_obj = candidate, obj
        if best_move is not None and better(best_obj, current_obj):
            current = list(best_move)
            current_obj = best_obj
            improved = True
    return tuple(current), current_obj


def _greedy_with_swaps(ordered, spec, objective, better):
    best_set = None
    best_obj = None
    for start in _seed_pairs(ordered, objective, better):
        candidate, obj = _climb(start, ordered, spec, objective, better)
        if best_obj is None or better(obj, best_obj) or (
                obj == best_obj and candidate < best_set):
            best_set, best_obj = candidate, obj
    return best_set, best_obj


# --- Feature and script files ------------------------------------------------


def load_feature_csv(path: str | Path) -> dict[str, FeatureVectors]:
    """Read feature vectors from CSV with columns lang, component, values
    (space-separated floats); one row per language and component."""
    collected: dict[str, dict[str, tuple[float, ...]]] = {}
    for row in read_tidy_csv(path, ("lang", "component", "values")):
        lang = row["lang"].strip()
        component = row["component"].strip()
        if component not in FEATURE_COMPONENTS:
            raise ValueError(f"{path}: unknown component {component!r}")
        vector = tuple(float(v) for v in row["values"].split())
        if not vector:
            raise ValueError(f"{path}: empty vector for {lang}")
        per_lang = collected.setdefault(lang, {})
        if component in per_lang:
            raise ValueError(f"{path}: duplicate {component} row for {lang}")
        per_lang[component] = vector
    return {
        lang: FeatureVectors(lang=lang, **vectors)
        for lang, vectors in sorted(collected.items())
    }


def load_script_map(path: str | Path) -> dict[str, str]:
    """Read a lang,script CSV into a mapping."""
    scripts: dict[str, str] = {}
    for row in read_tidy_csv(path, ("lang", "script")):
        lang = row["lang"].strip()
        if lang in scripts:
            raise ValueError(f"{path}: duplicate language {lang}")
        scripts[lang] = row["script"].strip()
    return scripts
