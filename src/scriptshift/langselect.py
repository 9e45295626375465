"""Choosing language sets by aggregate similarity and script diversity.

Pairwise similarity sums a syntactic, geographic, and genetic cosine with a
type-level lexical Jaccard. The set objective is mean pairwise similarity
plus a signed script-diversity bonus; similar regimes maximize it and
dissimilar regimes minimize it, with diverse regimes rewarding or penalizing
the number of distinct scripts in the set.

Subset search scores candidates exactly as `set_objective` does, without
calling it. Every finite float is n / 2**e, so `select_subset` writes each
pair value of the pool as an integer over one common power-of-two scale.
A candidate's pair sum is then an exact integer, and dividing it by the
scale with int true division rounds correctly once: the same float that
`math.fsum` returns for those values (it differs only where `fsum` raises
on an intermediate overflow, far outside any similarity score). The mean
and the script term follow with `set_objective`'s float operations, and
candidates are compared by that float, so a float tie goes to the
lexicographically smallest set even where the exact sums differ.

Neither search scores a candidate that cannot change its answer. The
exhaustive search is a branch and bound: it skips a prefix once an integer
bound on the pair sum of every completion, with the most scripts the set
could hold, gives no higher a score than the best set found so far, which
a later set must beat strictly. The greedy search memoizes its climbs: a
climb is a function of the set it stands on, so a start that reaches a set
an earlier climb passed through ends where that climb ended.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import number_cell, read_tidy_csv

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
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    _check_dimensions(a, b)
    return _cosine(a, b, _norm(a), _norm(b))


def _check_dimensions(a: Sequence[float], b: Sequence[float]) -> None:
    if len(a) != len(b):
        raise ValueError(f"vector dimensions differ: {len(a)} vs {len(b)}")
    if not a:
        raise ValueError("vectors must be non-empty")


def _norm(vector: Sequence[float]) -> float:
    return math.sqrt(math.fsum(map(operator.mul, vector, vector)))


def _cosine(a: Sequence[float], b: Sequence[float], norm_a: float,
            norm_b: float) -> float:
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    dot = math.fsum(map(operator.mul, a, b))
    return dot / (norm_a * norm_b)


def word_types(corpus: Iterable[str]) -> frozenset[str]:
    types: set[str] = set()
    for line in corpus:
        types.update(line.split())
    return frozenset(types)


def lexical_similarity(corpus_x: Iterable[str],
                       corpus_y: Iterable[str]) -> float:
    """Jaccard similarity of whitespace word types in two line corpora."""
    return _jaccard(word_types(corpus_x), word_types(corpus_y))


def _jaccard(types_x: frozenset[str], types_y: frozenset[str]) -> float:
    if not types_x or not types_y:
        raise ValueError("lexical similarity needs non-empty corpora")
    shared = len(types_x & types_y)
    return shared / (len(types_x) + len(types_y) - shared)


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
    types = {}
    if corpora is not None and x in corpora and y in corpora:
        types = {x: word_types(corpora[x]), y: word_types(corpora[y])}
    return _pair_similarity(x, y, features, types,
                            lambda lang, name, vector: _norm(vector))


def _pair_similarity(x: str, y: str, features: Mapping[str, FeatureVectors],
                     types: Mapping[str, frozenset[str]], norm) -> float:
    """aggregate_similarity of two distinct languages, with the word types
    of each language that has a corpus given in `types`. norm(lang, name,
    vector) gives the norm of a language's component vector; it is called
    after the pair's dimension checks, x's vector first."""
    for lang in (x, y):
        if lang not in features:
            raise MissingFeatureError(f"no feature vectors for {lang!r}")
    present: list[float] = []
    features_x, features_y = features[x], features[y]
    for name in FEATURE_COMPONENTS:
        vec_x = getattr(features_x, name)
        vec_y = getattr(features_y, name)
        if vec_x is None or vec_y is None:
            continue
        try:
            _check_dimensions(vec_x, vec_y)
            present.append(_cosine(vec_x, vec_y, norm(x, name, vec_x),
                                   norm(y, name, vec_y)))
        except ValueError as exc:
            raise ValueError(
                f"{name} vectors of {x!r} and {y!r}: {exc}") from exc
    if x in types and y in types:
        present.append(_jaccard(types[x], types[y]))
    if not present:
        raise MissingFeatureError(
            f"languages {x!r} and {y!r} share no similarity components")
    return (COMPONENT_COUNT / len(present)) * math.fsum(present)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric pairwise similarities over a fixed language list; every
    value must be a finite number."""

    langs: tuple[str, ...]
    values: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        if list(self.langs) != sorted(set(self.langs)):
            raise ValueError("langs must be sorted and unique")
        for x, y in itertools.combinations(self.langs, 2):
            if (x, y) not in self.values:
                raise ValueError(f"similarity missing for pair ({x!r}, {y!r})")
            if not math.isfinite(self.values[x, y]):
                raise ValueError(f"similarity for pair ({x!r}, {y!r}) is not "
                                 f"finite: {self.values[x, y]!r}")

    @classmethod
    def build(cls, langs: Iterable[str],
              features: Mapping[str, FeatureVectors],
              corpora: Mapping[str, Sequence[str]] | None = None,
              ) -> "SimilarityMatrix":
        """aggregate_similarity for every pair, reading each corpus once
        and taking each feature vector's norm once."""
        ordered = tuple(sorted(set(langs)))
        types = {}
        if corpora is not None:
            types = {lang: word_types(corpora[lang])
                     for lang in ordered if lang in corpora}
        norms: dict[tuple[str, str], float] = {}

        def norm(lang, name, vector):
            key = lang, name
            value = norms.get(key)
            if value is None:
                value = norms[key] = _norm(vector)
            return value
        values = {
            (x, y): _pair_similarity(x, y, features, types, norm)
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
                  sims: SimilarityMatrix) -> float:
    """Mean pairwise similarity plus the signed script-diversity term."""
    if len(langs) < 2:
        raise ValueError("objective needs at least two languages")
    if len(set(langs)) != len(langs):
        raise ValueError(f"duplicate languages in set: {sorted(langs)}")
    pair_sum = math.fsum(sims.get(x, y) for x, y
                         in itertools.combinations(sorted(langs), 2))
    mean = pair_sum / math.comb(len(langs), 2)
    sign = spec.regime.script_sign
    if sign == 0:
        return mean
    distinct = {_script_for(spec.script_map, lang) for lang in langs}
    return mean + sign * spec.alpha * len(distinct)


def _script_for(script_map: Mapping[str, str], lang: str) -> str:
    if lang not in script_map:
        raise ValueError(f"no script recorded for language {lang!r}")
    return script_map[lang]


def select_subset(pool: Sequence[str], spec: SelectionSpec,
                  sims: SimilarityMatrix) -> tuple[tuple[str, ...], float]:
    """Pick the language set optimizing the regime objective.

    When the number of candidate sets is at most EXHAUSTIVE_SEARCH_LIMIT the
    search is exhaustive; larger pools fall back to a deterministic greedy
    build followed by best-improving single swaps. Objective ties always go
    to the lexicographically smallest set. Candidates are scored exactly as
    set_objective scores them (see the module docstring), which gives the
    objective returned for the winner.

    The exhaustive search skips each prefix whose bound (see _exhaustive)
    cannot beat the incumbent, and the greedy climbs share one memo of the
    sets they passed through, so both return what scoring every candidate
    would return.
    """
    script_map = spec.script_map
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

    weights, scale = _scaled_weights(ordered, sims)
    ids: dict[str, int] = {}
    script_ids = [0] * len(ordered)
    if spec.regime.script_sign:
        script_ids = [ids.setdefault(_script_for(script_map, lang), len(ids))
                      for lang in ordered]
    gain = _gain(spec, scale)
    if math.comb(len(ordered), spec.set_size) <= EXHAUSTIVE_SEARCH_LIMIT:
        orient = 1 if spec.regime.maximize else -1
        best = _exhaustive(weights, script_ids, spec.set_size, gain, orient)
    else:
        best = _greedy(weights, script_ids, spec.set_size, gain)
    chosen = tuple(ordered[i] for i in best)
    objective = set_objective(chosen, spec, sims)
    if not math.isfinite(objective):
        raise ValueError(f"objective of the {spec.regime.value} selection with "
                         f"alpha {spec.alpha!r} is not finite: {objective!r}")
    return chosen, objective


def _scaled_weights(ordered: Sequence[str], sims: SimilarityMatrix,
                    ) -> tuple[list[list[int]], int]:
    """Pair values over the pool as integers: value == weights[i][j] / scale
    exactly, with one power-of-two scale for all pairs and a zero diagonal."""
    ratios = {(i, j): float(sims.get(ordered[i], ordered[j])).as_integer_ratio()
              for i, j in itertools.combinations(range(len(ordered)), 2)}
    scale = max((den for _, den in ratios.values()), default=1)
    weights = [[0] * len(ordered) for _ in ordered]
    for (i, j), (num, den) in ratios.items():
        weights[i][j] = weights[j][i] = num * (scale // den)
    return weights, scale


def _gain(spec: SelectionSpec, scale: int):
    """gain(pair_sum, size, distinct): set_objective of a set of `size`
    languages with exact pair sum pair_sum / scale and `distinct` scripts,
    negated when the regime minimizes, so that higher is always better."""
    pair_counts = [math.comb(size, 2) for size in range(spec.set_size + 1)]
    sign = spec.regime.script_sign
    bonus = sign * spec.alpha
    orient = 1.0 if spec.regime.maximize else -1.0

    def gain(pair_sum: int, size: int, distinct: int) -> float:
        mean = pair_sum / scale / pair_counts[size]
        if sign:
            mean = mean + bonus * distinct
        return orient * mean
    return gain


def _exhaustive(weights, script_ids, k, gain, orient):
    """Lexicographic depth-first search over the k-subsets of indices. Each
    depth carries the exact pair sum of the chosen prefix and every index's
    row sum against it, so a leaf costs O(1); only a strictly higher gain
    replaces the incumbent, so ties keep the lexicographically first set.

    A prefix is skipped once no completion can beat the incumbent. Say r
    picks are left among the indices from `start`. Each pick j adds
    rows[j], its pair values with the prefix, and shares with another pick
    each of its pairs with the other r - 1 picks, whose oriented sum is at
    most tops[j][r - 1], its r - 1 largest oriented pair values. So twice
    the oriented final pair sum is at most twice the prefix's plus the sum
    of the r largest values of 2 * orient * rows[j] + tops[j][r - 1], and
    the integer pair sum is bounded by half of that, rounded up. The set
    has at most min(scripts in the pool, distinct + r) scripts. gain never
    falls as either grows (orient * script_sign >= 0), so if its value at
    those bounds is no higher than the incumbent's, no set below the prefix
    can displace it. A bound too large for a float prunes nothing."""
    n = len(weights)
    tops = []
    for i, row in enumerate(weights):
        ranked = sorted((orient * w for j, w in enumerate(row) if j != i),
                        reverse=True)
        tops.append(list(itertools.accumulate(ranked[:k - 1], initial=0)))
    columns = list(zip(*tops))  # columns[m][j] == tops[j][m]
    pool_scripts = len(set(script_ids))
    twice = 2 * orient
    chosen: list[int] = []
    counts = [0] * n
    best = best_set = None

    def descend(start, rows, pair_sum, distinct):
        nonlocal best, best_set
        depth = len(chosen)
        left = k - depth
        if best is not None:
            reach = sorted(map(operator.add,
                               map(twice.__mul__, rows[start:]),
                               columns[left - 1][start:]), reverse=True)
            bound = orient * pair_sum - (-sum(reach[:left]) // 2)
            try:
                if gain(orient * bound, k,
                        min(pool_scripts, distinct + left)) <= best:
                    return
            except OverflowError:
                pass
        if left == 1:
            for j in range(start, n):
                value = gain(pair_sum + rows[j], k,
                             distinct + (counts[script_ids[j]] == 0))
                if best is None or value > best:
                    best, best_set = value, (*chosen, j)
            return
        for i in range(start, n - left + 1):
            script = script_ids[i]
            new_script = counts[script] == 0
            counts[script] += 1
            chosen.append(i)
            descend(i + 1, list(map(operator.add, rows, weights[i])),
                    pair_sum + rows[i], distinct + new_script)
            chosen.pop()
            counts[script] -= 1

    descend(0, [0] * n, 0, 0)
    return best_set


_PAIR_START_LIMIT = 2048


def _greedy(weights, script_ids, k, gain):
    """Greedy build from deterministic starting pairs, then best-improving
    single swaps; the best local optimum wins, ties to the smallest set.

    Small pools start once from every pair; larger pools start from each
    index joined with its best partner, keeping the start count linear.
    All climbs share one memo, so a climb that reaches a state an earlier
    climb passed through ends where that climb ended."""
    n = len(weights)
    if math.comb(n, 2) <= _PAIR_START_LIMIT:
        starts = list(itertools.combinations(range(n), 2))
    else:
        found = set()
        for i in range(n):
            partner = None
            best = None
            for j in range(n):
                if j == i:
                    continue
                value = gain(weights[i][j], 2,
                             1 + (script_ids[i] != script_ids[j]))
                if best is None or value > best:
                    partner, best = j, value
            found.add((min(i, partner), max(i, partner)))
        starts = sorted(found)
    best_set = None
    best = None
    memo: dict[tuple[int, ...], tuple[tuple[int, ...], float]] = {}
    for start in starts:
        members, value = _climb(list(start), weights, script_ids, k, gain,
                                memo)
        if best is None or value > best or (value == best
                                            and members < best_set):
            best_set, best = members, value
    return best_set


def _climb(members, weights, script_ids, k, gain, memo):
    """Complete one starting pair greedily (first strictly best addition),
    then take the best single swap, ties to the smallest resulting set,
    until no swap strictly improves the gain.

    Each step depends on the current members alone, so the climb's end is
    a function of any state it passes through: memo maps every state a
    climb passed through to that climb's (members, gain), and a climb
    stops at the first state found there."""
    n = len(weights)
    path = []
    while True:
        state = tuple(members)
        end = memo.get(state)
        if end is not None:
            break
        path.append(state)
        # exact state of the current members: each index's row sum against
        # them, their pair sum and the members per script
        rows = [sum(column) for column in zip(*(weights[m] for m in members))]
        pair_sum = sum(rows[m] for m in members) // 2
        counts = [0] * n
        for m in members:
            counts[script_ids[m]] += 1
        distinct = sum(count > 0 for count in counts)
        outsiders = [o for o in range(n) if o not in members]
        if len(members) < k:
            add = None
            best = None
            for o in outsiders:
                value = gain(pair_sum + rows[o], len(members) + 1,
                             distinct + (counts[script_ids[o]] == 0))
                if best is None or value > best:
                    add, best = o, value
            members = sorted(members + [add])
            continue
        current = gain(pair_sum, k, distinct)
        best = current
        move = None
        move_set = None
        for m in members:
            base = pair_sum - rows[m]
            leaves = counts[script_ids[m]] == 1
            for o in outsiders:
                if script_ids[o] == script_ids[m]:
                    scripts = distinct
                else:
                    scripts = (distinct - leaves
                               + (counts[script_ids[o]] == 0))
                value = gain(base + rows[o] - weights[o][m], k, scripts)
                if value > best:
                    move, move_set, best = (m, o), None, value
                elif value == best and move is not None:
                    if move_set is None:
                        move_set = _swapped(members, *move)
                    candidate = _swapped(members, m, o)
                    if candidate < move_set:
                        move, move_set = (m, o), candidate
        if move is None:
            end = state, current
            break
        members = list(_swapped(members, *move))
    for state in path:
        memo[state] = end
    return end


def _swapped(members, out, into):
    return tuple(sorted([m for m in members if m != out] + [into]))


# --- Feature and script files ------------------------------------------------


def load_feature_csv(path: str | Path) -> dict[str, FeatureVectors]:
    """Read feature vectors from CSV with columns lang, component, values
    (space-separated floats); one row per language and component."""
    collected: dict[str, dict[str, tuple[float, ...]]] = {}
    for row in read_tidy_csv(path, ("lang", "component", "values")):
        lang = row["lang"].strip()
        component = row["component"].strip()
        if component not in FEATURE_COMPONENTS:
            raise ValueError(f"{path}:{row.line}: unknown component "
                             f"{component!r}")
        vector = tuple(number_cell(path, row.line, v)
                       for v in row["values"].split())
        if not vector:
            raise ValueError(f"{path}:{row.line}: empty vector for {lang}")
        per_lang = collected.setdefault(lang, {})
        if component in per_lang:
            raise ValueError(f"{path}:{row.line}: duplicate {component} row "
                             f"for {lang}")
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
            raise ValueError(f"{path}:{row.line}: duplicate language {lang}")
        scripts[lang] = row["script"].strip()
    return scripts
