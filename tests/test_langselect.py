"""Language-set selection: similarities, objectives, and subset search."""

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scriptshift import langselect as ls
from scriptshift.langselect import (FeatureVectors, MissingFeatureError,
                                    Regime, SelectionSpec, SimilarityMatrix,
                                    aggregate_similarity, cosine_similarity,
                                    lexical_similarity, load_feature_csv,
                                    load_script_map, select_subset,
                                    set_objective, word_types)


def brute_force_select(pool, spec, sims):
    best = None
    best_obj = None
    for combo in itertools.combinations(sorted(pool), spec.set_size):
        obj = set_objective(combo, spec, sims)
        if best_obj is None or (obj > best_obj if spec.regime.maximize
                                else obj < best_obj):
            best, best_obj = combo, obj
    return best, best_obj


# The subset search as it was before exact integer scoring: every candidate
# scored by set_objective. Kept verbatim (module globals qualified) as the
# oracle for select_subset.

def ref_select_subset(pool, spec, sims):
    """Pick the language set optimizing the regime objective.

    When the number of candidate sets is at most EXHAUSTIVE_SEARCH_LIMIT the
    search is exhaustive; larger pools fall back to a deterministic greedy
    build followed by best-improving single swaps. Objective ties always go
    to the lexicographically smallest set.
    """
    script_map = spec.script_map
    ordered = sorted(set(pool))
    if len(ordered) != len(pool):
        raise ValueError("pool contains duplicate languages")
    if len(ordered) < spec.set_size:
        raise ValueError(f"pool of {len(ordered)} languages cannot fill a "
                         f"set of {spec.set_size}")
    if spec.regime.single_script:
        pool_scripts = {ls._script_for(script_map, lang) for lang in ordered}
        if len(pool_scripts) != 1:
            raise ValueError(
                f"regime {spec.regime.value} requires a single-script pool, "
                f"got scripts {sorted(pool_scripts)}")

    def better(candidate, incumbent):
        if spec.regime.maximize:
            return candidate > incumbent
        return candidate < incumbent

    def objective(langs):
        return set_objective(langs, spec, sims)

    if math.comb(len(ordered), spec.set_size) <= ls.EXHAUSTIVE_SEARCH_LIMIT:
        best_set = None
        best_obj = None
        for combo in itertools.combinations(ordered, spec.set_size):
            obj = objective(combo)
            if best_obj is None or better(obj, best_obj):
                best_set, best_obj = combo, obj
        return best_set, best_obj

    return ref_greedy_with_swaps(ordered, spec, objective, better)


REF_PAIR_START_LIMIT = 2048


def ref_seed_pairs(ordered, objective, better):
    """Deterministic starting pairs for the greedy build.

    Small pools start once from every pair; larger pools start from each
    language joined with its best partner, keeping the start count linear."""
    if math.comb(len(ordered), 2) <= REF_PAIR_START_LIMIT:
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


def ref_climb(start, ordered, spec, objective, better):
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


def ref_greedy_with_swaps(ordered, spec, objective, better):
    best_set = None
    best_obj = None
    for start in ref_seed_pairs(ordered, objective, better):
        candidate, obj = ref_climb(start, ordered, spec, objective, better)
        if best_obj is None or better(obj, best_obj) or (
                obj == best_obj and candidate < best_set):
            best_set, best_obj = candidate, obj
    return best_set, best_obj


def random_instance(rng, n, quantize=None):
    langs = tuple(sorted(f"l{i:02d}" for i in range(n)))
    values = {}
    for pair in itertools.combinations(langs, 2):
        value = rng.uniform(0, 4)
        if quantize:
            value = round(value * quantize) / quantize
        values[pair] = value
    return langs, SimilarityMatrix(langs, values)


class TestCosine:
    def test_hand_computed(self):
        expected = 32.0 / (math.sqrt(14.0) * math.sqrt(77.0))
        assert cosine_similarity((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)) == \
            pytest.approx(expected, abs=1e-15)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity((1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_parallel_is_one(self):
        assert cosine_similarity((2.0, 4.0), (1.0, 2.0)) == \
            pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="dimensions"):
            cosine_similarity((1.0,), (1.0, 2.0))
        with pytest.raises(ValueError, match="non-empty"):
            cosine_similarity((), ())
        with pytest.raises(ValueError, match="zero vector"):
            cosine_similarity((0.0, 0.0), (1.0, 2.0))


class TestLexical:
    def test_word_types(self):
        assert word_types(["a b", "b c"]) == frozenset({"a", "b", "c"})

    def test_jaccard_fixture(self):
        assert lexical_similarity(["a b c"], ["b c d"]) == 0.5

    def test_identical_corpora(self):
        assert lexical_similarity(["x y"], ["y x"]) == 1.0

    def test_disjoint_corpora(self):
        assert lexical_similarity(["a"], ["b"]) == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            lexical_similarity([], ["a"])


def crafted_features():
    # every vector has unit norm so each cosine equals the dot product
    return {
        "aaa": FeatureVectors("aaa", syntactic=(1.0, 0.0),
                              geographic=(1.0, 0.0), genetic=(1.0, 0.0)),
        "bbb": FeatureVectors("bbb",
                              syntactic=(0.5, math.sqrt(3.0) / 2.0),
                              geographic=(0.2, math.sqrt(0.96)),
                              genetic=(0.9, math.sqrt(0.19))),
        "ccc": FeatureVectors("ccc", syntactic=(0.5, math.sqrt(3.0) / 2.0),
                              genetic=(0.9, math.sqrt(0.19))),
    }


def crafted_corpora():
    return {
        "aaa": ["a b c", "d e f"],
        "bbb": ["a g h", "i j"],
    }


class TestAggregateSimilarity:
    def test_self_similarity_is_exactly_four(self):
        assert aggregate_similarity("aaa", "aaa", {}) == 4.0

    def test_full_information_sum(self):
        # cosines 0.5 + 0.2 + 0.9 plus lexical jaccard 1/10
        value = aggregate_similarity("aaa", "bbb", crafted_features(),
                                     crafted_corpora())
        assert value == pytest.approx(1.7, abs=1e-12)

    def test_symmetry(self):
        features = crafted_features()
        corpora = crafted_corpora()
        assert aggregate_similarity("aaa", "bbb", features, corpora) == \
            pytest.approx(
                aggregate_similarity("bbb", "aaa", features, corpora),
                abs=1e-15)

    def test_missing_component_rescales(self):
        # geographic and lexical are absent: (4/3) * (0.5 + 0.9) ... but
        # with no corpora only the two shared cosines remain: (4/2) * 1.4
        features = crafted_features()
        value = aggregate_similarity("aaa", "ccc", features)
        assert value == pytest.approx(2.0 * 1.4, abs=1e-12)

    def test_missing_corpus_drops_lexical_only(self):
        features = crafted_features()
        value = aggregate_similarity("aaa", "bbb", features,
                                     corpora={"aaa": ["a"]})
        assert value == pytest.approx((4.0 / 3.0) * 1.6, abs=1e-12)

    def test_vector_length_mismatch_names_component_and_languages(self):
        features = crafted_features()
        features["bbb"] = FeatureVectors("bbb", syntactic=(1.0, 0.0),
                                         genetic=(1.0,))
        message = (r"^genetic vectors of 'aaa' and 'bbb': vector dimensions "
                   r"differ: 2 vs 1$")
        with pytest.raises(ValueError, match=message):
            aggregate_similarity("aaa", "bbb", features)
        with pytest.raises(ValueError, match=message):
            SimilarityMatrix.build(["aaa", "bbb"], features)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            aggregate_similarity("aaa", "bbb", crafted_features(),
                                 {"aaa": ["a"], "bbb": [" "]})
        with pytest.raises(ValueError, match="non-empty"):
            SimilarityMatrix.build(["aaa", "bbb"], crafted_features(),
                                   {"aaa": [], "bbb": ["a"]})

    def test_unknown_language_rejected(self):
        with pytest.raises(MissingFeatureError, match="zzz"):
            aggregate_similarity("aaa", "zzz", crafted_features())

    def test_no_shared_components_rejected(self):
        features = {
            "aaa": FeatureVectors("aaa", syntactic=(1.0,)),
            "bbb": FeatureVectors("bbb", geographic=(1.0,)),
        }
        with pytest.raises(MissingFeatureError, match="share"):
            aggregate_similarity("aaa", "bbb", features)

    def test_component_name_validation(self):
        with pytest.raises(ValueError, match="component"):
            crafted_features()["aaa"].component("phonetic")


class TestSimilarityMatrix:
    def test_build_sorts_and_fills_pairs(self):
        features = crafted_features()
        matrix = SimilarityMatrix.build(["ccc", "aaa", "bbb"], features)
        assert matrix.langs == ("aaa", "bbb", "ccc")
        assert set(matrix.values) == {("aaa", "bbb"), ("aaa", "ccc"),
                                      ("bbb", "ccc")}

    def test_get_is_symmetric(self):
        matrix = SimilarityMatrix.build(["aaa", "bbb"], crafted_features())
        assert matrix.get("aaa", "bbb") == matrix.get("bbb", "aaa")

    def test_get_self_is_four(self):
        matrix = SimilarityMatrix.build(["aaa", "bbb"], crafted_features())
        assert matrix.get("aaa", "aaa") == 4.0

    def test_get_unknown_pair(self):
        matrix = SimilarityMatrix.build(["aaa", "bbb"], crafted_features())
        with pytest.raises(KeyError):
            matrix.get("aaa", "zzz")

    def test_unsorted_langs_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            SimilarityMatrix(("bbb", "aaa"), {("aaa", "bbb"): 1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match=r"pair \('aaa', 'ccc'\) is not "
                                             r"finite"):
            SimilarityMatrix(("aaa", "bbb", "ccc"),
                             {("aaa", "bbb"): 1.0, ("aaa", "ccc"): value,
                              ("bbb", "ccc"): value})

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            SimilarityMatrix(("aaa", "bbb", "ccc"), {("aaa", "bbb"): 1.0})


def stub_matrix():
    return SimilarityMatrix(
        ("aaa", "bbb", "ccc"),
        {("aaa", "bbb"): 0.6, ("aaa", "ccc"): 0.2, ("bbb", "ccc"): 0.4})


SCRIPTS = {"aaa": "Latn", "bbb": "Latn", "ccc": "Cyrl"}


class TestSetObjective:
    def test_mean_pairwise_without_diversity(self):
        spec = SelectionSpec(regime=Regime.SIM_SAME, set_size=3,
                             script_map={"aaa": "Latn", "bbb": "Latn",
                                         "ccc": "Latn"})
        value = set_objective(("aaa", "bbb", "ccc"), spec, stub_matrix())
        assert value == pytest.approx(0.4, abs=1e-15)

    def test_sim_div_adds_script_bonus(self):
        spec = SelectionSpec(regime=Regime.SIM_DIV, set_size=3, alpha=0.05,
                             script_map=SCRIPTS)
        value = set_objective(("aaa", "bbb", "ccc"), spec, stub_matrix())
        assert value == pytest.approx(0.4 + 0.05 * 2, abs=1e-15)

    def test_dissim_div_subtracts_script_bonus(self):
        spec = SelectionSpec(regime=Regime.DISSIM_DIV, set_size=3,
                             alpha=0.05, script_map=SCRIPTS)
        value = set_objective(("aaa", "bbb", "ccc"), spec, stub_matrix())
        assert value == pytest.approx(0.4 - 0.05 * 2, abs=1e-15)

    def test_pair_objective(self):
        spec = SelectionSpec(regime=Regime.SIM_SAME, set_size=2,
                             script_map={"aaa": "Latn", "bbb": "Latn"})
        assert set_objective(("aaa", "bbb"), spec, stub_matrix()) == 0.6

    def test_alpha_zero_collapses_div_to_same(self):
        # spec invariant: with alpha 0 the diverse and same objectives agree
        # on any fixed single-script candidate set
        latin = {"aaa": "Latn", "bbb": "Latn", "ccc": "Latn"}
        div = SelectionSpec(regime=Regime.SIM_DIV, set_size=3, alpha=0.0,
                            script_map=latin)
        same = SelectionSpec(regime=Regime.SIM_SAME, set_size=3,
                             script_map=latin)
        assert set_objective(("aaa", "bbb", "ccc"), div, stub_matrix()) == \
            set_objective(("aaa", "bbb", "ccc"), same, stub_matrix())

    def test_validation(self):
        spec = SelectionSpec(regime=Regime.SIM_SAME, set_size=2,
                             script_map=SCRIPTS)
        with pytest.raises(ValueError, match="two"):
            set_objective(("aaa",), spec, stub_matrix())
        with pytest.raises(ValueError, match="duplicate"):
            set_objective(("aaa", "aaa"), spec, stub_matrix())

    def test_missing_script_in_div_regime(self):
        spec = SelectionSpec(regime=Regime.SIM_DIV, set_size=2, alpha=0.05)
        with pytest.raises(ValueError, match="script"):
            set_objective(("aaa", "bbb"), spec, stub_matrix())


class TestSpecAndRegime:
    def test_regime_properties(self):
        assert Regime.SIM_SAME.maximize and Regime.SIM_DIV.maximize
        assert not Regime.DISSIM_SAME.maximize
        assert not Regime.DISSIM_DIV.maximize
        assert Regime.SIM_DIV.script_sign == 1
        assert Regime.DISSIM_DIV.script_sign == -1
        assert Regime.SIM_SAME.script_sign == 0
        assert Regime.DISSIM_SAME.script_sign == 0
        assert Regime.SIM_SAME.single_script
        assert Regime.DISSIM_SAME.single_script
        assert not Regime.SIM_DIV.single_script

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="set_size"):
            SelectionSpec(regime=Regime.SIM_SAME, set_size=1)
        with pytest.raises(ValueError, match="alpha"):
            SelectionSpec(regime=Regime.SIM_SAME, alpha=-0.1)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_spec_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            SelectionSpec(regime=Regime.SIM_DIV, alpha=alpha)

    def test_spec_defaults(self):
        spec = SelectionSpec(regime=Regime.SIM_DIV)
        assert spec.set_size == 8
        assert spec.alpha == 0.05


class TestSelectSubset:
    def test_dominant_pair_wins_sim(self):
        spec = SelectionSpec(regime=Regime.SIM_SAME, set_size=2,
                             script_map={l: "Latn" for l in
                                         ("aaa", "bbb", "ccc")})
        chosen, obj = select_subset(("aaa", "bbb", "ccc"), spec,
                                    stub_matrix())
        assert chosen == ("aaa", "bbb")
        assert obj == 0.6

    def test_minimum_pair_wins_dissim(self):
        spec = SelectionSpec(regime=Regime.DISSIM_SAME, set_size=2,
                             script_map={l: "Latn" for l in
                                         ("aaa", "bbb", "ccc")})
        chosen, obj = select_subset(("aaa", "bbb", "ccc"), spec,
                                    stub_matrix())
        assert chosen == ("aaa", "ccc")
        assert obj == 0.2

    @pytest.mark.parametrize("regime", [Regime.SIM_DIV, Regime.DISSIM_DIV])
    def test_overflowing_objective_rejected(self, regime):
        # a finite alpha whose script term overflows used to be returned as
        # an infinite objective
        spec = SelectionSpec(regime=regime, set_size=2, alpha=1e308,
                             script_map=SCRIPTS)
        with pytest.raises(ValueError, match=(
                rf"^objective of the {regime.value} selection with alpha "
                r"1e\+308 is not finite: -?inf$")):
            select_subset(("aaa", "bbb", "ccc"), spec, stub_matrix())
        large = SelectionSpec(regime=regime, set_size=2, alpha=1e307,
                              script_map=SCRIPTS)
        _, objective = select_subset(("aaa", "bbb", "ccc"), large,
                                     stub_matrix())
        assert math.isfinite(objective)

    def test_script_bonus_changes_winner(self):
        # without the bonus the most similar pair is (aaa, bbb); the script
        # diversity reward makes the two-script pair (bbb, ccc) win
        spec = SelectionSpec(regime=Regime.SIM_DIV, set_size=2, alpha=0.3,
                             script_map=SCRIPTS)
        chosen, _ = select_subset(("aaa", "bbb", "ccc"), spec, stub_matrix())
        assert chosen == ("bbb", "ccc")

    def test_exhaustive_matches_brute_force(self):
        for seed in range(40):
            rng = random.Random(seed)
            langs, sims = random_instance(rng, rng.randint(6, 9))
            k = rng.randint(2, 4)
            for regime in Regime:
                if regime.single_script:
                    scripts = {l: "Latn" for l in langs}
                else:
                    scripts = {l: rng.choice(["Latn", "Cyrl", "Hang"])
                               for l in langs}
                spec = SelectionSpec(regime=regime, set_size=k,
                                     script_map=scripts)
                assert select_subset(langs, spec, sims) == \
                    brute_force_select(langs, spec, sims), \
                    f"seed {seed} regime {regime.value}"

    def test_all_ties_give_lexicographically_first_set(self):
        langs = tuple(sorted(f"l{i}" for i in range(6)))
        sims = SimilarityMatrix(
            langs, {p: 1.5 for p in itertools.combinations(langs, 2)})
        spec = SelectionSpec(regime=Regime.SIM_SAME, set_size=3,
                             script_map={l: "Latn" for l in langs})
        chosen, obj = select_subset(langs, spec, sims)
        assert chosen == langs[:3]
        assert obj == 1.5

    def test_heuristic_agrees_with_exhaustive(self, monkeypatch):
        # force the greedy fallback on pools small enough to brute force
        monkeypatch.setattr(ls, "EXHAUSTIVE_SEARCH_LIMIT", 0)
        for seed in range(30):
            rng = random.Random(100 + seed)
            quantize = rng.choice([None, 2, 5])
            langs, sims = random_instance(rng, rng.randint(8, 11), quantize)
            k = rng.randint(3, 5)
            for regime in Regime:
                if regime.single_script:
                    scripts = {l: "Latn" for l in langs}
                else:
                    scripts = {l: rng.choice(["Latn", "Cyrl"])
                               for l in langs}
                spec = SelectionSpec(regime=regime, set_size=k,
                                     script_map=scripts)
                assert select_subset(langs, spec, sims) == \
                    brute_force_select(langs, spec, sims), \
                    f"seed {seed} regime {regime.value}"

    def test_heuristic_deterministic_under_pool_order(self, monkeypatch):
        monkeypatch.setattr(ls, "EXHAUSTIVE_SEARCH_LIMIT", 0)
        rng = random.Random(9)
        langs, sims = random_instance(rng, 10)
        spec = SelectionSpec(regime=Regime.SIM_SAME, set_size=4,
                             script_map={l: "Latn" for l in langs})
        shuffled = list(langs)
        rng.shuffle(shuffled)
        assert select_subset(langs, spec, sims) == \
            select_subset(tuple(shuffled), spec, sims)

    def test_pool_validation(self):
        spec = SelectionSpec(regime=Regime.SIM_SAME, set_size=3,
                             script_map={l: "Latn" for l in
                                         ("aaa", "bbb", "ccc")})
        with pytest.raises(ValueError, match="duplicate"):
            select_subset(("aaa", "aaa", "bbb"), spec, stub_matrix())
        with pytest.raises(ValueError, match="cannot fill"):
            select_subset(("aaa", "bbb"), spec, stub_matrix())

    def test_same_regime_requires_single_script_pool(self):
        spec = SelectionSpec(regime=Regime.SIM_SAME, set_size=2,
                             script_map=SCRIPTS)
        with pytest.raises(ValueError, match="single-script"):
            select_subset(("aaa", "bbb", "ccc"), spec, stub_matrix())
        spec_div = SelectionSpec(regime=Regime.SIM_DIV, set_size=2,
                                 script_map=SCRIPTS)
        select_subset(("aaa", "bbb", "ccc"), spec_div, stub_matrix())


LANG_SCRIPTS = ("Latn", "Cyrl", "Hang")
PAIR_VALUES = {
    "uniform": st.floats(0.0, 4.0),
    # few distinct values, so objective ties are common
    "quantized": st.integers(0, 8).map(lambda v: v / 4),
    "signed": st.floats(-4.0, 4.0),
    "wide": st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300)),
    # two of these fit a float and three of one sign do not: a bound that
    # adds each row's largest values can overflow where no set sum does
    "huge": st.one_of(st.floats(-4.0, 4.0), st.floats(6e307, 8.9e307),
                      st.floats(-8.9e307, -6e307)),
}
ALPHAS = st.one_of(st.sampled_from([0.0, 0.05, 0.25, 0.5, 1.0]),
                   st.floats(0.0, 8.0))


def search_outcome(search, pool, spec, sims, exhaustive):
    """(chosen, objective.hex()) of one search, or the error it raised;
    exhaustive=False forces the greedy branch."""
    limit = ls.EXHAUSTIVE_SEARCH_LIMIT if exhaustive else 0
    with mock.patch.object(ls, "EXHAUSTIVE_SEARCH_LIMIT", limit):
        try:
            chosen, objective = search(pool, spec, sims)
        except (ValueError, KeyError) as exc:
            return type(exc), str(exc)
    return chosen, objective.hex()


def sums_fit(pool, size, sims):
    """Whether set_objective sums the pairs of every set of 2 to `size`
    languages from the pool without overflow."""
    for count in range(2, size + 1):
        for langs in itertools.combinations(sorted(pool), count):
            try:
                math.fsum(itertools.starmap(
                    sims.get, itertools.combinations(langs, 2)))
            except OverflowError:
                return False
    return True


@st.composite
def selection_cases(draw):
    n = draw(st.integers(2, 10))
    langs = tuple(f"l{i:02d}" for i in range(n))
    kind = draw(st.sampled_from([*PAIR_VALUES, "equal"]))
    if kind == "equal":
        value = draw(st.floats(-4.0, 4.0))
        values = {pair: value for pair in itertools.combinations(langs, 2)}
    else:
        values = {pair: draw(PAIR_VALUES[kind])
                  for pair in itertools.combinations(langs, 2)}
    pool = draw(st.lists(st.sampled_from(langs), min_size=2, unique=True))
    layout = draw(st.sampled_from(["single", "mixed", "missing"]))
    if layout == "single":
        scripts = {lang: "Latn" for lang in langs}
    else:
        scripts = {lang: draw(st.sampled_from(LANG_SCRIPTS))
                   for lang in langs
                   if layout == "mixed" or draw(st.booleans())}
    spec = SelectionSpec(regime=draw(st.sampled_from(list(Regime))),
                         set_size=draw(st.integers(2, min(len(pool), 5))),
                         alpha=draw(ALPHAS), script_map=scripts)
    sims = SimilarityMatrix(langs, values)
    assume(sums_fit(pool, spec.set_size, sims))
    return pool, spec, sims, draw(st.booleans())


class TestSearchMatchesReference:
    """select_subset against the set_objective-scored search it replaced:
    the same set, the same objective bits, the same error."""

    @given(selection_cases())
    @settings(max_examples=300, deadline=None)
    def test_small_pools(self, case):
        pool, spec, sims, exhaustive = case
        assert search_outcome(select_subset, pool, spec, sims, exhaustive) \
            == search_outcome(ref_select_subset, pool, spec, sims,
                              exhaustive)

    @given(st.integers(65, 68), st.integers(2, 4),
           st.sampled_from(list(Regime)), st.sampled_from([None, 2, 4]),
           st.sampled_from([0.0, 0.25]), st.integers(0, 2**32))
    @settings(max_examples=6, deadline=None)
    def test_linear_seed_pools(self, n, k, regime, quantize, alpha, seed):
        # more than 64 languages: greedy starts from each language's best
        # partner instead of from every pair
        rng = random.Random(seed)
        langs, sims = random_instance(rng, n, quantize)
        scripts = {lang: "Latn" if regime.single_script
                   else rng.choice(LANG_SCRIPTS) for lang in langs}
        spec = SelectionSpec(regime=regime, set_size=k, alpha=alpha,
                             script_map=scripts)
        assert math.comb(n, 2) > ls._PAIR_START_LIMIT
        assert search_outcome(select_subset, langs, spec, sims, False) == \
            search_outcome(ref_select_subset, langs, spec, sims, False)

    @pytest.mark.parametrize("seed, regime", [(74, Regime.DISSIM_DIV),
                                              (179, Regime.SIM_DIV)])
    def test_swap_ties_on_linear_seed_pools(self, seed, regime):
        # instances where two best swaps tie on the objective and the
        # greedy answer depends on taking the lexicographically smaller set
        rng = random.Random(seed)
        langs, sims = random_instance(rng, 66, 2)
        scripts = {lang: rng.choice(["Latn", "Cyrl"]) for lang in langs}
        spec = SelectionSpec(regime=regime, set_size=4, alpha=0.5,
                             script_map=scripts)
        assert search_outcome(select_subset, langs, spec, sims, False) == \
            search_outcome(ref_select_subset, langs, spec, sims, False)


def select_stats_instance(seed):
    """Languages, scripts and similarities shaped like the select-stats
    benchmark: 21 languages in Latin and Hangul script, and 45 more in four
    scripts, with random positive typological feature vectors."""
    rng = random.Random(seed)
    scripts = {}
    for tree in range(7):
        scripts.update({f"la{tree}a": "Latn", f"la{tree}b": "Latn",
                        f"ko{tree}": "Hang"})
    corpus_langs = sorted(scripts)
    for i in range(45):
        scripts[f"fx{i:02d}"] = rng.choice(("Latn", "Cyrl", "Arab", "Deva"))
    features = {}
    for lang in sorted(scripts):
        vectors = {name: tuple(rng.uniform(0.05, 1.0) for _ in range(dims))
                   for name, dims in (("syntactic", 32), ("geographic", 8),
                                      ("genetic", 24))}
        if rng.random() < 1 / 6:
            del vectors["genetic"]
        features[lang] = FeatureVectors(lang, **vectors)
    sims = SimilarityMatrix.build(scripts, features)
    return corpus_langs, sorted(scripts), scripts, sims


def watch_gains(monkeypatch):
    """Record the arguments of every gain call select_subset makes, and
    apart from them those of the calls that raised OverflowError."""
    calls, overflows = [], []
    make_gain = ls._gain

    def watching(spec, scale):
        gain = make_gain(spec, scale)

        def watched(*args):
            calls.append(args)
            try:
                return gain(*args)
            except OverflowError:
                overflows.append(args)
                raise
        return watched
    monkeypatch.setattr(ls, "_gain", watching)
    return calls, overflows


class TestPrunedSearch:
    """The bounded exhaustive search and the memoized greedy climbs give
    the reference's answers and skip the work they are meant to skip."""

    @given(st.data(), st.integers(4, 7), st.sampled_from(list(Regime)),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_huge_values_on_whole_pools(self, data, n, regime, exhaustive):
        langs = tuple(f"l{i:02d}" for i in range(n))
        size = data.draw(st.integers(3, n - 1))
        sims = SimilarityMatrix(langs, {
            pair: data.draw(PAIR_VALUES["huge"])
            for pair in itertools.combinations(langs, 2)})
        assume(sums_fit(langs, size, sims))
        scripts = {lang: "Latn" if regime.single_script
                   else data.draw(st.sampled_from(LANG_SCRIPTS))
                   for lang in langs}
        spec = SelectionSpec(regime=regime, set_size=size,
                             alpha=data.draw(ALPHAS), script_map=scripts)
        assert search_outcome(select_subset, langs, spec, sims, exhaustive) \
            == search_outcome(ref_select_subset, langs, spec, sims,
                              exhaustive)

    @pytest.mark.parametrize("regime", list(Regime))
    def test_overflowing_bound_prunes_nothing(self, monkeypatch, regime):
        # Pairs of l1..l4 are +-8e307 by the gap between them, so no three
        # languages hold three pairs of one sign and every set sum fits,
        # yet from the prefix (l1,) a bound that adds each row's largest
        # values does not. The pairs of l0 are poor, so the sets of l0 that
        # the search scores first lose to (l1, l2, l4) behind that bound.
        langs = tuple(f"l{i}" for i in range(5))
        orient = 1 if regime.maximize else -1
        sims = SimilarityMatrix(langs, {
            (langs[i], langs[j]): orient * (
                -1e307 if i == 0 else 8e307 if j - i in (2, 3) else -8e307)
            for i, j in itertools.combinations(range(5), 2)})
        spec = SelectionSpec(regime=regime, set_size=3,
                             script_map={lang: "Latn" for lang in langs})
        _, overflows = watch_gains(monkeypatch)
        outcome = search_outcome(select_subset, langs, spec, sims, True)
        assert overflows
        assert outcome[0] == ("l1", "l2", "l4")
        assert outcome == search_outcome(ref_select_subset, langs, spec,
                                         sims, True)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("regime", list(Regime))
    def test_select_stats_shaped_pools(self, seed, regime):
        corpus_langs, everyone, scripts, sims = select_stats_instance(seed)
        if regime.single_script:
            scripts = {lang: "Latn" for lang in everyone}
        for pool, size, exhaustive in ((corpus_langs, 6, True),
                                       (everyone, 5, False)):
            assert exhaustive == (math.comb(len(pool), size)
                                  <= ls.EXHAUSTIVE_SEARCH_LIMIT)
            spec = SelectionSpec(regime=regime, set_size=size,
                                 script_map=scripts)
            assert search_outcome(select_subset, pool, spec, sims,
                                  exhaustive) == \
                search_outcome(ref_select_subset, pool, spec, sims,
                               exhaustive)

    def test_exhaustive_search_scores_under_a_tenth(self, monkeypatch):
        corpus_langs, _, scripts, sims = select_stats_instance(1)
        calls, _ = watch_gains(monkeypatch)
        spec = SelectionSpec(regime=Regime.SIM_DIV, set_size=6,
                             script_map=scripts)
        select_subset(corpus_langs, spec, sims)
        # bound checks call gain too, and count here
        assert 0 < len(calls) < math.comb(21, 6) / 10

    def test_greedy_scans_each_state_once(self, monkeypatch):
        _, everyone, scripts, sims = select_stats_instance(1)
        calls, _ = watch_gains(monkeypatch)
        n, k = len(everyone), 5
        spec = SelectionSpec(regime=Regime.DISSIM_DIV, set_size=k,
                             script_map=scripts)
        select_subset(everyone, spec, sims)
        # A climb scores the n - k + 1 additions that complete its set and
        # then each full-size state it reaches as one block: the state and
        # its k * (n - k) swaps. So each run of full-size calls is one
        # completion followed by whole blocks.
        completion, block = n - k + 1, 1 + k * (n - k)
        runs = [list(run) for full, run in itertools.groupby(
            calls, key=lambda call: call[1] == k) if full]
        scans = []
        for run in runs:
            assert len(run) >= completion
            assert (len(run) - completion) % block == 0
            scans += [tuple(run[i:i + block])
                      for i in range(completion, len(run), block)]
        assert scans
        assert len(set(scans)) == len(scans)


# Pair similarity as it was before build shared each vector's norm across
# pairs, kept verbatim (module globals qualified) as the oracle for build.

def ref_cosine_similarity(a, b):
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


def ref_aggregate_similarity(x, y, features, corpora=None):
    if x == y:
        return float(ls.COMPONENT_COUNT)
    for lang in (x, y):
        if lang not in features:
            raise MissingFeatureError(f"no feature vectors for {lang!r}")
    present = []
    for name in ls.FEATURE_COMPONENTS:
        vec_x = features[x].component(name)
        vec_y = features[y].component(name)
        if vec_x is None or vec_y is None:
            continue
        try:
            present.append(ref_cosine_similarity(vec_x, vec_y))
        except ValueError as exc:
            raise ValueError(
                f"{name} vectors of {x!r} and {y!r}: {exc}") from exc
    if corpora is not None and x in corpora and y in corpora:
        present.append(lexical_similarity(corpora[x], corpora[y]))
    if not present:
        raise MissingFeatureError(
            f"languages {x!r} and {y!r} share no similarity components")
    return (ls.COMPONENT_COUNT / len(present)) * math.fsum(present)


def pairwise_outcome(similarity, langs, features, corpora):
    """The matrix of similarity(x, y, ...) over every pair in build's
    order, or the first error."""
    ordered = tuple(sorted(set(langs)))
    try:
        values = {pair: similarity(*pair, features, corpora)
                  for pair in itertools.combinations(ordered, 2)}
        matrix = SimilarityMatrix(ordered, values)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return {pair: value.hex() for pair, value in matrix.values.items()}


@st.composite
def similarity_inputs(draw):
    langs = draw(st.lists(st.sampled_from(["aaa", "bbb", "ccc", "ddd",
                                           "eee", "fff"]),
                          min_size=2, unique=True))
    # vectors of up to three small integers or floats, so empty and zero
    # vectors and dimension mismatches occur, with entries whose squares
    # overflow or sum past the largest float; a language may lack any
    # component
    entry = st.one_of(st.integers(0, 3), st.floats(-1e3, 1e3),
                      st.sampled_from([0.0, 5e-324, 1.3e154, 1e200]))
    vectors = st.one_of(
        st.none(),
        st.lists(entry, max_size=3).map(tuple),
        st.integers(1, 3).map(lambda k: (0.0,) * k))
    features = {}
    for lang in langs:
        if draw(st.integers(0, 7)):
            features[lang] = FeatureVectors(
                lang, **{name: draw(vectors)
                         for name in ls.FEATURE_COMPONENTS})
    lines = st.lists(st.text(alphabet="ab ", max_size=6), max_size=3)
    corpora = {lang: draw(lines) for lang in langs if draw(st.booleans())}
    return langs, features, draw(st.sampled_from([None, corpora]))


class TestBuildMatchesPairwise:
    @given(similarity_inputs())
    @settings(max_examples=400, deadline=None)
    def test_values_and_first_error(self, case):
        langs, features, corpora = case
        try:
            matrix = SimilarityMatrix.build(langs, features, corpora)
        except (ValueError, ArithmeticError) as exc:
            built = type(exc), str(exc)
        else:
            built = {pair: value.hex()
                     for pair, value in matrix.values.items()}
        assert built == pairwise_outcome(aggregate_similarity, *case)
        assert built == pairwise_outcome(ref_aggregate_similarity, *case)

    def test_each_norm_taken_once(self, monkeypatch):
        calls = []
        norm = ls._norm

        def counting(vector):
            calls.append(vector)
            return norm(vector)
        monkeypatch.setattr(ls, "_norm", counting)
        rng = random.Random(3)
        features = {
            f"l{i:02d}": FeatureVectors(
                f"l{i:02d}",
                **{name: tuple(rng.uniform(0.1, 1.0) for _ in range(4))
                   for name in ls.FEATURE_COMPONENTS})
            for i in range(12)}
        matrix = SimilarityMatrix.build(list(features), features)
        assert len(calls) == 12 * len(ls.FEATURE_COMPONENTS)
        for (x, y), value in matrix.values.items():
            assert value == ref_aggregate_similarity(x, y, features)

    def test_each_corpus_read_once(self, monkeypatch):
        calls = []

        def counting(corpus):
            calls.append(corpus)
            return word_types(corpus)
        monkeypatch.setattr(ls, "word_types", counting)
        features = {lang: FeatureVectors(lang, syntactic=(1.0, float(i)))
                    for i, lang in enumerate(["aaa", "bbb", "ccc", "ddd"])}
        corpora = {lang: [f"w{lang} shared"] for lang in features}
        SimilarityMatrix.build(list(features), features, corpora)
        assert len(calls) == 4


class TestFileLoading:
    def test_feature_csv_round_trip(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text(
            "lang,component,values\n"
            "spa,syntactic,1.0 0.5\n"
            "spa,genetic,0.25 0.75\n"
            "kor,syntactic,0.0 1.0\n",
            encoding="utf-8")
        features = load_feature_csv(path)
        assert set(features) == {"spa", "kor"}
        assert features["spa"].syntactic == (1.0, 0.5)
        assert features["spa"].genetic == (0.25, 0.75)
        assert features["spa"].geographic is None
        assert features["kor"].syntactic == (0.0, 1.0)

    def test_feature_csv_validation(self, tmp_path):
        missing = tmp_path / "missing.csv"
        missing.write_text("lang,values\nspa,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="columns"):
            load_feature_csv(missing)
        unknown = tmp_path / "unknown.csv"
        unknown.write_text("lang,component,values\nspa,phonetic,1.0\n",
                           encoding="utf-8")
        with pytest.raises(ValueError, match="component"):
            load_feature_csv(unknown)
        dup = tmp_path / "dup.csv"
        dup.write_text("lang,component,values\n"
                       "spa,syntactic,1.0\nspa,syntactic,2.0\n",
                       encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            load_feature_csv(dup)
        empty = tmp_path / "empty.csv"
        empty.write_text("lang,component,values\nspa,syntactic,\n",
                         encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_feature_csv(empty)

    def test_script_map_round_trip(self, tmp_path):
        path = tmp_path / "scripts.csv"
        path.write_text("lang,script\nspa,Latn\nkor,Hang\n", encoding="utf-8")
        assert load_script_map(path) == {"spa": "Latn", "kor": "Hang"}

    def test_script_map_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("lang\nspa\n", encoding="utf-8")
        with pytest.raises(ValueError, match="columns"):
            load_script_map(bad)
        dup = tmp_path / "dup.csv"
        dup.write_text("lang,script\nspa,Latn\nspa,Cyrl\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            load_script_map(dup)
