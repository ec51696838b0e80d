"""Canonical models, the violation-seriousness refinement, and height collapse."""

import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from defq import (
    INF,
    KbGenerator,
    PreferentialModel,
    UnsatisfiableKB,
    compare_all,
    compute_ranking,
    height_ranks,
    layer_ranks,
    lc_query,
    least_height_worlds,
    minimal_canonical_model,
    minimal_worlds,
    mp_query,
    mpr_model,
    mpr_query,
    parse_kb,
    preferential_refinement,
    rank_by_height,
    rank_of_formula,
    rc_query,
    satisfies,
)
from defq import harness, semantics
from defq.logic import mask_indices
from reference import (
    default_mask,
    evaluate,
    is_refinement_fixed_point,
    partition,
    set_tuple_less,
    valuation,
    violated,
)
from test_cli import CHILD_ENV
from test_metamorphic import POOLS
from test_renumbering import SAMPLES, sample_queries


def true_atoms(kb, j):
    return frozenset(name for i, name in enumerate(kb.signature.atoms) if j >> i & 1)


def strata(model):
    """Worlds grouped by rank, as sets of true-atom frozensets."""
    return {
        r: {true_atoms(model.kb, j) for j in mask_indices(stratum)}
        for r, stratum in enumerate(model.strata)
    }


def rank_of(model, j):
    return next(r for r, stratum in enumerate(model.strata) if stratum >> j & 1)


def ranks(model):
    """Rank of each world, in ``model.worlds`` order."""
    return tuple(rank_of(model, j) for j in model.worlds)


def holds(kb, j, f):
    return bool(kb.truth.mask(f) >> j & 1)


def class_ids(pref):
    """Class id of each world of a preferential model, by valuation index."""
    return {j: c for c, worlds in enumerate(pref.classes) for j in mask_indices(worlds)}


def below(pref, x, y):
    ids = class_ids(pref)
    return bool(pref.below[ids[y]] >> ids[x] & 1)


def model_views(model, kb):
    """Reference rank partition of each world's violation set, comparison
    order, over the model's own default ranks: the least rank of a world
    where the antecedent holds, or INF when none does."""
    top = len(model.strata)
    default_ranks = [
        min(
            (rank_of(model, j) for j in model.worlds
             if evaluate(c.antecedent, valuation(kb.signature.atoms, j))),
            default=INF,
        )
        for c in kb.conditionals
    ]
    return {
        j: partition(violated(kb, j), default_ranks, top).tuple_view() for j in model.worlds
    }


def world_with(model, *names):
    target = frozenset(names)
    for j in model.worlds:
        if true_atoms(model.kb, j) == target:
            return j
    raise AssertionError(f"no world with exactly {sorted(target)}")


class TestMinimalCanonicalModel:
    def test_taxes_kb_reproduces_the_three_strata(self, taxes_kb):
        model = minimal_canonical_model(taxes_kb)
        s, e, p, y = "Student", "Employee", "Pay_Taxes", "Young"
        expected = {
            0: {frozenset(), frozenset({p}), frozenset({y}), frozenset({p, y}),
                frozenset({e}), frozenset({e, y}), frozenset({e, p}),
                frozenset({e, y, p}), frozenset({s, y})},
            1: {frozenset({s, e, p}), frozenset({s, e, p, y}), frozenset({s}),
                frozenset({s, p}), frozenset({s, p, y})},
            2: {frozenset({s, e}), frozenset({s, e, y})},
        }
        assert strata(model) == expected

    def test_empty_kb_puts_every_valuation_at_rank_zero(self):
        model = minimal_canonical_model(parse_kb(""))
        assert len(model.worlds) == 1  # the empty valuation
        assert set(ranks(model)) == {0}

    def test_unviolable_default_puts_every_valuation_at_rank_zero(self):
        kb = parse_kb("a |~ a\n")
        model = minimal_canonical_model(kb)
        assert len(model.worlds) == 2
        assert set(ranks(model)) == {0}

    def test_unsatisfiable_kb_raises(self):
        kb = parse_kb("true |~ a\ntrue |~ !a\n")
        with pytest.raises(UnsatisfiableKB):
            minimal_canonical_model(kb)

    def test_incompatible_valuations_are_excluded(self, residence_kb):
        model = minimal_canonical_model(residence_kb)
        assert len(model.worlds) == 16  # 32 valuations, half break a hard default
        for w in model.worlds:
            assert not violated(residence_kb, w) & {2, 3, 4}

    def test_world_ranks_agree_with_formula_ranks(self, conflict_kb):
        # compatible formulas take the same rank in the model as in the chain
        rt = compute_ranking(conflict_kb)
        model = minimal_canonical_model(conflict_kb)
        gen = KbGenerator(seed=31)
        for w in range(8):
            f = gen.query(conflict_kb, 0, w).antecedent
            model_rank = model.formula_rank(f)
            chain_rank = rank_of_formula(f, rt, conflict_kb)
            if model_rank is None:
                assert chain_rank == INF
            else:
                assert chain_rank == model_rank


class TestViolations:
    def test_taxes_kb_violation_sets(self, taxes_kb):
        model = minimal_canonical_model(taxes_kb)
        w = world_with(model, "Student", "Employee", "Pay_Taxes", "Young")
        z = world_with(model, "Student", "Employee", "Pay_Taxes")
        assert violated(taxes_kb, w) == frozenset({0})
        assert violated(taxes_kb, z) == frozenset({0, 1})

    def test_rank_zero_worlds_violate_nothing(self, taxes_kb):
        model = minimal_canonical_model(taxes_kb)
        for w in model.worlds:
            if rank_of(model, w) == 0:
                assert violated(taxes_kb, w) == frozenset()

    def test_violation_classes_match_the_reference(self, taxes_kb, merry_kb, residence_kb):
        # one class per violation set, each holding the worlds that violate it
        for kb in (taxes_kb, merry_kb, residence_kb):
            model = minimal_canonical_model(kb)
            refined = preferential_refinement(kb)
            for w, c in class_ids(refined).items():
                assert frozenset(mask_indices(refined.violations[c])) == violated(kb, w)
            assert len(refined.classes) == len({violated(kb, w) for w in model.worlds})


class TestRefinement:
    def test_order_extends_the_rank_order(self, taxes_kb):
        model = minimal_canonical_model(taxes_kb)
        refined = preferential_refinement(taxes_kb)
        for x in model.worlds:
            for y in model.worlds:
                if rank_of(model, x) < rank_of(model, y):
                    assert below(refined, x, y)

    def test_strictly_finer_on_equal_rank_worlds(self, taxes_kb):
        model = minimal_canonical_model(taxes_kb)
        refined = preferential_refinement(taxes_kb)
        w = world_with(model, "Student", "Employee", "Pay_Taxes", "Young")
        z = world_with(model, "Student", "Employee", "Pay_Taxes")
        assert rank_of(model, w) == rank_of(model, z)
        assert below(refined, w, z)
        assert not below(refined, z, w)

    def test_irreflexive(self, taxes_kb):
        model = minimal_canonical_model(taxes_kb)
        refined = preferential_refinement(taxes_kb)
        for w in model.worlds:
            assert not below(refined, w, w)

    def test_refined_model_still_models_the_kb(self, conflict_kb):
        refined = preferential_refinement(conflict_kb)
        for c in conflict_kb.conditionals:
            assert satisfies(refined, c)


class TestConditionalSatisfaction:
    def test_refined_model_decides_employed_students_young(self, taxes_kb):
        model = minimal_canonical_model(taxes_kb)
        refined = preferential_refinement(taxes_kb)
        query, _ = taxes_kb.parse_query("Employee & Student |~ Young")
        assert satisfies(model, query) is False  # two minimal worlds disagree
        assert satisfies(refined, query) is True  # refinement leaves only one

    def test_unique_minimal_world_in_refinement(self, taxes_kb):
        refined = preferential_refinement(taxes_kb)
        query, _ = taxes_kb.parse_query("Employee & Student |~ Young")
        minimal = minimal_worlds(refined, query.antecedent)
        assert {true_atoms(taxes_kb, j) for j in mask_indices(minimal)} == {
            frozenset({"Student", "Employee", "Pay_Taxes", "Young"})
        }

    def test_vacuous_when_antecedent_has_no_world(self, residence_kb):
        model = minimal_canonical_model(residence_kb)
        query, kb = residence_kb.parse_query(
            "Residence_in_Italy & Residence_in_Germany |~ false"
        )
        assert satisfies(model, query) is True


class TestClassOrderReference:
    """The class order, grown slice by slice into predecessor masks, equals
    the world-pair definition: x is below y iff x's violation view is
    set-less than y's.  The wider pool gives views with several nonempty
    finite slices, so the grouping recurses past the first slices."""

    SAMPLES = sorted((Path(__file__).resolve().parent.parent / "samples").glob("*.kb"))

    def pool(self):
        kbs = [parse_kb(path.read_text()) for path in self.SAMPLES]
        assert len(kbs) == 5
        gen = KbGenerator(seed=515151)
        wide = KbGenerator(seed=525252, max_atoms=6, max_defaults=10)
        return (
            kbs
            + [gen.knowledge_base(index) for index in range(25)]
            + [wide.knowledge_base(index) for index in range(60)]
        )

    def test_strictly_below_matches_world_pair_views(self):
        deep = 0  # KBs with a view holding two or more nonempty finite slices
        for kb in self.pool():
            model = minimal_canonical_model(kb)
            refined = preferential_refinement(kb)
            views = model_views(model, kb)
            deep += any(sum(map(bool, view[1:])) >= 2 for view in views.values())
            world_pairs = {
                (x, y)
                for x in model.worlds
                for y in model.worlds
                if set_tuple_less(views[x], views[y])
            }
            ids = class_ids(refined)
            for x in model.worlds:
                for y in model.worlds:
                    assert bool(refined.below[ids[y]] >> ids[x] & 1) == ((x, y) in world_pairs)
            # heights on the class graph equal heights on the world graph;
            # slice sizes, compared lexicographically, order the worlds topologically
            heights: dict[int, int] = {}
            for w in sorted(model.worlds, key=lambda w: tuple(map(len, views[w]))):
                heights[w] = max(
                    (heights[x] + 1 for x, y in world_pairs if y == w), default=0
                )
            class_heights = height_ranks(refined)
            assert tuple(class_heights[ids[w]] for w in model.worlds) == tuple(
                heights[w] for w in model.worlds
            )
            assert layer_ranks(refined) == class_heights
        assert deep > 0


class TestHeightCollapse:
    def test_merry_kb_heights(self, merry_kb):
        collapsed = mpr_model(merry_kb)
        w = world_with(collapsed, "Student", "Adult", "Merry", "Young")
        x = world_with(collapsed, "Student", "Adult", "Serious")
        assert rank_of(collapsed, w) == 1
        assert rank_of(collapsed, x) == 2

    def test_redundant_kb_heights(self, redundant_kb):
        collapsed = mpr_model(redundant_kb)
        x = world_with(collapsed, "a", "c", "e", "f")
        y = world_with(collapsed, "a", "c")
        assert rank_of(collapsed, x) == 2
        assert rank_of(collapsed, y) == 1

    def test_both_height_formulations_agree(self, merry_kb, conflict_kb, residence_kb):
        for kb in (merry_kb, conflict_kb, residence_kb):
            refined = preferential_refinement(kb)
            assert height_ranks(refined) == layer_ranks(refined)

    def test_layer_peel_refuses_a_cycle(self, merry_kb):
        # classes 0 and 1 below each other: no layer is minimal, so the
        # peel raises instead of looping
        refined = preferential_refinement(merry_kb)
        below = [0b10, 0b01] + [0] * (len(refined.classes) - 2)
        with pytest.raises(ValueError):
            layer_ranks(PreferentialModel(merry_kb, refined.classes, below, refined.violations))

    def test_collapse_extends_the_preferential_order(self, merry_kb):
        model = minimal_canonical_model(merry_kb)
        refined = preferential_refinement(merry_kb)
        collapsed = rank_by_height(refined)
        for x in model.worlds:
            for y in model.worlds:
                if below(refined, x, y):
                    assert rank_of(collapsed, x) < rank_of(collapsed, y)

    def test_collapsed_model_still_models_the_kb(self, merry_kb):
        collapsed = mpr_model(merry_kb)
        for c in merry_kb.conditionals:
            assert satisfies(collapsed, c)

    def test_pointwise_minimal_among_rank_extensions(self):
        # any rank function whose modular order extends the refined order is
        # pointwise >= the height collapse; checked by bounded enumeration
        kb = parse_kb("a |~ b\na & !b |~ c\n")
        model = minimal_canonical_model(kb)
        refined = preferential_refinement(kb)
        worlds = model.worlds
        ids = class_ids(refined)
        class_heights = height_ranks(refined)
        heights = [class_heights[ids[j]] for j in worlds]
        assert len(worlds) <= 8
        below_pairs = [
            (x, y)
            for x in range(len(worlds))
            for y in range(len(worlds))
            if below(refined, worlds[x], worlds[y])
        ]
        top = max(heights) + 1
        for candidate in itertools.product(range(top + 1), repeat=len(worlds)):
            if 0 not in candidate:
                continue
            if all(candidate[x] < candidate[y] for x, y in below_pairs):
                assert all(h <= c for h, c in zip(heights, candidate))


class TestCanonicalMinimality:
    def test_pointwise_minimal_among_canonical_models(self):
        # brute force on a tiny instance: among rank functions over the same
        # worlds that still model every default, the constructed one is
        # pointwise lowest
        kb = parse_kb("a |~ b\na & !b |~ c\n")
        rt = compute_ranking(kb)
        model = minimal_canonical_model(kb, rt)
        worlds = model.worlds
        top = max(ranks(model)) + 1

        def models_kb(candidate):
            for c in kb.conditionals:
                holders = [i for i, j in enumerate(worlds) if holds(kb, j, c.antecedent)]
                if not holders:
                    continue
                least = min(candidate[i] for i in holders)
                for i in holders:
                    if candidate[i] == least and not holds(kb, worlds[i], c.consequent):
                        return False
            return True

        found_alternative = False
        for candidate in itertools.product(range(top + 1), repeat=len(worlds)):
            if 0 not in candidate or not models_kb(candidate):
                continue
            found_alternative = True
            assert all(r <= c for r, c in zip(ranks(model), candidate))
        assert found_alternative  # at least the constructed ranks themselves

    @pytest.mark.parametrize("seed", [3, 17])
    def test_order_inclusion_chain_on_random_pool(self, seed):
        # rank order is included in the refined order, which is included in
        # the height order
        gen = KbGenerator(seed=seed, max_atoms=3, max_defaults=5)
        for index in range(10):
            kb = gen.knowledge_base(index)
            model = minimal_canonical_model(kb)
            refined = preferential_refinement(kb)
            collapsed = rank_by_height(refined)
            for x in model.worlds:
                for y in model.worlds:
                    if rank_of(model, x) < rank_of(model, y):
                        assert below(refined, x, y)
                    if below(refined, x, y):
                        assert rank_of(collapsed, x) < rank_of(collapsed, y)


class TestMprQueries:
    def test_merry_kb_accepts_young(self, merry_kb):
        rt = compute_ranking(merry_kb)
        query, _ = merry_kb.parse_query("Student & Adult |~ Young")
        assert mpr_query(merry_kb, rt, query) is True
        assert mp_query(merry_kb, rt, query) is False

    def test_redundant_kb_disagrees_with_count_ordering(self, redundant_kb):
        rt = compute_ranking(redundant_kb)
        q_not_e, _ = redundant_kb.parse_query("a & c |~ !e")
        q_e, _ = redundant_kb.parse_query("a & c |~ e")
        assert mpr_query(redundant_kb, rt, q_not_e) is True
        assert mpr_query(redundant_kb, rt, q_e) is False
        assert lc_query(redundant_kb, rt, q_not_e) is False
        assert lc_query(redundant_kb, rt, q_e) is True

    def test_mpr_contains_mp_on_random_pool(self):
        gen = KbGenerator(seed=616161)
        for index in range(20):
            kb = gen.knowledge_base(index)
            rt = compute_ranking(kb)
            for w in range(5):
                q = gen.query(kb, index, w)
                if mp_query(kb, rt, q):
                    assert mpr_query(kb, rt, q)


class TestLeastHeightWorlds:
    """mpr's minimal worlds, streamed from the split of the antecedent's
    worlds, equal those of the reference collapse, and each distinct
    antecedent mask is split once, after the KB's one full split."""

    def pool(self):
        """The samples and the generated pool of ``test_metamorphic`` with
        their queries, then the two generated pools of the class-order
        reference with each KB's defaults and ``sample_queries``."""
        for pool in POOLS.values():
            yield from pool()
        for kb in TestClassOrderReference().pool()[5:]:
            yield kb, [*kb.conditionals, *sample_queries(kb)]

    def test_equal_the_reference_collapses_minimal_worlds(self):
        for kb, queries in self.pool():
            collapsed = rank_by_height(preferential_refinement(kb))
            for q in queries:
                want = minimal_worlds(collapsed, q.antecedent)
                assert least_height_worlds(kb, kb.mask(q.antecedent)) == want, q.text()

    def test_no_world_gives_zero(self, residence_kb):
        for kb, _ in POOLS["samples"]():
            assert least_height_worlds(kb, 0) == 0
        assert least_height_worlds(parse_kb(""), 0) == 0
        incompatible = residence_kb.truth.full & ~minimal_canonical_model(residence_kb).world_mask
        assert incompatible
        assert least_height_worlds(residence_kb, incompatible) == 0

    def test_one_full_split_then_one_split_per_antecedent(self, merry_kb, monkeypatch):
        split = semantics.violation_classes
        splits = []

        def counted(kb, within):
            splits.append(within)
            return split(kb, within)

        monkeypatch.setattr(semantics, "violation_classes", counted)
        rt = compute_ranking(merry_kb)
        queries = [*merry_kb.conditionals, *sample_queries(merry_kb)]
        for q in queries:
            mpr_query(merry_kb, rt, q)
        full = merry_kb.truth.full
        antecedents = [merry_kb.mask(q.antecedent) for q in queries]
        assert len(set(antecedents)) < len(antecedents)  # some antecedent comes back
        assert splits == [full, *dict.fromkeys(antecedents)]  # each distinct mask once


class TestFixedPoint:
    def test_empty_kb_model_is_fixed(self):
        kb = parse_kb("")
        assert is_refinement_fixed_point(kb)

    def test_flat_model_is_fixed(self):
        kb = parse_kb("a |~ a\nb |~ b\n")
        model = minimal_canonical_model(kb)
        assert set(ranks(model)) == {0}
        assert is_refinement_fixed_point(kb)

    def test_last_chain_position_admitting_no_world_is_fixed(self):
        # the chain ({0, 1, 2}, {1, 2}) has equal masks: its last position
        # adds no world, so every world sits at rank 0 and nothing moves
        kb = parse_kb("z |~ z\nx |~ y\nx |~ !y\n")
        assert compute_ranking(kb).chain == (default_mask({0, 1, 2}), default_mask({1, 2}))
        model = minimal_canonical_model(kb)
        assert len(model.worlds) == 4
        assert set(ranks(model)) == {0}
        assert is_refinement_fixed_point(kb)

    def test_merry_kb_canonical_model_is_not_fixed(self, merry_kb):
        # the serious-student world climbs under refinement, so ranks move
        assert is_refinement_fixed_point(merry_kb) is False

    def test_collapse_of_fixed_point_is_itself(self):
        kb = parse_kb("a |~ b\n")
        model = minimal_canonical_model(kb)
        if is_refinement_fixed_point(kb):
            refined = preferential_refinement(kb)
            assert ranks(rank_by_height(refined)) == ranks(model)

    def test_fixed_points_satisfy_the_specificity_condition(self):
        gen = KbGenerator(seed=717171, max_atoms=3, max_defaults=4)
        pool = [parse_kb("a |~ b\n")]  # known fixed point
        pool.extend(gen.knowledge_base(index) for index in range(15))
        found = 0
        for kb in pool:
            model = minimal_canonical_model(kb)
            if not is_refinement_fixed_point(kb):
                continue
            found += 1
            views = model_views(model, kb)
            for x in model.worlds:
                for y in model.worlds:
                    if set_tuple_less(views[x], views[y]):
                        assert rank_of(model, x) < rank_of(model, y)
        assert found > 0


SAMPLE_TEXTS = {path.stem: path.read_text() for path in SAMPLES}


@pytest.mark.parametrize(
    "name, other", [(a, b) for a in SAMPLE_TEXTS for b in SAMPLE_TEXTS if a != b]
)
def test_a_foreign_ranking_table_leaves_the_kbs_own_model(name, other):
    # the canonical model is memoized per table: one built from another
    # KB's table is not the one mpr's violation classes read
    kb, fresh = parse_kb(SAMPLE_TEXTS[name]), parse_kb(SAMPLE_TEXTS[name])
    minimal_canonical_model(kb, compute_ranking(parse_kb(SAMPLE_TEXTS[other])))
    gen = KbGenerator(seed=1)
    for index, which in itertools.product(range(8), range(5)):
        query = gen.query(fresh, index, which)
        assert compare_all(kb, query)["mpr"] == compare_all(fresh, query)["mpr"], query


class TestEngineAgreement:
    """The central cross-checks: syntactic answers equal model answers."""

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_rc_and_mp_match_their_models(self, seed):
        gen = KbGenerator(seed=seed)
        for index in range(15):
            kb = gen.knowledge_base(index)
            rt = compute_ranking(kb)
            canonical = minimal_canonical_model(kb, rt)
            refined = preferential_refinement(kb)
            for w in range(5):
                q = gen.query(kb, index, w)
                assert rc_query(kb, rt, q) == satisfies(canonical, q)
                assert mp_query(kb, rt, q) == satisfies(refined, q)


REFERENCE_NAMES = (
    "PreferentialModel", "preferential_refinement", "height_ranks", "layer_ranks",
    "rank_by_height", "mpr_model", "satisfies", "minimal_worlds",
)


class TestReferenceForwarder:
    """The reference construction is defined in ``harness``; ``semantics``
    holds only the engines and forwards the reference's names there."""

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_each_name_is_the_harness_one(self, name):
        assert name not in vars(semantics)
        assert getattr(semantics, name) is getattr(harness, name)

    @pytest.mark.parametrize("name", ["Model", "mpr_strata"])
    def test_any_other_missing_name_raises(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(semantics, name)

    def test_import_leaves_the_harness_out(self):
        probe = "import sys, defq.semantics; print('defq.harness' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV, timeout=60
        )
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
