import logging
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefpipe._util import Tally
from prefpipe.core import InteractionTriple, UserHistory
from prefpipe.errors import ContractError, ValidationError
from prefpipe.modelio import ModelClient, ModelEndpoint, ScriptBackend
from prefpipe.prompts import render_history_block
from prefpipe.simlab import ScriptedEmbedderBackend, gen_population
from prefpipe.transferbench import (
    InjectionResult,
    NoiseConfig,
    UserPair,
    embed_history,
    inject_corpus,
    inject_secondary,
    match_users,
    pick_donors,
    swap_targets,
)


def reconstruct_primary(result):
    """The oracle for an injection: drop the injected positions and restore
    the surviving triples' original indices."""
    injected = set(result.injected_positions)
    triples = tuple(
        replace(t, index=result.source_indices[pos])
        for pos, t in enumerate(result.history.triples)
        if pos not in injected
    )
    return UserHistory(user_id=result.history.user_id, triples=triples, dataset_tag=result.history.dataset_tag)


def client_for(backend):
    return ModelClient(ModelEndpoint(base_url="mock:embedder"), backend=backend, sleep=lambda s: None)


def embed_client(dim=6):
    return client_for(ScriptedEmbedderBackend(dim=dim))


def embed_history_text(history):
    return render_history_block(history.triples)


def unit_rows(rng, n, dim=8):
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def make_history(n, user_id="u1", tag="test"):
    triples = tuple(
        InteractionTriple(
            index=i,
            chosen=f"item-{user_id}-{i}-pos",
            rejected=f"item-{user_id}-{i}-neg",
            context=f"query {i}" if i % 3 == 0 else None,
        )
        for i in range(n)
    )
    return UserHistory(user_id=user_id, triples=triples, dataset_tag=tag)


class TestMatchUsers:
    def corpora(self):
        corpus_a, _ = gen_population(seed=5, n_users=3, dim=6, history_len=8, user_prefix="a")
        corpus_b, _ = gen_population(seed=6, n_users=3, dim=6, history_len=8, user_prefix="b")
        return corpus_a, corpus_b

    def test_identical_corpora_match_themselves(self):
        corpus, _ = gen_population(seed=7, n_users=6, dim=6, history_len=8)
        pairs = match_users(embed_client(), corpus, corpus, top_k=6)
        assert {(p.user_a, p.user_b) for p in pairs} == {(h.user_id, h.user_id) for h in corpus}
        assert all(p.similarity > 1.0 - 1e-6 for p in pairs)

    def test_matches_exhaustive_enumeration(self):
        corpus_a, corpus_b = self.corpora()
        client = embed_client()
        sims = {
            (ha.user_id, hb.user_id): float(embed_history(client, ha) @ embed_history(client, hb))
            for ha in corpus_a
            for hb in corpus_b
        }
        expected = sorted(sims.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        pairs = match_users(client, corpus_a, corpus_b, top_k=9)
        assert [(p.user_a, p.user_b) for p in pairs] == [k for k, _ in expected]
        for p, (_, sim) in zip(pairs, expected):
            assert p.similarity == pytest.approx(sim, abs=1e-9)

    @pytest.mark.parametrize("top_k", [1, 5, 17, 40, 120, 300])
    def test_ties_match_brute_force_ranking(self, top_k):
        # 4 unit embeddings whose inner products (-0.5, 0, 0.5, 1) are exact in
        # any summation order, over 15 + 20 users: every similarity value is
        # shared by dozens of pairs, so the top-k boundary falls inside a tie
        rng = random.Random(3)
        directions = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.5] * 4, [0.5, -0.5, 0.5, -0.5]]
        pick = {}
        corpus_a = [make_history(2, user_id=f"a{i:02d}") for i in rng.sample(range(15), 15)]
        corpus_b = [make_history(2, user_id=f"b{i:02d}") for i in rng.sample(range(20), 20)]
        for h in corpus_a + corpus_b:
            pick[embed_history_text(h)] = rng.choice(directions)
        client = client_for(ScriptBackend(embedder=lambda text: pick[text]))
        brute = sorted(
            (
                (float(np.dot(pick[embed_history_text(ha)], pick[embed_history_text(hb)])), ha.user_id, hb.user_id)
                for ha in corpus_a
                for hb in corpus_b
            ),
            key=lambda t: (-t[0], t[1], t[2]),
        )
        pairs = match_users(client, corpus_a, corpus_b, top_k=top_k)
        assert [(p.similarity, p.user_a, p.user_b) for p in pairs] == brute[:top_k]

    def test_top_k_truncates(self):
        corpus_a, corpus_b = self.corpora()
        all_pairs = match_users(embed_client(), corpus_a, corpus_b, top_k=9)
        top3 = match_users(embed_client(), corpus_a, corpus_b, top_k=3)
        assert top3 == all_pairs[:3]

    def test_validation(self):
        corpus_a, corpus_b = self.corpora()
        with pytest.raises(ValidationError):
            match_users(embed_client(), corpus_a, corpus_b, top_k=0)
        with pytest.raises(ValidationError):
            match_users(embed_client(), corpus_a, corpus_b, top_k=10)
        with pytest.raises(ValidationError):
            match_users(embed_client(), [], corpus_b, top_k=1)

    @pytest.mark.parametrize("n_a, n_b", [(60, 700), (2, 20000)], ids=["several-blocks", "row-wider-than-a-block"])
    def test_matches_brute_force_over_blocks(self, n_a, n_b):
        # a few random unit vectors, each shared by many users under shuffled
        # ids, so equal similarities recur in every block of the ranking walk
        rng = np.random.default_rng(n_a)

        def corpus(n, prefix, distinct):
            pool = unit_rows(rng, distinct)
            return [(f"{prefix}{i:05d}", pool[rng.integers(distinct)]) for i in rng.permutation(n)]

        corpus_a, corpus_b = corpus(n_a, "a", 5), corpus(n_b, "b", 4)
        sims = np.stack([v for _, v in corpus_a]) @ np.stack([v for _, v in corpus_b]).T
        brute = sorted(
            ((float(sims[i, j]), a, b) for i, (a, _) in enumerate(corpus_a) for j, (b, _) in enumerate(corpus_b)),
            key=lambda t: (-t[0], t[1], t[2]),
        )
        total = len(brute)
        assert len({s for s, _, _ in brute}) < 50  # every value is tied many times over
        for top_k in (1, 7, total // 2, total):
            pairs = match_users(embed_client(), corpus_a, corpus_b, top_k=top_k)
            assert [(p.similarity, p.user_a, p.user_b) for p in pairs] == brute[:top_k]

    def test_ranking_holds_little_beyond_the_product(self):
        rng = np.random.default_rng(0)
        corpus_a = [(f"a{i}", v) for i, v in enumerate(unit_rows(rng, 600))]
        corpus_b = [(f"b{i}", v) for i, v in enumerate(unit_rows(rng, 700))]
        product = 600 * 700 * 8  # bytes of the float64 similarities
        tracemalloc.start()
        try:
            match_users(embed_client(), corpus_a, corpus_b, top_k=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * product

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), 1e200, 1.0 + 2e-6], ids=["nan", "inf", "-inf", "huge", "long"]
    )
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_vector_is_a_contract_error(self, side, bad):
        """Every similarity is a cosine in [-1, 1] only for unit vectors: a
        vector that is not finite, or whose norm is off 1 by more than 1e-6,
        names its user."""
        corpus = {
            "a": [("a1", [0.6, 0.8]), ("a2", [1.0, 0.0]), ("a3", [0.0, 1.0])],
            "b": [("b1", [1.0, 0.0]), ("b2", [0.0, 1.0]), ("b3", [0.8, 0.6])],
        }
        corpus[side][1] = (f"{side}2", [bad, 0.0])
        corpus[side][2] = (f"{side}3", [0.0, bad])
        with pytest.raises(ContractError, match=f"user {side}2 "):
            match_users(embed_client(), corpus["a"], corpus["b"], top_k=1)

    def test_dimension_mismatch_rejected(self):
        backend = ScriptBackend(
            embedder=lambda t: [1.0, 0.0, 0.0] if "corpA" in t else [1.0, 0.0, 0.0, 0.0]
        )
        corpus_a = [make_history(3, "corpA-u1"), make_history(3, "corpA-u2")]
        corpus_b = [make_history(3, "corpB-u1")]
        with pytest.raises(ContractError, match="dimension"):
            match_users(client_for(backend), corpus_a, corpus_b, top_k=1)


class TestSwapTargets:
    def targets_for(self, histories):
        return {h.user_id: h.triples[-1] for h in histories}

    def test_each_pair_yields_two_crossed_instances(self):
        ha, hb = make_history(4, "ua"), make_history(4, "ub")
        targets = self.targets_for([ha, hb])
        pairs = [UserPair(user_a="ua", user_b="ub", similarity=0.9)]
        instances, stats = swap_targets(pairs, targets)
        assert stats == {"pairs_in": 1, "pairs_skipped": 0, "instances": 2}
        first, second = instances
        assert (first["user_id"], first["target_user"]) == ("ua", "ub")
        assert first["item_a"] == targets["ub"].chosen
        assert first["item_b"] == targets["ub"].rejected
        assert (second["user_id"], second["target_user"]) == ("ub", "ua")
        assert second["item_a"] == targets["ua"].chosen
        assert all(i["truth"] == "A" and i["origin"] == "cross-swap" for i in instances)
        assert all(i["similarity"] == 0.9 for i in instances)

    def test_self_pairs_reproduce_own_targets(self):
        h = make_history(5, "ua")
        instances, stats = swap_targets([UserPair("ua", "ua", 1.0)], self.targets_for([h]))
        assert stats["instances"] == 2
        assert all(i["user_id"] == i["target_user"] == "ua" for i in instances)
        assert all(i["item_a"] == h.triples[-1].chosen for i in instances)

    def test_missing_or_pairless_targets_skip_pairs(self):
        ha, hb = make_history(4, "ua"), make_history(4, "ub")
        targets = self.targets_for([ha, hb])
        targets["uc"] = InteractionTriple(index=0, chosen="solo", rejected=None)
        pairs = [
            UserPair("ua", "ub", 0.9),
            UserPair("ua", "ux", 0.8),  # no target at all
            UserPair("uc", "ub", 0.7),  # positive-only target
        ]
        instances, stats = swap_targets(pairs, targets)
        assert stats == {"pairs_in": 3, "pairs_skipped": 2, "instances": 2}
        assert {i["user_id"] for i in instances} == {"ua", "ub"}

    def test_skips_are_logged_once_per_reason(self, caplog):
        ha, hb = make_history(4, "ua"), make_history(4, "ub")
        targets = self.targets_for([ha, hb])
        targets["uc"] = InteractionTriple(index=0, chosen="solo", rejected=None)
        pairs = [UserPair("ua", f"ghost{i}", 0.5) for i in range(3)] + [UserPair("uc", "ub", 0.4)] * 2
        skipped = Tally()
        with caplog.at_level(logging.DEBUG, logger="prefpipe"):
            _, stats = swap_targets(pairs, targets, skipped)
            assert not caplog.records  # the stage that passed the tally logs it
            skipped.log(logging.getLogger("prefpipe.cli"), logging.WARNING, "item(s) skipped")
        assert stats["pairs_skipped"] == 5
        assert skipped.counts() == {"no target": 3, "pairless target": 2}
        assert [r.getMessage() for r in caplog.records] == [
            "3 item(s) skipped (no target), first: (ua, ghost0)",
            "2 item(s) skipped (pairless target), first: (uc, ub)",
        ]


class TestPickDonors:
    @pytest.mark.parametrize(
        "donor_ids",
        [
            ["u1", "u2", "u3"],
            ["u2", "u1", "u1", "u3", "u1"],  # the primary repeats
            ["u3", "u3", "u2", "u3"],  # another user repeats
            ["u1", "u1"],  # only the primary: fall back to every donor
            ["u1"],
        ],
    )
    def test_picks_match_the_pool_building_rule(self, donor_ids):
        donors = [make_history(1, user_id=uid, tag=f"d{pos}") for pos, uid in enumerate(donor_ids)]
        primaries = [make_history(1, user_id=uid) for uid in ("u1", "u2", "u3", "u4")] * 5
        for seed in range(10):
            rule_rng = random.Random(seed)
            expected = []
            for primary in primaries:
                pool = [d for d in donors if d.user_id != primary.user_id] or donors
                expected.append(pool[rule_rng.randrange(len(pool))])
            picks = [donor for _, donor in pick_donors(primaries, donors, random.Random(seed))]
            assert all(p is e for p, e in zip(picks, expected)) and len(picks) == len(expected)


class TestInjectCorpus:
    def test_matches_one_injection_per_picked_donor(self):
        primaries = [make_history(n, user_id=f"p{n}") for n in range(1, 9)]
        donors = [make_history(6, user_id=f"d{i}") for i in range(3)]
        config = NoiseConfig(intensity=0.4, seed=5)
        expected = [inject_secondary(p, d, config) for p, d in pick_donors(primaries, donors, random.Random(2))]
        assert list(inject_corpus(iter(primaries), donors, config, random.Random(2))) == expected

    def test_capped_donors_are_logged_in_one_line(self, caplog):
        primaries = [make_history(8, user_id=f"p{i}") for i in range(4)]
        donors = [make_history(2, user_id="d0")]
        skipped = Tally()
        with caplog.at_level(logging.DEBUG, logger="prefpipe"):
            results = list(inject_corpus(primaries, donors, NoiseConfig(intensity=0.5, seed=1), random.Random(0), skipped))
            assert not caplog.records  # the stage that passed the tally logs it
            skipped.log(logging.getLogger("prefpipe.cli"), logging.WARNING, "item(s) skipped")
        assert all(len(r.injected_positions) == 2 for r in results)
        assert skipped.counts() == {"donor capped: too few triples": 4}
        assert [r.getMessage() for r in caplog.records] == [
            "4 item(s) skipped (donor capped: too few triples), first: user p0: donor d0 has 2, wanted 8",
        ]


class TestInjectSecondary:
    def test_zero_intensity_is_identity(self):
        primary, donor = make_history(6, "u1"), make_history(8, "u2")
        result = inject_secondary(primary, donor, NoiseConfig(intensity=0.0, seed=3))
        assert result.history == primary
        assert result.injected_positions == ()
        assert result.source_indices == tuple(range(6))
        assert result.donor_user == "u2"

    def test_donor_count_hand_case(self):
        # m = round(0.3 * 10 / 0.7) = 4
        primary, donor = make_history(10, "u1"), make_history(12, "u2")
        result = inject_secondary(primary, donor, NoiseConfig(intensity=0.3, seed=3))
        assert len(result.history) == 14
        assert len(result.injected_positions) == 4

    def test_both_source_orders_are_preserved(self):
        primary, donor = make_history(10, "u1"), make_history(12, "u2")
        result = inject_secondary(primary, donor, NoiseConfig(intensity=0.4, seed=5))
        injected = set(result.injected_positions)
        kept = [t.chosen for pos, t in enumerate(result.history.triples) if pos not in injected]
        added = [t.chosen for pos, t in enumerate(result.history.triples) if pos in injected]
        assert kept == [t.chosen for t in primary.triples]
        donor_order = [t.chosen for t in donor.triples]
        assert added == sorted(added, key=donor_order.index)
        assert all("u2" in c for c in added)

    def test_fused_indices_are_renumbered(self):
        primary, donor = make_history(5, "u1"), make_history(9, "u2")
        result = inject_secondary(primary, donor, NoiseConfig(intensity=0.5, seed=1))
        assert [t.index for t in result.history.triples] == list(range(len(result.history)))
        assert len(result.source_indices) == len(result.history)

    def test_injection_is_exactly_reversible(self):
        rng = random.Random(42)
        for trial in range(50):
            n = rng.randint(1, 12)
            primary = make_history(n, f"p{trial}")
            donor = make_history(12, f"d{trial}")
            config = NoiseConfig(intensity=rng.choice([0.0, 0.1, 0.25, 0.4, 0.6]), seed=trial)
            result = inject_secondary(primary, donor, config)
            assert reconstruct_primary(result).to_dict() == primary.to_dict()

    def test_short_donor_caps_injection(self):
        primary, donor = make_history(10, "u1"), make_history(3, "u2")
        result = inject_secondary(primary, donor, NoiseConfig(intensity=0.5, seed=2))
        assert len(result.injected_positions) == 3
        assert reconstruct_primary(result).to_dict() == primary.to_dict()

    def test_deterministic_in_seed(self):
        primary, donor = make_history(8, "u1"), make_history(10, "u2")
        r1 = inject_secondary(primary, donor, NoiseConfig(intensity=0.3, seed=9))
        r2 = inject_secondary(primary, donor, NoiseConfig(intensity=0.3, seed=9))
        assert r1 == r2

    def test_validation(self):
        donor = make_history(5, "u2")
        with pytest.raises(ValidationError):
            inject_secondary(UserHistory(user_id="u1", triples=()), donor, NoiseConfig(intensity=0.3))
        with pytest.raises(ValidationError):
            NoiseConfig(intensity=1.0)
        with pytest.raises(ValidationError):
            NoiseConfig(intensity=-0.1)


def test_injection_result_fields_are_consistent():
    primary, donor = make_history(7, "u1"), make_history(9, "u2")
    result = inject_secondary(primary, donor, NoiseConfig(intensity=0.25, seed=4))
    assert isinstance(result, InjectionResult)
    for pos in result.injected_positions:
        assert 0 <= pos < len(result.history)
    # source indices at injected positions refer to donor triples
    donor_by_index = {t.index: t for t in donor.triples}
    for pos in result.injected_positions:
        src = result.source_indices[pos]
        assert result.history.triples[pos].chosen == donor_by_index[src].chosen


_ITEMS = st.text(alphabet="abcxyz -", min_size=1, max_size=8)


@st.composite
def _histories(draw, user_id):
    """Random histories: sparse increasing indices, optional rejections and contexts."""
    indices = sorted(draw(st.sets(st.integers(0, 200), min_size=1, max_size=14)))
    triples = []
    for i in indices:
        chosen = draw(_ITEMS)
        rejected = draw(st.none() | _ITEMS.filter(lambda r, c=chosen: r != c))
        triples.append(InteractionTriple(index=i, chosen=chosen, rejected=rejected, context=draw(st.none() | _ITEMS)))
    return UserHistory(user_id=user_id, triples=tuple(triples), dataset_tag=draw(st.none() | st.just("tag")))


@given(
    _histories("p"),
    _histories("d"),
    st.integers(0, 2**32),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_reconstruct_inverts_inject(primary, donor, seed, intensity):
    result = inject_secondary(primary, donor, NoiseConfig(intensity=intensity, seed=seed))
    assert reconstruct_primary(result) == primary
