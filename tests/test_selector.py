import math
import random

import pytest

from graphcorpus.config import PipelineConfig
from graphcorpus.errors import InvalidSpecError
from graphcorpus.generate import generate_task
from graphcorpus.grader import judge
from graphcorpus.sampler import StubBackend, get_profile
from graphcorpus import selector
from graphcorpus.selector import (EMBED_DIM, METRICS, _kmeans_medoids,
                                  build_dpo_pair, features,
                                  select_dispreferred,
                                  select_diverse, similarity,
                                  token_edit_distance, tokenize)
from graphcorpus.tasks import TASK_ORDER
from graphcorpus.textgen import wrap_instruction

from oracles import dpo_loss, dpo_loss_grad, oracle_kmeans_medoids

# the defaults a stage runs with
STAGE = PipelineConfig()


def test_tokenize_lowercases_and_splits():
    assert tokenize("Hello, World! Node 42->7.") == [
        "hello", "world", "node", "42", "7"]
    assert tokenize("") == []


def _sim(a, b, metric):
    """One metric between two texts, from records built for the pair."""
    return similarity(*features([a, b]), metric)


def test_edit_similarity_hand_values():
    assert _sim("a b c", "a b c", "edit") == 1.0
    assert _sim("a b c", "a b d", "edit") == pytest.approx(2 / 3)
    assert _sim("", "", "edit") == 1.0
    assert _sim("", "a", "edit") == 0.0
    assert _sim("x y", "y x", "edit") == _sim("y x", "x y", "edit")


def _dp_distance(ta, tb):
    """Textbook O(n*m) token Levenshtein: the reference for the bit vectors."""
    if len(ta) < len(tb):
        ta, tb = tb, ta
    prev = list(range(len(tb) + 1))
    for i, x in enumerate(ta, 1):
        cur = [i]
        for j, y in enumerate(tb, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def _assert_same_distance(ta, tb):
    want = _dp_distance(ta, tb)
    assert token_edit_distance(ta, tb) == want, (ta, tb)
    assert token_edit_distance(tb, ta) == want, (tb, ta)
    # the ratio a DP-based edit similarity computes; exact float equality
    ratio = 1.0 - want / max(len(ta), len(tb)) if ta or tb else 1.0
    a, b = " ".join(ta), " ".join(tb)
    assert _sim(a, b, "edit") == ratio
    assert _sim(b, a, "edit") == ratio


def _random_tokens(rng, length, alphabet):
    return [f"t{rng.randrange(alphabet)}" for _ in range(length)]


def test_edit_distance_matches_dp_on_random_sequences():
    rng = random.Random(2024)
    ends = random.Random(2025)
    for _ in range(200):
        alphabet = rng.randint(1, 12)
        ta = _random_tokens(rng, rng.randint(0, 200), alphabet)
        if rng.random() < 0.3:      # near copy: a few substitutions/indels
            tb = list(ta)
            for _ in range(rng.randint(0, 6)):
                pos = rng.randint(0, len(tb))
                op = rng.randrange(3)
                if op == 0 or not tb[pos:]:
                    tb.insert(pos, f"t{rng.randrange(alphabet)}")
                elif op == 1:
                    del tb[pos]
                else:
                    tb[pos] = f"t{rng.randrange(alphabet)}"
        else:
            tb = _random_tokens(rng, rng.randint(0, 200), alphabet)
        _assert_same_distance(ta, tb)
        # the same pair inside a shared head and tail, which the distance
        # strips; ends has its own seed, so the pairs above stay as they were
        head = _random_tokens(ends, ends.randint(0, 80), alphabet)
        tail = _random_tokens(ends, ends.randint(0, 80), alphabet)
        _assert_same_distance(head + ta + tail, head + tb + tail)
        _assert_same_distance(head + ta, head + tb)
        _assert_same_distance(ta + tail, tb + tail)


def test_edit_distance_matches_dp_across_word_boundaries():
    rng = random.Random(64)
    lengths = (0, 1, 2, 63, 64, 65, 127, 128, 129, 200)
    for la in lengths:
        for lb in lengths:
            alphabet = rng.choice((1, 2, 3, 12))
            _assert_same_distance(_random_tokens(rng, la, alphabet),
                                  _random_tokens(rng, lb, alphabet))


def test_edit_distance_edge_pairs():
    rng = random.Random(5)
    for n in (1, 63, 64, 65, 128, 129):
        seq = _random_tokens(rng, n, 4)
        _assert_same_distance(seq, seq)
        _assert_same_distance(seq, [])
        _assert_same_distance(seq, seq[::-1])
        _assert_same_distance(seq, seq[1:])
        _assert_same_distance(["t0"] * n, ["t0"] * (n + 1))
    _assert_same_distance([], [])
    assert token_edit_distance(["a"] * 70, []) == 70


def test_jaccard_similarity_hand_values():
    assert _sim("a b", "b c", "jaccard") == pytest.approx(1 / 3)
    assert _sim("a a a b", "b a", "jaccard") == 1.0   # set semantics
    assert _sim("", "", "jaccard") == 1.0
    assert _sim("a", "b", "jaccard") == 0.0


def test_tfidf_similarity():
    dog, fish, _, zebra = features(["cat dog", "cat fish", "bird", "zebra"])
    assert similarity(dog, dog, "tfidf") == pytest.approx(1.0)
    mid = similarity(dog, fish, "tfidf")
    assert 0.0 < mid < 1.0
    assert similarity(dog, fish, "tfidf") == pytest.approx(
        similarity(fish, dog, "tfidf"))
    # texts that share no token
    assert similarity(zebra, dog, "tfidf") == 0.0


def test_embedding_similarity_bounds():
    assert _sim("same text", "same text", "embedding") == pytest.approx(1.0)
    other = _sim("alpha beta", "gamma delta", "embedding")
    assert 0.0 <= other < 1.0


def test_features_are_deterministic():
    texts = ["cat dog", "cat fish", "bird", "cat cat dog dog dog", "zebra", ""]
    for f, again, text in zip(features(texts), features(texts), texts):
        assert f == again
        assert f.tokens == tokenize(text)
        assert f.token_set == set(f.tokens)
        if f.tfidf:
            assert math.fsum(w * w for w in f.tfidf.values()) == \
                pytest.approx(1.0)
        counts, norm2 = f.embedding
        assert norm2 == sum(c * c for c in counts.values())
        assert sum(counts.values()) == len(tokenize(text))


def test_vector_similarities_are_exact():
    rng = random.Random(11)
    texts = [_word_salad(rng, rng.randint(1, 30)) for _ in range(30)] + [""]
    shuffled = []
    for a in texts:
        words = a.split()
        rng.shuffle(words)
        shuffled.append(" ".join(words))
    recs = features(texts + shuffled)
    plain, mixed = recs[:len(texts)], recs[len(texts):]
    empty = plain[-1]
    for a, sa in zip(plain, mixed):
        for b in plain:
            for metric in ("tfidf", "embedding"):
                assert similarity(a, b, metric) == similarity(b, a, metric)
                assert similarity(sa, b, metric) == similarity(a, b, metric)
        if a.tokens:
            assert similarity(a, a, "embedding") == 1.0
            assert similarity(a, sa, "embedding") == 1.0
        assert similarity(a, empty, "embedding") == 0.5


def _clustered_texts(rng, k):
    """Texts drawn from k disjoint five-word vocabularies."""
    texts = []
    for _ in range(rng.randint(2 * k, 30)):
        c = rng.randrange(k)
        texts.append(" ".join(f"c{c}w{rng.randrange(5)}"
                              for _ in range(rng.randint(4, 10))))
    return texts


def _unit_vectors(embedded):
    return [[counts.get(b, 0) / math.sqrt(norm2) for b in range(EMBED_DIM)]
            for counts, norm2 in embedded]


def test_kmeans_medoids_match_dense_reference():
    for seed in range(100):
        rng = random.Random(seed)
        k = rng.randint(2, 5)
        embedded = [f.embedding for f in features(_clustered_texts(rng, k))]
        medoids = _kmeans_medoids(embedded, k, seed)
        assert medoids == oracle_kmeans_medoids(
            _unit_vectors(embedded), k, seed), seed
        assert len(set(medoids)) == len(medoids)
        # fewer distinct texts than clusters: a zero-weight k-means++ draw
        # and clusters left empty
        few = embedded[:rng.randint(1, k - 1)]
        dupes = [rng.choice(few) for _ in range(10)]
        assert _kmeans_medoids(dupes, k, seed) == oracle_kmeans_medoids(
            _unit_vectors(dupes), k, seed), seed


def test_similarity_dispatcher():
    assert _sim("a", "a", "edit") == 1.0
    assert _sim("a", "a", "jaccard") == 1.0
    assert _sim("a", "a", "embedding") == pytest.approx(1.0)
    with pytest.raises(InvalidSpecError):
        _sim("a", "b", "cosine9000")


def _count_tokenize(monkeypatch):
    calls = []
    real = selector.tokenize
    monkeypatch.setattr(selector, "tokenize",
                        lambda text: calls.append(text) or real(text))
    return calls


def test_each_text_is_tokenized_once_per_selection(monkeypatch):
    rng = random.Random(3)
    texts = [_word_salad(rng, rng.randint(4, 16)) for _ in range(9)]
    anchor = _word_salad(rng)
    calls = _count_tokenize(monkeypatch)
    select_diverse(texts, cap=STAGE.cap, seed=STAGE.seed)
    assert len(calls) == len(texts)
    calls.clear()
    select_dispreferred(texts, anchor)
    assert len(calls) == len(texts) + 1


# ---------------------------------------------------------------------------
# diverse selection
# ---------------------------------------------------------------------------

def _brute_force_nominations(texts):
    """Reference argmin pipeline: anchor, then one nominee per metric."""
    anchor = sorted(range(len(texts)),
                    key=lambda i: (-len(texts[i]), texts[i], i))[0]
    candidates = [i for i in range(len(texts)) if i != anchor]
    if not candidates:
        return anchor, []
    recs = features(texts)
    noms = []
    for metric in METRICS:
        noms.append(min(candidates, key=lambda i: (
            similarity(recs[i], recs[anchor], metric), texts[i], i)))
    return anchor, noms


def _word_salad(rng, words=12):
    vocab = ["walk", "edge", "node", "cycle", "path", "visit", "skip",
             "weight", "sum", "flow", "cut", "start", "end", "then"]
    return " ".join(rng.choice(vocab) for _ in range(words))


@pytest.fixture(scope="module")
def stub_path_sets():
    """StubBackend paths under the augment profile, one list per problem.

    These are real transcripts (median ~40 tokens, some past 64), so the
    edit metric runs on multi-word bit vectors, unlike the word salads.
    """
    profile = get_profile("augment")
    sets = []
    for task in TASK_ORDER:
        problems = generate_task(task, 2, seed=5, split="selector", seen=set())
        backend = StubBackend(problems, error_rate=0.4, seed=1)
        for p in problems:
            sets.append((p, backend.generate(wrap_instruction(p.text), profile)))
    longest = max(len(tokenize(t)) for _, texts in sets for t in texts)
    assert longest > 64
    return sets


def _assert_diverse_matches_brute_force(texts, seed):
    anchor, noms = _brute_force_nominations(texts)
    expected = [anchor]
    seen = {texts[anchor]}
    for i in noms:
        if texts[i] not in seen:
            seen.add(texts[i])
            expected.append(i)
    picked = select_diverse(texts, seed=seed, cap=STAGE.cap)
    assert picked[: len(expected)] == expected, f"seed {seed}"
    assert len(picked) <= 5
    assert len({texts[i] for i in picked}) == len(picked)


def test_select_diverse_matches_brute_force_prefix(stub_path_sets):
    for seed in range(50):
        rng = random.Random(seed)
        texts = [_word_salad(rng, rng.randint(4, 16))
                 for _ in range(rng.randint(2, 9))]
        _assert_diverse_matches_brute_force(texts, seed)
    for seed, (_, texts) in enumerate(stub_path_sets):
        _assert_diverse_matches_brute_force(texts, seed)


def test_select_diverse_is_deterministic():
    rng = random.Random(7)
    texts = [_word_salad(rng) for _ in range(8)]
    assert select_diverse(texts, cap=STAGE.cap, seed=3) == select_diverse(
        texts, cap=STAGE.cap, seed=3)


def test_select_diverse_anchor_is_longest():
    texts = ["bb", "aaa a", "c"]
    picked = select_diverse(texts, cap=STAGE.cap, seed=STAGE.seed)
    assert picked[0] == 1
    # length tie breaks to the lexicographically smaller text
    assert select_diverse(["zz", "aa"], cap=STAGE.cap, seed=STAGE.seed)[0] == 1


def test_select_diverse_edge_cases():
    assert select_diverse([], cap=STAGE.cap, seed=STAGE.seed) == []
    assert select_diverse(["only"], cap=STAGE.cap, seed=STAGE.seed) == [0]
    dupes = select_diverse(["same text"] * 6, cap=STAGE.cap, seed=STAGE.seed)
    assert len(dupes) == 1
    assert select_diverse(["a b c", "d e f", "g h i"], cap=1,
                          seed=STAGE.seed) == \
        select_diverse(["a b c", "d e f", "g h i"], cap=STAGE.cap,
                       seed=STAGE.seed)[:1]
    with pytest.raises(InvalidSpecError):
        select_diverse(["x"], cap=0, seed=STAGE.seed)


def test_select_diverse_caps_at_five():
    rng = random.Random(13)
    texts = [_word_salad(rng, 10 + i) for i in range(20)]
    assert len(select_diverse(texts, cap=STAGE.cap, seed=STAGE.seed)) <= 5


# ---------------------------------------------------------------------------
# dispreferred selection
# ---------------------------------------------------------------------------

def test_select_dispreferred_prefers_near_copy():
    anchor = "walk the edge from node one to node two then stop"
    texts = ["completely unrelated words about fish and chips",
             "walk the edge from node one to node two then halt",
             "short text"]
    assert select_dispreferred(texts, anchor) == 1


def _assert_dispreferred_matches_brute_force(texts, anchor):
    recs = features(texts + [anchor])
    votes = {}
    for metric in METRICS:
        best = min(range(len(texts)), key=lambda i: (
            -similarity(recs[i], recs[-1], metric), texts[i], i))
        votes[best] = votes.get(best, 0) + 1
    expected = sorted(votes, key=lambda i: (
        -votes[i], -len(texts[i]), texts[i], i))[0]
    assert select_dispreferred(texts, anchor) == expected


def test_select_dispreferred_matches_brute_force(stub_path_sets):
    for seed in range(50):
        rng = random.Random(1000 + seed)
        anchor = _word_salad(rng)
        texts = [_word_salad(rng, rng.randint(4, 14))
                 for _ in range(rng.randint(1, 8))]
        _assert_dispreferred_matches_brute_force(texts, anchor)
    pairs = 0
    for problem, texts in stub_path_sets:
        good = [t for t in texts if judge(problem, t).correct]
        bad = [t for t in texts if not judge(problem, t).correct]
        if good and bad:
            anchor = min(good, key=lambda t: (-len(t), t))
            _assert_dispreferred_matches_brute_force(bad, anchor)
            pairs += 1
        _assert_dispreferred_matches_brute_force(texts[1:], texts[0])
    assert pairs >= len(stub_path_sets) // 2


def test_select_dispreferred_rejects_empty():
    with pytest.raises(InvalidSpecError):
        select_dispreferred([], "anchor")


# ---------------------------------------------------------------------------
# pair assembly
# ---------------------------------------------------------------------------

def test_build_dpo_pair_picks_sides():
    texts = ["good long answer with many words", "bad answer one",
             "good short", "bad answer two words longer"]
    correct = [True, False, True, False]
    pair = build_dpo_pair(texts, correct)
    assert pair is not None
    chosen, rejected = pair
    assert correct[chosen] is True and correct[rejected] is False
    assert chosen == 0      # longest correct text anchors


def test_build_dpo_pair_needs_both_sides():
    assert build_dpo_pair(["a", "b"], [True, True]) is None
    assert build_dpo_pair(["a", "b"], [False, False]) is None
    assert build_dpo_pair([], []) is None
    with pytest.raises(InvalidSpecError):
        build_dpo_pair(["a"], [True, False])


# ---------------------------------------------------------------------------
# DPO objective
# ---------------------------------------------------------------------------

def test_dpo_loss_at_zero_margin_is_ln2():
    for beta in (0.1, 0.5, 2.0):
        assert dpo_loss(1.3, 0.7, 1.3, 0.7, beta) == pytest.approx(
            math.log(2), abs=1e-12)


def test_dpo_loss_decreases_with_policy_margin():
    losses = [dpo_loss(m, 0.0, 0.0, 0.0, 0.1) for m in
              [x * 0.5 for x in range(-10, 11)]]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < math.log(2) < losses[0]


def test_dpo_loss_is_numerically_stable():
    assert dpo_loss(1e6, 0.0, 0.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    big = dpo_loss(-1e6, 0.0, 0.0, 0.0, 1.0)
    assert big == pytest.approx(1e6)


def test_dpo_grad_matches_finite_differences():
    point = (0.8, -0.3, 0.5, 0.1)
    beta = 0.7
    grads = dpo_loss_grad(*point, beta)
    eps = 1e-6
    for k in range(4):
        hi = list(point)
        lo = list(point)
        hi[k] += eps
        lo[k] -= eps
        fd = (dpo_loss(*hi, beta) - dpo_loss(*lo, beta)) / (2 * eps)
        assert grads[k] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_dpo_grad_signs():
    pc, pr, rc, rr = dpo_loss_grad(0.2, 0.1, 0.0, 0.0, 0.5)
    assert pc < 0 and rr < 0 and pr > 0 and rc > 0
    assert pc == -pr == -rc == rr


def test_dpo_rejects_nonpositive_beta():
    with pytest.raises(InvalidSpecError):
        dpo_loss(1, 0, 0, 0, 0.0)
    with pytest.raises(InvalidSpecError):
        dpo_loss_grad(1, 0, 0, 0, -1.0)
