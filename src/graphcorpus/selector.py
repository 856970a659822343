"""Reasoning-path selection and the DPO preference objective.

Path selection tokenizes each text once per call: `features` turns the
texts into records (tokens, token set, tf-idf vector, hashed embedding),
and the four similarity metrics (token edit ratio, Jaccard, tf-idf cosine,
hashed-embedding cosine) read two records. The metrics nominate
candidates that disagree with an anchor path; a seeded k-means over the
records' embeddings adds cluster medoids. Everything is deterministic for
a fixed seed: all ties break on (similarity, text, index).

The edit ratio's token Levenshtein distance comes from the bit-parallel
algorithm of Myers (1999) in Hyyro's (2001) Levenshtein form. It returns
exactly the distance of the textbook O(n*m) dynamic program, in
O(ceil(m/w)*n) word operations.

The numeric code is standard-library arithmetic that no summation order
or BLAS kernel can round differently. A tf-idf vector maps each token to
count * idf over the vector's l2 norm, and its cosine is the math.fsum of
the products over shared tokens; fsum rounds the exact sum once. An
embedding is a text's integer bucket counts and their integer squared
norm, and its cosine is dot / sqrt(na * nb) with an exact integer dot. The
k-means (k-means++ seeding, then at most 50 Lloyd rounds) never forms a
centroid vector: a cluster is its member list, and the squared distance
from unit embedding p_i to the members' mean is G_ii - 2 mean_m G_im +
mean_m,m' G_mm' over the Gram matrix G of the unit embeddings. Its draws
come from random.Random(seed). SFT rows record SELECTOR_VERSION, so rows
picked by another selector can be told apart.

TfidfModel (the fit and every text's vector) and HashingEmbedder.embed
stay separate calls inside `features` because the benchmark's traced run
times them by these names, as it does `similarity` and `_kmeans_medoids`.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable
from itertools import accumulate
from typing import NamedTuple

from .errors import InvalidSpecError

METRICS = ("edit", "jaccard", "tfidf", "embedding")
EMBED_DIM = 256          # buckets of the hashed embedding
SELECTOR_VERSION = 2     # SFT rows record it; bump when select_diverse changes

_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def token_edit_distance(a: list[str], b: list[str]) -> int:
    """Levenshtein distance between two token sequences (Myers/Hyyro).

    Bit i of pv/mv is a +1/-1 vertical delta in DP row i of the longer
    sequence; each token of the shorter one advances one column. Python ints
    hold the bit vectors, so no length needs splitting into 64-bit blocks.
    """
    if len(a) < len(b):
        a, b = b, a
    peq: dict[str, int] = {}
    bit = 1
    for tok in a:
        peq[tok] = peq.get(tok, 0) | bit
        bit <<= 1
    mask = bit - 1
    high = bit >> 1
    pv, mv, dist = mask, 0, len(a)
    for tok in b:
        eq = peq.get(tok, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (mask & ~(xh | pv))
        mh = pv & xh
        if ph & high:
            dist += 1
        elif mh & high:
            dist -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (mask & ~(xv | ph))
        mv = ph & xv
    return dist


class TfidfModel:
    """Tiny tf-idf fit on one candidate set: an l2-normed vector per text."""

    def __init__(self, corpus: list[list[str]]):
        df = Counter(tok for tokens in corpus for tok in set(tokens))
        n = len(corpus)
        idf = {tok: math.log((1 + n) / (1 + d)) + 1.0 for tok, d in df.items()}
        self.vocabulary = idf.keys()
        self.vectors: list[dict[str, float]] = []
        for tokens in corpus:
            weights = {tok: count * idf[tok]
                       for tok, count in Counter(tokens).items()}
            norm = math.sqrt(math.fsum(w * w for w in weights.values()))
            self.vectors.append({tok: w / norm for tok, w in weights.items()})


Embedding = tuple[dict[int, int], int]     # bucket counts, squared norm


def _cosine(a: Embedding, b: Embedding) -> float:
    """Cosine of two embeddings; 0.0 when either text has no tokens."""
    (ca, na), (cb, nb) = a, b
    if not na or not nb:
        return 0.0
    if len(cb) < len(ca):
        ca, cb = cb, ca
    return sum([c * cb.get(k, 0) for k, c in ca.items()]) / math.sqrt(na * nb)


class HashingEmbedder:
    """Bag-of-words embedding: md5 token hashing into EMBED_DIM buckets."""

    def __init__(self, vocabulary: Iterable[str]):
        self.buckets = {
            tok: int.from_bytes(hashlib.md5(tok.encode("utf-8")).digest()[:8],
                                "big") % EMBED_DIM
            for tok in vocabulary}

    def embed(self, tokens: list[str]) -> Embedding:
        counts = Counter(self.buckets[tok] for tok in tokens)
        return dict(counts), sum(c * c for c in counts.values())


class Features(NamedTuple):
    """What the four metrics read of one text."""
    tokens: list[str]
    token_set: set[str]
    tfidf: dict[str, float]
    embedding: Embedding


def features(texts: list[str]) -> list[Features]:
    """One record per text from one tokenization; tf-idf is fit on texts."""
    tokens = [tokenize(t) for t in texts]
    tfidf = TfidfModel(tokens)
    embedder = HashingEmbedder(tfidf.vocabulary)
    return [Features(toks, set(toks), vector, embedder.embed(toks))
            for toks, vector in zip(tokens, tfidf.vectors)]


def similarity(a: Features, b: Features, metric: str) -> float:
    """Similarity in [0, 1] of two records from one `features` call, whose
    tf-idf vectors share one fit."""
    if metric == "edit":      # 1 - normalized token Levenshtein distance
        longest = max(len(a.tokens), len(b.tokens))
        if not longest:
            return 1.0
        return 1.0 - token_edit_distance(a.tokens, b.tokens) / longest
    if metric == "jaccard":
        if not a.token_set and not b.token_set:
            return 1.0
        return len(a.token_set & b.token_set) / len(a.token_set | b.token_set)
    if metric == "tfidf":
        va, vb = a.tfidf, b.tfidf
        if len(vb) < len(va):
            va, vb = vb, va
        return math.fsum(w * vb[tok] for tok, w in va.items() if tok in vb)
    if metric == "embedding":
        return (1.0 + _cosine(a.embedding, b.embedding)) / 2.0
    raise InvalidSpecError(f"unknown similarity metric: {metric}")


def _kmeans_medoids(embeddings: list[Embedding], k: int,
                    seed: int) -> list[int]:
    """Seeded k-means++ then Lloyd; returns one medoid index per cluster.

    A cluster is its member list and its centroid their mean, so every
    distance comes from the Gram matrix of the unit embeddings.
    """
    n = len(embeddings)
    gram = [[0.0] * n for _ in range(n)]
    for i, a in enumerate(embeddings):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = _cosine(a, embeddings[j])

    def distances(clusters: list[list[int]]) -> list[tuple[float, ...]]:
        """Squared distance from each point to each cluster's mean."""
        cols = []
        for c in clusters:      # gram is symmetric: zip walks G_im over m
            m = len(c)
            spread = math.fsum([gram[a][b] for a in c for b in c]) / (m * m)
            cols.append([
                math.fsum((gram[i][i], -2.0 * math.fsum(g) / m, spread))
                for i, g in enumerate(zip(*[gram[a] for a in c]))])
        return list(zip(*cols))

    rng = random.Random(seed)
    clusters = [[int(rng.random() * n)]]
    for _ in range(1, k):
        # rounding can take a distance a hair below 0; a weight may not be
        d2 = [max(0.0, min(row)) for row in distances(clusters)]
        cum = list(accumulate(d2))
        if cum[-1] > 0:
            clusters.append([bisect_right(cum, rng.random() * cum[-1])])
        else:
            clusters.append([int(rng.random() * n)])
    assign: list[int] = []
    for _ in range(50):
        new_assign = [min(range(k), key=row.__getitem__)
                      for row in distances(clusters)]
        if new_assign == assign:
            break
        assign = new_assign
        clusters = [[i for i in range(n) if assign[i] == j] or c
                    for j, c in enumerate(clusters)]
    dist = distances(clusters)
    medoids = []
    for j in range(k):
        members = [i for i in range(n) if assign[i] == j]
        if members:
            medoids.append(min(members, key=lambda i: dist[i][j]))
    return medoids


def _anchor_index(texts: list[str]) -> int:
    """Longest text wins; ties break on lexicographic order, then index."""
    order = sorted(range(len(texts)), key=lambda i: (-len(texts[i]), texts[i], i))
    return order[0]


def select_diverse(texts: list[str], *, cap: int = 5, seed: int = 0) -> list[int]:
    """Pick up to cap diverse paths from one problem's correct samples.

    The longest path anchors the set. Each metric nominates the candidate
    least similar to the anchor, then k-means medoids over the hashed
    embeddings fill in cluster representatives. Duplicated texts are kept
    once. Returns indices into texts, anchor first.
    """
    if cap < 1:
        raise InvalidSpecError("cap must be at least 1")
    if not texts:
        return []
    anchor = _anchor_index(texts)
    candidates = [i for i in range(len(texts)) if i != anchor]
    nominations: list[int] = []
    if candidates:
        feats = features(texts)
        for metric in METRICS:
            best = min(candidates, key=lambda i: (
                similarity(feats[i], feats[anchor], metric), texts[i], i))
            nominations.append(best)
        nominations.extend(_kmeans_medoids(
            [f.embedding for f in feats], min(5, len(texts)), seed))
    picked: list[int] = []
    seen_text: set[str] = set()
    for i in [anchor] + nominations:
        if texts[i] in seen_text:
            continue
        seen_text.add(texts[i])
        picked.append(i)
        if len(picked) >= cap:
            break
    return picked


def select_dispreferred(texts: list[str], anchor: str) -> int:
    """Pick the wrong path most similar to the anchor (hardest negative).

    Each metric votes for its argmax-similarity candidate; majority wins.
    Vote ties prefer the longer text, then the lexicographically smaller.
    """
    if not texts:
        raise InvalidSpecError("no candidates to select from")
    *feats, target = features(texts + [anchor])
    votes: dict[int, int] = {}
    for metric in METRICS:
        best = min(range(len(texts)), key=lambda i: (
            -similarity(feats[i], target, metric), texts[i], i))
        votes[best] = votes.get(best, 0) + 1
    ranked = sorted(votes, key=lambda i: (-votes[i], -len(texts[i]), texts[i], i))
    return ranked[0]


def build_dpo_pair(texts: list[str],
                   correct: list[bool]) -> tuple[int, int] | None:
    """Chosen/rejected indices for one problem, or None when one side is empty."""
    if len(texts) != len(correct):
        raise InvalidSpecError("texts and correctness flags differ in length")
    good = [i for i, ok in enumerate(correct) if ok]
    bad = [i for i, ok in enumerate(correct) if not ok]
    if not good or not bad:
        return None
    anchor_local = _anchor_index([texts[i] for i in good])
    chosen = good[anchor_local]
    rejected_local = select_dispreferred([texts[i] for i in bad], texts[chosen])
    return chosen, bad[rejected_local]


# ---------------------------------------------------------------------------
# DPO objective
# ---------------------------------------------------------------------------

def _softplus(x: float) -> float:
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def dpo_loss(policy_chosen: float, policy_rejected: float,
             ref_chosen: float, ref_rejected: float, beta: float) -> float:
    """-log sigmoid(beta * ((pc - pr) - (rc - rr))), numerically stable."""
    if beta <= 0:
        raise InvalidSpecError("beta must be positive")
    z = beta * ((policy_chosen - policy_rejected) - (ref_chosen - ref_rejected))
    return _softplus(-z)


def dpo_loss_grad(policy_chosen: float, policy_rejected: float,
                  ref_chosen: float, ref_rejected: float,
                  beta: float) -> tuple[float, float, float, float]:
    """Partial derivatives of dpo_loss in argument order."""
    if beta <= 0:
        raise InvalidSpecError("beta must be positive")
    z = beta * ((policy_chosen - policy_rejected) - (ref_chosen - ref_rejected))
    s = _sigmoid(-z)
    return (-beta * s, beta * s, beta * s, -beta * s)
