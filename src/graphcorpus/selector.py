"""Reasoning-path selection and the DPO preference objective.

Path selection works on plain strings. Four similarity metrics (token edit
ratio, Jaccard, tf-idf cosine, hashed-embedding cosine) nominate candidates
that disagree with an anchor path; a seeded k-means over the hashed
embeddings adds cluster medoids. Everything is deterministic for a fixed
seed: all ties break on (similarity, text, index).

The edit ratio's token Levenshtein distance comes from the bit-parallel
algorithm of Myers (1999) in Hyyro's (2001) Levenshtein form. It returns
exactly the distance of the textbook O(n*m) dynamic program, in
O(ceil(m/w)*n) word operations.

numpy is imported only by the numeric code (TfidfModel, HashingEmbedder,
the k-means and select_diverse's embedding matrix), so a process that
never selects paths never loads it. TfidfModel and HashingEmbedder memoise
each text's vector on the instance, read-only; an instance lives for one
select_diverse or select_dispreferred call, so the anchor's vector is
computed once, not once per candidate.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import TYPE_CHECKING

from .errors import InvalidSpecError

if TYPE_CHECKING:
    import numpy as np

METRICS = ("edit", "jaccard", "tfidf", "embedding")
EMBED_DIM = 256          # buckets of the hashed embedding

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


def edit_similarity(a: str, b: str) -> float:
    """1 - normalized Levenshtein distance over token sequences."""
    ta, tb = tokenize(a), tokenize(b)
    if not ta and not tb:
        return 1.0
    return 1.0 - token_edit_distance(ta, tb) / max(len(ta), len(tb))


def jaccard_similarity(a: str, b: str) -> float:
    sa, sb = set(tokenize(a)), set(tokenize(b))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


class TfidfModel:
    """Tiny tf-idf fit on one candidate set; cosine over l2-normed vectors."""

    def __init__(self, corpus: list[str]):
        import numpy as np
        docs = [tokenize(t) for t in corpus]
        vocab: dict[str, int] = {}
        df: dict[str, int] = {}
        for tokens in docs:
            for tok in set(tokens):
                df[tok] = df.get(tok, 0) + 1
        for tok in sorted(df):
            vocab[tok] = len(vocab)
        n = len(docs)
        self.vocab = vocab
        self.idf = np.zeros(len(vocab))
        for tok, j in vocab.items():
            self.idf[j] = math.log((1 + n) / (1 + df[tok])) + 1.0
        self._vectors: dict[str, np.ndarray] = {}

    def vector(self, text: str) -> np.ndarray:
        v = self._vectors.get(text)
        if v is None:
            import numpy as np
            v = np.zeros(len(self.vocab))
            for tok in tokenize(text):
                j = self.vocab.get(tok)
                if j is not None:
                    v[j] += 1.0
            v *= self.idf
            norm = np.linalg.norm(v)
            if norm > 0:
                v = v / norm
            v.flags.writeable = False
            self._vectors[text] = v
        return v

    def similarity(self, a: str, b: str) -> float:
        return float(self.vector(a).dot(self.vector(b)))


class HashingEmbedder:
    """Bag-of-words embedding: md5 token hashing into EMBED_DIM buckets."""

    def __init__(self):
        self._buckets: dict[str, int] = {}
        self._vectors: dict[str, np.ndarray] = {}

    def _bucket(self, token: str) -> int:
        bucket = self._buckets.get(token)
        if bucket is None:
            digest = hashlib.md5(token.encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:8], "big") % EMBED_DIM
            self._buckets[token] = bucket
        return bucket

    def embed(self, text: str) -> np.ndarray:
        v = self._vectors.get(text)
        if v is None:
            import numpy as np
            v = np.zeros(EMBED_DIM)
            for tok in tokenize(text):
                v[self._bucket(tok)] += 1.0
            norm = np.linalg.norm(v)
            if norm > 0:
                v = v / norm
            v.flags.writeable = False
            self._vectors[text] = v
        return v

    def similarity(self, a: str, b: str) -> float:
        cos = float(self.embed(a).dot(self.embed(b)))
        return (1.0 + cos) / 2.0


def similarity(a: str, b: str, metric: str, *,
               tfidf: TfidfModel | None = None,
               embedder: HashingEmbedder | None = None) -> float:
    if metric == "edit":
        return edit_similarity(a, b)
    if metric == "jaccard":
        return jaccard_similarity(a, b)
    if metric == "tfidf":
        if tfidf is None:
            raise InvalidSpecError("tfidf metric needs a fitted model")
        return tfidf.similarity(a, b)
    if metric == "embedding":
        return (embedder or HashingEmbedder()).similarity(a, b)
    raise InvalidSpecError(f"unknown similarity metric: {metric}")


def _kmeans_medoids(vectors: np.ndarray, k: int, seed: int) -> list[int]:
    """Seeded k-means++ then Lloyd; returns one medoid index per cluster."""
    import numpy as np
    n = len(vectors)
    rng = np.random.default_rng(seed)
    centers = [vectors[int(rng.integers(n))]]
    for _ in range(1, k):
        d2 = np.min(
            [((vectors - c) ** 2).sum(axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(vectors[int(rng.integers(n))])
            continue
        centers.append(vectors[int(rng.choice(n, p=d2 / total))])
    cents = np.array(centers)
    assign = np.full(n, -1, dtype=int)
    for _ in range(50):
        dists = ((vectors[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = vectors[assign == j]
            if len(members):
                cents[j] = members.mean(axis=0)
    medoids = []
    for j in range(k):
        idx = np.flatnonzero(assign == j)
        if len(idx) == 0:
            continue
        d = ((vectors[idx] - cents[j]) ** 2).sum(axis=1)
        medoids.append(int(idx[int(d.argmin())]))
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
        import numpy as np
        tfidf = TfidfModel(texts)
        embedder = HashingEmbedder()
        for metric in METRICS:
            best = min(candidates, key=lambda i: (
                similarity(texts[i], texts[anchor], metric,
                           tfidf=tfidf, embedder=embedder), texts[i], i))
            nominations.append(best)
        vectors = np.array([embedder.embed(t) for t in texts])
        nominations.extend(
            _kmeans_medoids(vectors, min(5, len(texts)), seed))
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
    tfidf = TfidfModel(texts + [anchor])
    embedder = HashingEmbedder()
    votes: dict[int, int] = {}
    for metric in METRICS:
        best = min(range(len(texts)), key=lambda i: (
            -similarity(texts[i], anchor, metric,
                        tfidf=tfidf, embedder=embedder), texts[i], i))
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
