"""Text normalization, tokenization, and the shipped stopword list.

Every exact-match surface in the package (labels, aliases, mentions,
context strings) goes through :func:`normalize` so matching stays
deterministic. The stopword list is fixed and versioned: changing it
changes index contents and search results, so bump STOPWORDS_VERSION
whenever the list is edited.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections.abc import Iterable

NORMALIZATION_VERSION = "nfc-lower-ws/1"
STOPWORDS_VERSION = "en/1"

STOPWORDS = frozenset(
    """
    a an the and or nor but if then than so such as is are was were be been
    being am do does did done has have had having of in on at to for from by
    with without into onto over under between among through during about
    against it its this that these those there here he she they we you i his
    her their our your my me him them us who whom which what when where why
    how all each both any some not no can could will would shall should may
    might must also only very per via vs etc
    """.split()
)

_WS_RE = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Unicode NFC, lowercase, trim, collapse whitespace runs to one space."""
    text = unicodedata.normalize("NFC", text).lower()
    return _WS_RE.sub(" ", text).strip()


def tokenize(text: str) -> list[str]:
    """Non-stopword tokens of the normalized text, in input order."""
    return split_tokens(normalize(text))


def split_tokens(norm: str) -> list[str]:
    """tokenize() of text that normalize() has already normalized."""
    return [t for t in norm.split(" ") if t and t not in STOPWORDS]


def term_counts(tokens: Iterable[str]) -> tuple[dict[str, int], int]:
    """The term frequencies of tokens, and their squared norm."""
    counts: dict[str, int] = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    return counts, sum(n * n for n in counts.values())


def tf_cosine(a_tokens: Iterable[str], b_tokens: Iterable[str]) -> float:
    """Cosine similarity of integer term-frequency vectors.

    Exact 1.0 for identical token multisets: counts are integers, so the
    norm product is a perfect square and the square root is exact.
    """
    return counts_cosine(term_counts(a_tokens), term_counts(b_tokens))


def counts_cosine(a: tuple[dict, int], b: tuple[dict, int]) -> float:
    """tf_cosine() of two token lists given as their term_counts()."""
    (ca, na), (cb, nb) = (a, b) if len(a[0]) <= len(b[0]) else (b, a)
    dot = sum(n * cb[t] for t, n in ca.items() if t in cb)  # an exact int
    return min(1.0, dot / math.sqrt(na * nb)) if dot else 0.0
