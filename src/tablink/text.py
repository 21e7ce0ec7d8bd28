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
from collections import Counter
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


def tf_cosine(a_tokens: Iterable[str], b_tokens: Iterable[str]) -> float:
    """Cosine similarity of integer term-frequency vectors.

    Exact 1.0 for identical token multisets: counts are integers, so the
    norm product is a perfect square and the square root is exact.
    """
    ca, cb = Counter(a_tokens), Counter(b_tokens)
    if not ca or not cb:
        return 0.0
    dot = sum(n * cb[t] for t, n in ca.items())
    if dot == 0:
        return 0.0
    na = sum(n * n for n in ca.values())
    nb = sum(n * n for n in cb.values())
    return min(1.0, dot / math.sqrt(na * nb))
