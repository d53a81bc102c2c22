"""Radiology report parsing into referring expressions.

Free-text reports are segmented into sentences, chunked against a category
lexicon, and recomposed into referring expressions at three granularity
levels: a report-level scene label, per-sentence referring phrases, and
per-sentence disease-emphasis excerpts. Polarity is decided by a
forward-scoped negation rule: a cue negates every disease term after it in
the same sentence until a clause boundary that carries its own verb (or a
hard adversative boundary) resets the scope.

All operations are pure functions of their inputs and safe to call
concurrently.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional

CATEGORIES = ("R1", "R5", "R6", "R7")
# Canonical component order inside a composed expression.
CATEGORY_ORDER = ("R7", "R1", "R5", "R6")
LEVELS = ("scene_label", "referring", "disease_emphasis")

SCENE_PHRASES = {
    frozenset(): "no pneumo",
    frozenset({"pneumonia"}): "pneumonia",
    frozenset({"pneumothorax"}): "pneumothorax",
    frozenset({"pneumonia", "pneumothorax"}): "pneumonia and pneumothorax",
}

# Sentence-final '.' is not a boundary when it closes one of these.
_ABBREVIATIONS = frozenset({
    "dr.", "mr.", "mrs.", "ms.", "st.", "a.m.", "p.m.", "p.a.",
    "e.g.", "i.e.", "vs.", "cf.", "etc.", "approx.", "fig.",
})

# Crossing one of these tokens always ends a negation scope.
_HARD_BOUNDARIES = frozenset({"but", "however", "although", "though", "yet"})

# Small verb list used only to decide whether a comma starts a new clause.
_CLAUSE_VERBS = frozenset({
    "is", "are", "was", "were", "be", "been", "being", "am",
    "has", "have", "had",
    "appears", "appear", "appeared", "remains", "remain", "remained",
    "represents", "represent", "represented", "shows", "show", "showed",
    "demonstrates", "demonstrate", "demonstrated", "suggests", "suggest",
    "seen", "noted", "identified", "visualized", "persists", "persist",
    "developed", "improved", "worsened", "resolved", "increased",
    "decreased", "may", "might", "could", "can", "will", "would", "should",
})

# Phrases that look like negation cues but do not negate what follows.
_PSEUDO_NEGATIONS = (
    ("no", "change"),
    ("no", "interval", "change"),
    ("no", "significant", "change"),
    ("no", "increase"),
    ("no", "improvement"),
)

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z0-9]+)?|[^\sA-Za-z0-9]")


@dataclass(frozen=True)
class Token:
    surface: str
    span: tuple[int, int]  # half-open char offsets into the report text


@dataclass(frozen=True)
class Report:
    subject_id: str
    study_id: str
    text: str

    def __post_init__(self):
        if not self.subject_id or not self.study_id:
            raise ValueError("report ids must be non-empty")
        if not self.text:
            raise ValueError("report text must be non-empty")

    @property
    def report_id(self) -> str:
        return f"{self.subject_id}/{self.study_id}"


@dataclass(frozen=True)
class Sentence:
    report_id: str
    index: int
    char_span: tuple[int, int]
    tokens: tuple[Token, ...]
    text: str  # the sentence substring of the report text

    def token_slice(self, start: int, stop: int) -> str:
        """Raw text between the first and last token of a token range."""
        a = self.tokens[start].span[0] - self.char_span[0]
        b = self.tokens[stop - 1].span[1] - self.char_span[0]
        return self.text[a:b]


@dataclass(frozen=True)
class AttributeSpan:
    category: str
    token_range: tuple[int, int]
    surface: str


@dataclass(frozen=True)
class ReferringExpression:
    report_id: str
    sentence_index: int
    phrase: str
    components: tuple[AttributeSpan, ...]
    polarity: str  # "positive" | "negative"
    disease_tags: frozenset[str]
    level: str
    conflicts: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "report_id": self.report_id,
            "sentence_index": self.sentence_index,
            "phrase": self.phrase,
            "components": [
                {
                    "category": c.category,
                    "token_range": list(c.token_range),
                    "surface": c.surface,
                }
                for c in self.components
            ],
            "polarity": self.polarity,
            "disease_tags": sorted(self.disease_tags),
            "level": self.level,
            "conflicts": list(self.conflicts),
        }


class LexiconError(ValueError):
    pass


@dataclass(frozen=True)
class Lexicon:
    r1_terms: frozenset[str]
    r5_terms: frozenset[str]
    r6_terms: frozenset[str]
    r7_terms: frozenset[str]
    negation_cues: tuple[str, ...]
    disease_terms: dict[str, tuple[str, ...]]
    # token-sequence match tables, built in __post_init__
    _entries: tuple = field(default=(), compare=False, repr=False)
    _cues: tuple = field(default=(), compare=False, repr=False)
    _diseases: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        sets = {
            "R1": self.r1_terms, "R5": self.r5_terms,
            "R6": self.r6_terms, "R7": self.r7_terms,
        }
        for name, terms in sets.items():
            for t in terms:
                if t != t.lower():
                    raise LexiconError(f"{name} term not lowercase: {t!r}")
        cats = list(sets.items())
        for i in range(len(cats)):
            for j in range(i + 1, len(cats)):
                overlap = cats[i][1] & cats[j][1]
                if overlap:
                    raise LexiconError(
                        f"{cats[i][0]} and {cats[j][0]} overlap: {sorted(overlap)}"
                    )
        entries = []
        for cat, terms in sets.items():
            for term in terms:
                entries.append((tuple(term.split()), cat))
        entries.sort(key=lambda e: (-len(e[0]), e[0]))
        cues = sorted((tuple(c.split()) for c in self.negation_cues), key=len, reverse=True)
        diseases = []
        for disease, synonyms in self.disease_terms.items():
            for s in synonyms:
                diseases.append((tuple(s.split()), disease))
        diseases.sort(key=lambda e: -len(e[0]))
        object.__setattr__(self, "_entries", tuple(entries))
        object.__setattr__(self, "_cues", tuple(cues))
        object.__setattr__(self, "_diseases", tuple(diseases))

    @classmethod
    def from_dict(cls, doc: dict) -> "Lexicon":
        try:
            return cls(
                r1_terms=frozenset(doc["r1_terms"]),
                r5_terms=frozenset(doc["r5_terms"]),
                r6_terms=frozenset(doc["r6_terms"]),
                r7_terms=frozenset(doc["r7_terms"]),
                negation_cues=tuple(doc["negation_cues"]),
                disease_terms={k: tuple(v) for k, v in doc["disease_terms"].items()},
            )
        except KeyError as e:
            raise LexiconError(f"lexicon file missing key {e}") from e

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    """The bundled, versioned lexicon."""
    ref = resources.files("literati").joinpath("data/lexicon.json")
    return Lexicon.from_dict(json.loads(ref.read_text(encoding="utf-8")))


def _tokenize(text: str, offset: int) -> tuple[Token, ...]:
    return tuple(
        Token(m.group(0), (offset + m.start(), offset + m.end()))
        for m in _TOKEN_RE.finditer(text)
    )


def segment_sentences(text: str, report_id: str = "") -> list[Sentence]:
    """Split report text into sentences.

    Boundaries are '.', '!', '?' and blank lines. A '.' that closes a known
    abbreviation or sits between two digits does not end a sentence.
    """
    spans: list[tuple[int, int]] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in ".!?":
            if ch == ".":
                # internal dot: "a.m.", "3.5" -- not followed by whitespace
                if i < n - 1 and not text[i + 1].isspace():
                    i += 1
                    continue
                w = i
                while w > start and not text[w - 1].isspace():
                    w -= 1
                if text[w:i + 1].lower() in _ABBREVIATIONS:
                    i += 1
                    continue
            spans.append((start, i + 1))
            start = i + 1
            i += 1
            continue
        if ch == "\n":
            k = i + 1
            while k < n and text[k] in " \t\r":
                k += 1
            if k < n and text[k] == "\n":
                spans.append((start, i))
                start = k + 1
                i = k + 1
                continue
        i += 1
    if start < n:
        spans.append((start, n))

    sentences = []
    for a, b in spans:
        # trim whitespace off both ends
        while a < b and text[a].isspace():
            a += 1
        while b > a and text[b - 1].isspace():
            b -= 1
        if a == b:
            continue
        seg = text[a:b]
        sentences.append(Sentence(
            report_id=report_id,
            index=len(sentences),
            char_span=(a, b),
            tokens=_tokenize(seg, a),
            text=seg,
        ))
    return sentences


def classify_attributes(sentence: Sentence, lexicon: Lexicon) -> list[AttributeSpan]:
    """Chunk a sentence into attribute spans by longest lexicon match.

    Matching is left to right over lowercased tokens; a matched span
    consumes its tokens, so spans never overlap.
    """
    lowered = [t.surface.lower() for t in sentence.tokens]
    spans = []
    i = 0
    n = len(lowered)
    while i < n:
        hit = None
        for entry, category in lexicon._entries:
            L = len(entry)
            if i + L <= n and tuple(lowered[i:i + L]) == entry:
                hit = (L, category)
                break
        if hit is None:
            i += 1
            continue
        L, category = hit
        spans.append(AttributeSpan(
            category=category,
            token_range=(i, i + L),
            surface=sentence.token_slice(i, i + L),
        ))
        i += L
    return spans


def _negation_scope(lowered: list[str], lexicon: Lexicon) -> list[bool]:
    """Per-token flag: is a negation cue in scope at this token?"""
    n = len(lowered)
    scope = [False] * n
    active = False
    i = 0
    while i < n:
        tok = lowered[i]
        if tok in _HARD_BOUNDARIES:
            active = False
            scope[i] = active
            i += 1
            continue
        if tok in {";", ":"}:
            active = False
            scope[i] = active
            i += 1
            continue
        if tok == ",":
            if _clause_has_verb(lowered, i + 1):
                active = False
            scope[i] = active
            i += 1
            continue
        pseudo = _match_at(lowered, i, _PSEUDO_NEGATIONS)
        if pseudo:
            for j in range(i, i + pseudo):
                scope[j] = active
            i += pseudo
            continue
        cue = _match_at(lowered, i, lexicon._cues)
        if cue:
            for j in range(i, i + cue):
                scope[j] = active
            active = True
            i += cue
            continue
        scope[i] = active
        i += 1
    return scope


def _match_at(lowered: list[str], i: int, entries: Iterable[tuple[str, ...]]) -> int:
    """Length of the longest entry matching at token i, or 0."""
    for entry in entries:
        L = len(entry)
        if i + L <= len(lowered) and tuple(lowered[i:i + L]) == entry:
            return L
    return 0


def _clause_has_verb(lowered: list[str], start: int) -> bool:
    for tok in lowered[start:]:
        if tok in {",", ";", ":"} or tok in _HARD_BOUNDARIES:
            return False
        if tok in _CLAUSE_VERBS:
            return True
    return False


def _disease_occurrences(sentence: Sentence, lexicon: Lexicon) -> list[tuple[str, int, bool]]:
    """(disease, token index, negated) per disease-term occurrence."""
    lowered = [t.surface.lower() for t in sentence.tokens]
    scope = _negation_scope(lowered, lexicon)
    found = []
    i = 0
    while i < len(lowered):
        hit = None
        for entry, disease in lexicon._diseases:
            L = len(entry)
            if i + L <= len(lowered) and tuple(lowered[i:i + L]) == entry:
                hit = (L, disease)
                break
        if hit is None:
            i += 1
            continue
        L, disease = hit
        found.append((disease, i, scope[i]))
        i += L
    return found


def _canonical_order(spans: list[AttributeSpan]) -> tuple[AttributeSpan, ...]:
    ordered = []
    for cat in CATEGORY_ORDER:
        ordered.extend(s for s in spans if s.category == cat)
    return tuple(ordered)


def compose_referring_expression(
    spans: list[AttributeSpan], sentence: Sentence, lexicon: Lexicon
) -> Optional[ReferringExpression]:
    """Recompose attribute spans into a referring expression.

    Returns None when no entry-level (R1) span exists. Components are
    reordered into the canonical R7, R1, R5, R6 sequence, keeping original
    token order within each category; the phrase is their space-joined
    surface text.
    """
    r1 = [s for s in spans if s.category == "R1"]
    if not r1:
        return None
    lowered = [t.surface.lower() for t in sentence.tokens]
    scope = _negation_scope(lowered, lexicon)
    head = r1[0]
    polarity = "negative" if scope[head.token_range[0]] else "positive"
    components = _canonical_order(spans)
    tags = set()
    for s in spans:
        a, b = s.token_range
        for entry, disease in lexicon._diseases:
            L = len(entry)
            if any(tuple(lowered[i:i + L]) == entry for i in range(a, b - L + 1)):
                tags.add(disease)
    return ReferringExpression(
        report_id=sentence.report_id,
        sentence_index=sentence.index,
        phrase=" ".join(c.surface for c in components),
        components=components,
        polarity=polarity,
        disease_tags=frozenset(tags),
        level="referring",
    )


def extract_disease_mentions(report: Report, lexicon: Lexicon) -> list[ReferringExpression]:
    """One disease-emphasis expression per sentence that names a disease.

    The phrase is the sentence excerpt (trailing delimiter stripped); the
    expression is negative only when every disease occurrence in the
    sentence sits inside a negation scope.
    """
    out = []
    for sentence in segment_sentences(report.text, report.report_id):
        occurrences = _disease_occurrences(sentence, lexicon)
        if not occurrences:
            continue
        tags = frozenset(d for d, _, _ in occurrences)
        any_positive = any(not negated for _, _, negated in occurrences)
        spans = classify_attributes(sentence, lexicon)
        out.append(ReferringExpression(
            report_id=report.report_id,
            sentence_index=sentence.index,
            phrase=sentence.text.rstrip(".!? \t"),
            components=_canonical_order(spans),
            polarity="positive" if any_positive else "negative",
            disease_tags=tags,
            level="disease_emphasis",
        ))
    return out


def _scene_label(report: Report, lexicon: Lexicon) -> ReferringExpression:
    positive, negative = set(), set()
    for sentence in segment_sentences(report.text, report.report_id):
        for disease, _, negated in _disease_occurrences(sentence, lexicon):
            (negative if negated else positive).add(disease)
    conflicts = tuple(sorted(positive & negative))
    tags = frozenset(positive)
    return ReferringExpression(
        report_id=report.report_id,
        sentence_index=-1,  # report-level, not tied to one sentence
        phrase=SCENE_PHRASES.get(tags, " and ".join(sorted(tags))),
        components=(),
        polarity="positive" if tags else "negative",
        disease_tags=tags,
        level="scene_label",
        conflicts=conflicts,
    )


def parse_report(report: Report, lexicon: Lexicon, level: str) -> list[ReferringExpression]:
    """Parse one report at the requested granularity level."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")
    if level == "scene_label":
        return [_scene_label(report, lexicon)]
    if level == "disease_emphasis":
        return extract_disease_mentions(report, lexicon)
    out = []
    for sentence in segment_sentences(report.text, report.report_id):
        spans = classify_attributes(sentence, lexicon)
        expr = compose_referring_expression(spans, sentence, lexicon)
        if expr is not None:
            out.append(expr)
    return out


def read_reports_jsonl(path) -> list[Report]:
    reports = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
            try:
                reports.append(Report(doc["subject_id"], doc["study_id"], doc["text"]))
            except KeyError as e:
                raise ValueError(f"{path}:{lineno}: missing field {e}") from e
    return reports


def write_expressions_jsonl(path_or_fp, expressions: Iterable[ReferringExpression]) -> None:
    def _dump(fp):
        for expr in expressions:
            fp.write(json.dumps(expr.to_dict(), ensure_ascii=False))
            fp.write("\n")

    if isinstance(path_or_fp, (str, Path)):
        with open(path_or_fp, "w", encoding="utf-8") as f:
            _dump(f)
    else:
        _dump(path_or_fp)
