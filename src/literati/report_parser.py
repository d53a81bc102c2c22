"""Radiology report parsing into referring expressions.

Free-text reports are segmented into sentences, chunked against a category
lexicon, and recomposed into referring expressions at three granularity
levels: a report-level scene label, per-sentence referring phrases, and
per-sentence disease-emphasis excerpts. Polarity is decided by a
forward-scoped negation rule: a cue negates every disease term after it in
the same sentence until a clause boundary that carries its own verb (or a
hard adversative boundary) resets the scope.

Each sentence is tokenised once: one regex pass finds the boundary
candidates of a report, and one ``_TOKEN_RE`` pass per sentence yields its
tokens, kept as parallel tuples of lowercased surfaces and character
offsets that every later scan reads. ``Sentence.tokens`` builds ``Token``
objects from those tuples on each access; no parse step reads it, but
callers that count tokens do.

The records built for each report (``Report``, ``Sentence``,
``AttributeSpan``, ``ReferringExpression``) are named tuples: immutable,
equal by value, and built without a per-field ``object.__setattr__``,
which a frozen dataclass pays and which was a large share of parsing a
corpus of short reports. ``Report`` checks its ids and text and computes
``report_id`` once, as a fourth field.

``write_expressions_jsonl`` is the one way an expression is written: each
line is the ``json.dumps(..., ensure_ascii=False)`` of its row, formatted
in the row's fixed key order with every string encoded by the encoder's
own ``encode_basestring``: 3.3 us a line where building the row and
encoding it took 8.4 us (Python 3.11, one core).

Every lexicon lookup (attribute terms, negation cues, pseudo-negations,
disease synonyms) goes through one longest-match helper over a first-token
index: a dict from a lowercased token to the entries that start with it,
longest first. The helper is tried only at tokens that start some entry,
so a token costs one membership test, whatever the size of the lexicon.

Reports are read one line at a time: ``report_lines`` yields each
non-blank line with its ``path:lineno``, and ``report_from_line``, the one
place a line is checked, builds its report. It refuses a field holding a
lone surrogate (JSON can escape one), which UTF-8 cannot encode.
``literati parse`` holds only a bounded run of lines at a time, so its
memory stays flat as the corpus grows: forked workers build and parse the
reports of each chunk of lines and return the chunk's JSON lines, which
the parent writes in input order.

All operations are pure functions of their inputs and safe to call
concurrently.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import compress
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

from .annotation_store import read_json, utf8_text

# First-token index: lowercased first token -> ((entry tokens, value), ...),
# longest entry first.
_MatchIndex = dict[str, tuple[tuple[tuple[str, ...], object], ...]]

# Canonical component order inside a composed expression.
CATEGORY_ORDER = ("R7", "R1", "R5", "R6")
_CATEGORY_RANK = {cat: rank for rank, cat in enumerate(CATEGORY_ORDER)}
LEVELS = ("scene_label", "referring", "disease_emphasis")

# Sentence-final '.' is not a boundary when it closes one of these.
_ABBREVIATIONS = frozenset({
    "dr.", "mr.", "mrs.", "ms.", "st.", "a.m.", "p.m.", "p.a.",
    "e.g.", "i.e.", "vs.", "cf.", "etc.", "approx.", "fig.",
})
_ABBREVIATION_CHARS = max(map(len, _ABBREVIATIONS))

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


def _first_token_index(pairs: Iterable[tuple[tuple[str, ...], object]]) -> _MatchIndex:
    """Group (entry, value) pairs by first token, longest entry first.

    The sort is stable, so among equal-length entries (a synonym listed
    under two diseases) the one given first keeps winning.
    """
    index: dict[str, list] = {}
    for entry, value in sorted(pairs, key=lambda p: -len(p[0])):
        index.setdefault(entry[0], []).append((entry, value))
    return {tok: tuple(candidates) for tok, candidates in index.items()}


_PSEUDO_INDEX = _first_token_index((entry, None) for entry in _PSEUDO_NEGATIONS)

# A negation scope ends at one of these tokens.
_SCOPE_ENDS = _HARD_BOUNDARIES | {";", ":"}
# Tokens at which a scope can change, besides the first tokens of cues.
_SCOPE_EVENTS = _SCOPE_ENDS | {",", *_PSEUDO_INDEX}

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z0-9]+)?|[^\sA-Za-z0-9]")

# Sentence boundary candidates: '.', '!', '?', and a blank line (two
# newlines with only spaces, tabs or carriage returns between them).
_BOUNDARY_RE = re.compile(r"[.!?]|\n[ \t\r]*\n")


@dataclass(frozen=True)
class Token:
    surface: str
    span: tuple[int, int]  # half-open char offsets into the report text


class _ReportFields(NamedTuple):
    subject_id: str | int
    study_id: str | int
    text: str
    report_id: str  # "subject_id/study_id", computed once


class Report(_ReportFields):
    """One report; its ids and its text must be non-empty. An id is a
    string or an integer, and no integer, 0 included, is empty."""
    __slots__ = ()

    def __new__(cls, subject_id, study_id, text):
        if subject_id == "" or study_id == "":
            raise ValueError("report ids must be non-empty")
        if not text:
            raise ValueError("report text must be non-empty")
        return tuple.__new__(cls, (subject_id, study_id, text, f"{subject_id}/{study_id}"))

    @classmethod
    def _make(cls, fields):
        """Through ``__new__``, as ``_replace`` is too: report_id is recomputed."""
        subject_id, study_id, text, _ = fields
        return cls(subject_id, study_id, text)

    def __getnewargs__(self):  # what pickle and copy pass to __new__
        return self[:3]


class Sentence(NamedTuple):
    """One sentence; its tokens are kept as parallel tuples."""
    report_id: str
    index: int
    char_span: tuple[int, int]
    text: str  # the sentence substring of the report text
    lowered: tuple[str, ...]  # each token's surface, lowercased on its own
    starts: tuple[int, ...]  # half-open char offsets of each token
    ends: tuple[int, ...]    # into the report text

    @property
    def tokens(self) -> tuple[Token, ...]:
        """The tokens as objects, built on each access from the tuples."""
        a = self.char_span[0]
        return tuple(Token(self.text[s - a:e - a], (s, e))
                     for s, e in zip(self.starts, self.ends))

    def token_slice(self, start: int, stop: int) -> str:
        """Raw text between the first and last token of a token range."""
        a = self.char_span[0]
        return self.text[self.starts[start] - a:self.ends[stop - 1] - a]


class AttributeSpan(NamedTuple):
    category: str
    token_range: tuple[int, int]
    surface: str


class ReferringExpression(NamedTuple):
    report_id: str
    sentence_index: int
    phrase: str
    components: tuple[AttributeSpan, ...]
    polarity: str  # "positive" | "negative"
    disease_tags: frozenset[str]
    level: str
    conflicts: tuple[str, ...] = ()


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
    # First-token indexes (see _first_token_index), built in __post_init__:
    # attribute terms -> category, negation cues -> None, disease synonyms
    # -> disease name; and the tokens at which a negation scope can change.
    _entries: _MatchIndex = field(init=False, compare=False, repr=False)
    _cues: _MatchIndex = field(init=False, compare=False, repr=False)
    _diseases: _MatchIndex = field(init=False, compare=False, repr=False)
    _scope_events: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        sets = {
            "R1": self.r1_terms, "R5": self.r5_terms,
            "R6": self.r6_terms, "R7": self.r7_terms,
        }
        groups = {
            **{f"{cat.lower()}_terms": terms for cat, terms in sets.items()},
            "negation_cues": self.negation_cues,
            **{f"disease_terms[{d!r}]": syns for d, syns in self.disease_terms.items()},
        }
        for key, terms in groups.items():
            for t in terms:
                # an empty entry would match without consuming a token
                if not t.strip():
                    raise LexiconError(f"{key}: empty term {t!r}")
                if t != t.lower():
                    raise LexiconError(f"{key}: term not lowercase: {t!r}")
        cats = list(sets.items())
        for i in range(len(cats)):
            for j in range(i + 1, len(cats)):
                overlap = cats[i][1] & cats[j][1]
                if overlap:
                    raise LexiconError(
                        f"{cats[i][0]} and {cats[j][0]} overlap: {sorted(overlap)}"
                    )
        object.__setattr__(self, "_entries", _first_token_index(
            (_term_tokens(t), cat) for cat, terms in sets.items() for t in terms))
        object.__setattr__(self, "_cues", _first_token_index(
            (_term_tokens(c), None) for c in self.negation_cues))
        object.__setattr__(self, "_scope_events", _SCOPE_EVENTS.union(self._cues))
        object.__setattr__(self, "_diseases", _first_token_index(
            (_term_tokens(s), disease)
            for disease, synonyms in self.disease_terms.items() for s in synonyms))

    @classmethod
    def from_dict(cls, doc: dict) -> "Lexicon":
        """Build a lexicon from its JSON form; a LexiconError names the bad key."""
        for key in _LEXICON_KEYS:
            if key not in doc:
                raise LexiconError(f"lexicon file missing key {key!r}")
        diseases = doc["disease_terms"]
        if not isinstance(diseases, dict):
            raise LexiconError("disease_terms must be an object mapping names to lists of strings")
        return cls(
            r1_terms=frozenset(_string_list(doc["r1_terms"], "r1_terms")),
            r5_terms=frozenset(_string_list(doc["r5_terms"], "r5_terms")),
            r6_terms=frozenset(_string_list(doc["r6_terms"], "r6_terms")),
            r7_terms=frozenset(_string_list(doc["r7_terms"], "r7_terms")),
            negation_cues=tuple(_string_list(doc["negation_cues"], "negation_cues")),
            disease_terms={
                name: tuple(_string_list(synonyms, f"disease_terms[{name!r}]"))
                for name, synonyms in diseases.items()
            },
        )

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        try:
            return cls.from_dict(read_json(path, dict))
        except LexiconError as e:
            raise LexiconError(f"{path}: {e}") from e


_LEXICON_KEYS = ("r1_terms", "r5_terms", "r6_terms", "r7_terms",
                 "negation_cues", "disease_terms")


def _string_list(value, key: str) -> list[str]:
    """A lexicon value that must be a JSON array of strings."""
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise LexiconError(f"{key} must be a list of strings")
    return value


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    """The bundled, versioned lexicon."""
    return Lexicon.from_file(resources.files("literati").joinpath("data/lexicon.json"))


def _term_tokens(term: str) -> tuple[str, ...]:
    """A lexicon entry split the way report text is, so ``ill-defined``
    is the three tokens a report holding it yields."""
    return tuple(_TOKEN_RE.findall(term))


def segment_sentences(text: str, report_id: str = "") -> list[Sentence]:
    """Split report text into sentences.

    Boundaries are '.', '!', '?' and blank lines. A '.' that closes a known
    abbreviation or is not followed by whitespace ("a.m.", "3.5") does not
    end a sentence.
    """
    spans: list[tuple[int, int]] = []
    start = 0
    n = len(text)
    for m in _BOUNDARY_RE.finditer(text):
        i = m.start()
        if text[i] == "\n":
            spans.append((start, i))
            start = m.end()
            continue
        if text[i] == ".":
            if i < n - 1 and not text[i + 1].isspace():
                continue
            # the word the '.' closes, cut at the sentence start; a word longer
            # than the window is no abbreviation, as lower() never shortens one
            word = text[max(start, i - _ABBREVIATION_CHARS):i + 1].split()[-1]
            if word.lower() in _ABBREVIATIONS:
                continue
        spans.append((start, i + 1))
        start = i + 1
    if start < n:
        spans.append((start, n))

    sentences = []
    for a, b in spans:
        # trim whitespace off both ends (str.strip and str.isspace agree)
        seg = text[a:b].lstrip()
        a = b - len(seg)
        seg = seg.rstrip()
        if not seg:
            continue
        b = a + len(seg)
        matches = list(_TOKEN_RE.finditer(text, a, b))
        sentences.append(Sentence(  # by position: keywords cost twice as much
            report_id, len(sentences), (a, b), seg,
            tuple([m[0].lower() for m in matches]),  # lowered
            tuple([m.start() for m in matches]),  # starts
            tuple([m.end() for m in matches]),  # ends
        ))
    return sentences


def _longest_match(lowered: tuple[str, ...], i: int, index: _MatchIndex) -> Optional[tuple[int, object]]:
    """(length, value) of the longest index entry matching at token i, or None.

    Only the entries starting with ``lowered[i]`` are tried. Two entries of
    one length with one first token cannot both match at i, so the first
    candidate that matches is the longest match.
    """
    for entry, value in index.get(lowered[i], ()):
        if lowered[i:i + len(entry)] == entry:
            return len(entry), value
    return None


def _matches(lowered: tuple[str, ...], index: _MatchIndex) -> Iterator[tuple[int, int, object]]:
    """(start, length, value) of each longest index match, left to right.

    A match consumes its tokens. ``_longest_match`` is tried only at tokens
    that start some entry; no other token can start a match.
    """
    end = 0  # tokens before end are inside an earlier match
    for i in compress(range(len(lowered)), map(index.__contains__, lowered)):
        if i >= end:
            hit = _longest_match(lowered, i, index)
            if hit is not None:
                yield i, hit[0], hit[1]
                end = i + hit[0]


def classify_attributes(sentence: Sentence, lexicon: Lexicon) -> list[AttributeSpan]:
    """Chunk a sentence into attribute spans by longest lexicon match.

    Matching is left to right over lowercased tokens; a matched span
    consumes its tokens, so spans never overlap.
    """
    return [
        AttributeSpan(category, (i, i + length), sentence.token_slice(i, i + length))
        for i, length, category in _matches(sentence.lowered, lexicon._entries)
    ]


def _negation_scope(lowered: tuple[str, ...], lexicon: Lexicon) -> list[bool]:
    """Per-token flag: is a negation cue in scope at this token?

    Only the tokens that can move the scope are visited: scope ends, commas
    and the first tokens of pseudo-negations and cues. Every other token
    takes the flag in force before it.
    """
    cues = lexicon._cues
    n = len(lowered)
    scope = [False] * n
    active = False
    i = 0  # every token before i has its flag
    for k in compress(range(n), map(lexicon._scope_events.__contains__, lowered)):
        if k < i:
            continue  # inside a pseudo-negation or cue matched before
        if active:
            scope[i:k] = [True] * (k - i)
        tok = lowered[k]
        length, opens = 1, False
        if tok in _SCOPE_ENDS:
            active = False
        elif tok == ",":
            if _clause_has_verb(lowered, k + 1):
                active = False
        elif (hit := _longest_match(lowered, k, _PSEUDO_INDEX)) is not None:
            length = hit[0]
        elif (hit := _longest_match(lowered, k, cues)) is not None:
            length, opens = hit[0], True
        if active:
            scope[k:k + length] = [True] * length
        active = active or opens
        i = k + length
    if active:
        scope[i:] = [True] * (n - i)
    return scope


def _clause_has_verb(lowered: tuple[str, ...], start: int) -> bool:
    for tok in lowered[start:]:
        if tok == "," or tok in _SCOPE_ENDS:
            return False
        if tok in _CLAUSE_VERBS:
            return True
    return False


def _disease_occurrences(sentence: Sentence, lexicon: Lexicon) -> list[tuple[str, int, bool]]:
    """(disease, token index, negated) per disease-term occurrence.

    The negation scope is built only when a disease term occurs; most
    sentences name no disease and never need it.
    """
    lowered = sentence.lowered
    if lexicon._diseases.keys().isdisjoint(lowered):
        return []
    found = list(_matches(lowered, lexicon._diseases))
    if not found:
        return []
    scope = _negation_scope(lowered, lexicon)
    return [(disease, i, scope[i]) for i, _, disease in found]


def _canonical_order(spans: list[AttributeSpan]) -> tuple[AttributeSpan, ...]:
    """Spans in CATEGORY_ORDER, in token order within each category."""
    return tuple(sorted(spans, key=lambda s: _CATEGORY_RANK[s.category]))


def compose_referring_expression(
    spans: list[AttributeSpan], sentence: Sentence, lexicon: Lexicon
) -> Optional[ReferringExpression]:
    """Recompose attribute spans into a referring expression.

    Returns None when no entry-level (R1) span exists. Components are
    reordered into the canonical R7, R1, R5, R6 sequence, keeping original
    token order within each category; the phrase is their space-joined
    surface text.
    """
    head = next((s for s in spans if s.category == "R1"), None)
    if head is None:
        return None
    lowered = sentence.lowered
    scope = _negation_scope(lowered, lexicon)
    polarity = "negative" if scope[head.token_range[0]] else "positive"
    components = _canonical_order(spans)
    # every disease with a synonym anywhere inside a span, overlapping or
    # nested synonyms included -- not only the longest match
    tags = set()
    for s in spans:
        a, b = s.token_range
        for i in range(a, b):
            for entry, disease in lexicon._diseases.get(lowered[i], ()):
                if i + len(entry) <= b and lowered[i:i + len(entry)] == entry:
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
        phrase=" and ".join(sorted(tags)) or "no pneumo",
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


def report_lines(path) -> Iterator[tuple[str, str]]:
    """``(line, "path:lineno")`` for each non-blank line of a JSON Lines file,
    read one line at a time."""
    with open(path, "rb") as f:  # so that a line that is not UTF-8 is named
        for lineno, raw in enumerate(f, 1):
            where = f"{path}:{lineno}"
            line = utf8_text(raw, where).strip()
            if line:
                yield line, where


def report_from_line(line: str, where: str) -> Report:
    """The report one JSON line holds; a malformed line raises a ValueError
    that starts with ``where``."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"{where}: invalid JSON ({e.msg})") from e
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, not {type(doc).__name__}")
    for key, types in (("subject_id", (str, int)), ("study_id", (str, int)), ("text", str)):
        if key not in doc:
            raise ValueError(f"{where}: missing field {key!r}")
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, types):
            kind = "a string" if types is str else "a string or an integer"
            raise ValueError(f"{where}: {key!r} must be {kind}, not {value!r}")
        # JSON can escape a lone surrogate ("\ud800"), which UTF-8 cannot encode
        if isinstance(value, str) and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as e:
                raise ValueError(f"{where}: {key!r} holds a lone surrogate "
                                 f"{value[e.start]!r} at character {e.start}") from e
    try:
        return Report(doc["subject_id"], doc["study_id"], doc["text"])
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from e


def read_reports_jsonl(path) -> list[Report]:
    """Every report of a JSON Lines file; a malformed line raises a
    ValueError naming ``path:lineno``."""
    return [report_from_line(line, where) for line, where in report_lines(path)]


def _expression_line(e: ReferringExpression) -> str:
    """One expression as a JSON line: ``json.dumps(row, ensure_ascii=False)``
    of the row ``{"report_id", "sentence_index", "phrase", "components":
    [{"category", "token_range": [start, stop], "surface"}, ...],
    "polarity", "disease_tags" (sorted), "level", "conflicts"}``, in that
    key order. Each string goes through ``encode_basestring``, the function
    that encoder uses, and the separators are its defaults."""
    q = encode_basestring
    components = ", ".join([
        f'{{"category": {q(c.category)}, "token_range": [{c.token_range[0]}, '
        f'{c.token_range[1]}], "surface": {q(c.surface)}}}'
        for c in e.components])
    return (f'{{"report_id": {q(e.report_id)}, "sentence_index": {e.sentence_index}, '
            f'"phrase": {q(e.phrase)}, "components": [{components}], '
            f'"polarity": {q(e.polarity)}, '
            f'"disease_tags": [{", ".join(map(q, sorted(e.disease_tags)))}], '
            f'"level": {q(e.level)}, "conflicts": [{", ".join(map(q, e.conflicts))}]}}\n')


def write_expressions_jsonl(path_or_fp, expressions: Iterable[ReferringExpression]) -> None:
    """One JSON line per expression, to a path or an open text file."""
    lines = map(_expression_line, expressions)
    if isinstance(path_or_fp, (str, Path)):
        with open(path_or_fp, "w", encoding="utf-8") as f:
            f.writelines(lines)
    else:
        path_or_fp.writelines(lines)
