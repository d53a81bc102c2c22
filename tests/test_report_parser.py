import copy
import dataclasses
import io
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from literati import report_parser
from literati.report_parser import (
    AttributeSpan,
    CATEGORY_ORDER,
    Lexicon,
    LexiconError,
    ReferringExpression,
    Report,
    Sentence,
    classify_attributes,
    compose_referring_expression,
    default_lexicon,
    extract_disease_mentions,
    parse_report,
    segment_sentences,
    write_expressions_jsonl,
)


@pytest.fixture(scope="module")
def lexicon():
    return default_lexicon()


# --- segment_sentences -------------------------------------------------------

def test_segment_two_sentences():
    assert len(segment_sentences("No pneumothorax. Lungs clear.")) == 2


def test_segment_empty_text():
    assert segment_sentences("") == []


def test_segment_long_clause_is_one_sentence():
    text = ("vague right mid lung opacity, which is of uncertain etiology, "
            "although could represent an early pneumonia")
    assert len(segment_sentences(text)) == 1


def test_segment_abbreviation_guard():
    sents = segment_sentences("Dr. Smith noted pneumonia.")
    assert len(sents) == 1
    sents = segment_sentences("Seen at 9 a.m. today. Stable.")
    assert len(sents) == 2


def test_segment_blank_line_boundary():
    sents = segment_sentences("no pneumothorax\n\nlarge pneumonia")
    assert [s.text for s in sents] == ["no pneumothorax", "large pneumonia"]


def test_segment_decimal_not_boundary():
    assert len(segment_sentences("effusion measuring 3.5 cm.")) == 1


def test_segment_spans_and_tokens_nest():
    text = "No pneumothorax!  Lungs clear.\n\ntrailing words"
    sents = segment_sentences(text)
    assert len(sents) == 3
    for s in sents:
        a, b = s.char_span
        assert text[a:b] == s.text
        for tok in s.tokens:
            ta, tb = tok.span
            assert a <= ta < tb <= b
            assert text[ta:tb] == tok.surface


# --- segmentation oracle -----------------------------------------------------
# The character-walking segmenter and the tokenizer that segment_sentences
# replaced, copied unchanged apart from the names of the records they build
# (the old Sentence held a tuple of Token objects).

@dataclasses.dataclass(frozen=True)
class _OracleSentence:
    report_id: str
    index: int
    char_span: tuple
    tokens: tuple
    text: str


def _oracle_tokenize(text, offset):
    return tuple(
        report_parser.Token(m.group(0), (offset + m.start(), offset + m.end()))
        for m in report_parser._TOKEN_RE.finditer(text)
    )


def _oracle_segment_sentences(text, report_id=""):
    spans = []
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
                if text[w:i + 1].lower() in report_parser._ABBREVIATIONS:
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
        sentences.append(_OracleSentence(
            report_id=report_id,
            index=len(sentences),
            char_span=(a, b),
            tokens=_oracle_tokenize(seg, a),
            text=seg,
        ))
    return sentences


# Pieces the segmenter treats specially: abbreviations in any case, a word
# longer than any abbreviation ending in one, decimals and internal dots,
# '!' and '?', blank lines holding spaces, tabs or '\r', whitespace that
# is not ASCII, 'İ' (whose lowercase has two characters) and apostrophes.
_SEGMENT_PIECES = [
    "Dr.", "dr.", "DR.", "e.g.", "E.G.", "a.m.", "p.m.", "approx.", "xapprox.", "etc.",
    "fig.", "st.", "3.5", "1.", "x.y", ".", "..", "!", "?", "?!", ",", "-",
    " ", "  ", "\t", "\n", "\r", "\n\n", "\n \n", "\n\t\r\n", "\r\n\r\n", "\n\x0b\n",
    "\u00a0", "\u2003", "\u3000", "\u2028", "\x85",
    "\u0130", "\u0130.", "don't", "'", "patient's", "no", "pneumonia", "Lungs", "clear",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_SEGMENT_PIECES), st.text(max_size=3)),
                max_size=30).map("".join))
@example("Seen at 9 a.m. today. Stable.")
@example("?Dr. Smith\n \t\r\n\u0130. don't  3.5 cm!")
@example("x\n\n\n\nxapprox. e.g.\u00a0fig. y")
def test_segmenter_equals_character_walking_oracle(text):
    got = segment_sentences(text, "r/s")
    want = _oracle_segment_sentences(text, "r/s")
    assert [(s.index, s.char_span, s.text) for s in got] == [
        (s.index, s.char_span, s.text) for s in want]
    for g, w in zip(got, want):
        assert g.tokens == w.tokens
        assert [(t.surface, t.span) for t in g.tokens] == [(t.surface, t.span) for t in w.tokens]
        assert g.lowered == tuple(t.surface.lower() for t in w.tokens)
        assert (g.starts, g.ends) == (tuple(t.span[0] for t in w.tokens),
                                      tuple(t.span[1] for t in w.tokens))


# --- classify_attributes -----------------------------------------------------

def _spans_of(text, lexicon):
    sents = segment_sentences(text)
    assert len(sents) == 1
    return sents[0], classify_attributes(sents[0], lexicon)


def test_classify_left_apical_pneumothorax(lexicon):
    _, spans = _spans_of("left apical pneumothorax", lexicon)
    assert [(s.category, s.surface) for s in spans] == [
        ("R5", "left"), ("R5", "apical"), ("R1", "pneumothorax")]


def test_classify_confluent_opacity_at_bases(lexicon):
    _, spans = _spans_of("confluent opacity at bases", lexicon)
    assert [(s.category, s.surface) for s in spans] == [
        ("R7", "confluent"), ("R1", "opacity"), ("R6", "at bases")]


def test_classify_no_lexicon_hits(lexicon):
    _, spans = _spans_of("the the the", lexicon)
    assert spans == []


def test_classify_longest_match_wins(lexicon):
    # "at the bases" must match as one R6 span, not bare "bases"
    _, spans = _spans_of("opacity at the bases", lexicon)
    assert [(s.category, s.surface) for s in spans] == [
        ("R1", "opacity"), ("R6", "at the bases")]


def test_classify_preserves_original_casing(lexicon):
    sent, spans = _spans_of("Left Apical PNEUMOTHORAX", lexicon)
    assert [s.surface for s in spans] == ["Left", "Apical", "PNEUMOTHORAX"]


def test_span_integrity(lexicon):
    sent, spans = _spans_of("confluent opacity at bases seen", lexicon)
    for s in spans:
        assert s.surface == sent.token_slice(*s.token_range)


# --- compose_referring_expression --------------------------------------------

def test_compose_canonical_order(lexicon):
    sent, spans = _spans_of("confluent opacity at bases", lexicon)
    expr = compose_referring_expression(spans, sent, lexicon)
    assert expr.phrase == "confluent opacity at bases"
    assert [c.category for c in expr.components] == ["R7", "R1", "R6"]


def test_compose_reorders_into_category_order(lexicon):
    sent, spans = _spans_of("left apical pneumothorax", lexicon)
    expr = compose_referring_expression(spans, sent, lexicon)
    assert [c.category for c in expr.components] == ["R1", "R5", "R5"]
    assert expr.phrase == "pneumothorax left apical"
    assert expr.disease_tags == frozenset({"pneumothorax"})


def test_compose_requires_r1(lexicon):
    sent, spans = _spans_of("multifocal bilateral airspace consolidation", lexicon)
    expr = compose_referring_expression(spans, sent, lexicon)
    assert expr is not None
    assert any(c.category == "R1" and c.surface == "consolidation" for c in expr.components)

    sent2, _ = _spans_of("left lower", lexicon)
    assert compose_referring_expression([], sent2, lexicon) is None


def test_compose_negated_head(lexicon):
    sent, spans = _spans_of("no pneumothorax", lexicon)
    expr = compose_referring_expression(spans, sent, lexicon)
    assert expr.polarity == "negative"


# --- extract_disease_mentions ------------------------------------------------

def test_mention_negative_list(lexicon):
    report = Report("s", "t", "no complications, no pneumothorax")
    mentions = extract_disease_mentions(report, lexicon)
    assert len(mentions) == 1
    assert mentions[0].polarity == "negative"
    assert mentions[0].disease_tags == frozenset({"pneumothorax"})


def test_mention_positive_hedge(lexicon):
    report = Report("s", "t", "could represent an early pneumonia")
    mentions = extract_disease_mentions(report, lexicon)
    assert mentions[0].polarity == "positive"
    assert mentions[0].disease_tags == frozenset({"pneumonia"})


def test_mention_bare_term(lexicon):
    report = Report("s", "t", "pneumonia")
    mentions = extract_disease_mentions(report, lexicon)
    assert mentions[0].polarity == "positive"
    assert mentions[0].disease_tags == frozenset({"pneumonia"})


def test_mention_clause_with_verb_resets_scope(lexicon):
    report = Report("s", "t", "No fractures, there is a right basilar pneumonia.")
    mentions = extract_disease_mentions(report, lexicon)
    assert mentions[0].polarity == "positive"


def test_mention_phrase_is_sentence_excerpt(lexicon):
    report = Report("s", "t", "Stable chest. Could represent an early pneumonia.")
    mentions = extract_disease_mentions(report, lexicon)
    assert mentions[0].phrase == "Could represent an early pneumonia"
    assert mentions[0].sentence_index == 1


# --- parse_report ------------------------------------------------------------

def test_scene_label_positive_pneumonia_only(lexicon):
    report = Report("s", "t", "Findings concerning for pneumonia. No pneumothorax.")
    exprs = parse_report(report, lexicon, "scene_label")
    assert len(exprs) == 1
    assert exprs[0].phrase == "pneumonia"
    assert exprs[0].polarity == "positive"


def test_scene_label_no_positive_mentions(lexicon):
    report = Report("s", "t", "No pneumonia. No pneumothorax.")
    exprs = parse_report(report, lexicon, "scene_label")
    assert exprs[0].phrase == "no pneumo"
    assert exprs[0].polarity == "negative"
    assert exprs[0].disease_tags == frozenset()


def test_scene_label_both_diseases(lexicon):
    report = Report("s", "t", "Multifocal pneumonia. Small apical pneumothorax.")
    exprs = parse_report(report, lexicon, "scene_label")
    assert exprs[0].phrase == "pneumonia and pneumothorax"


def test_scene_label_conflict_flagged(lexicon):
    # positive in one sentence, negated in another: positive wins, flagged
    report = Report("s", "t", "Large left pneumonia. No pneumonia on the lateral view.")
    exprs = parse_report(report, lexicon, "scene_label")
    assert exprs[0].phrase == "pneumonia"
    assert exprs[0].conflicts == ("pneumonia",)


def test_scene_label_any_lexicon_disease(lexicon):
    custom = dataclasses.replace(
        lexicon, disease_terms={**lexicon.disease_terms, "effusion": ("effusion",)})
    report = Report("s", "t", "Small left effusion. No pneumothorax.")
    assert parse_report(report, custom, "scene_label")[0].phrase == "effusion"
    report = Report("s", "t", "Right effusion. Multifocal pneumonia.")
    exprs = parse_report(report, custom, "scene_label")
    assert exprs[0].phrase == "effusion and pneumonia"
    assert exprs[0].disease_tags == frozenset({"effusion", "pneumonia"})


def test_scene_phrases_closed_vocabulary(lexicon):
    # with the bundled lexicon, a scene label names its diseases in sorted
    # order, or says there is none
    texts = ["Lungs clear.", "Multifocal pneumonia.", "Large left pneumothorax.",
             "Left pneumothorax. Right pneumonia.", "No pneumonia. No pneumothorax."]
    phrases = [parse_report(Report("s", "t", text), lexicon, "scene_label")[0].phrase
               for text in texts]
    assert phrases == ["no pneumo", "pneumonia", "pneumothorax", "pneumonia and pneumothorax",
                       "no pneumo"]


def test_referring_level_matches_composition(lexicon):
    report = Report("s", "t", "Large left pneumothorax. Lungs otherwise clear.")
    exprs = parse_report(report, lexicon, "referring")
    composed = []
    for sent in segment_sentences(report.text, report.report_id):
        expr = compose_referring_expression(classify_attributes(sent, lexicon), sent, lexicon)
        if expr is not None:
            composed.append(expr)
    assert exprs == composed


def test_parse_report_rejects_unknown_level(lexicon):
    report = Report("s", "t", "pneumonia")
    with pytest.raises(ValueError):
        parse_report(report, lexicon, "sentence")


# --- invariants ---------------------------------------------------------------

def test_determinism_byte_identical(tmp_path, lexicon):
    report = Report("s9", "t9", "Patchy right infrahilar opacity. No pneumothorax, "
                                "but there is a left lower lobe pneumonia.")
    paths = []
    for run in range(2):
        out = tmp_path / f"run{run}.jsonl"
        exprs = []
        for level in ("scene_label", "referring", "disease_emphasis"):
            exprs.extend(parse_report(report, lexicon, level))
        write_expressions_jsonl(out, exprs)
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_order_law_on_random_sentences(lexicon):
    # components of every emitted expression follow the R7, R1, R5, R6 order
    rng = np.random.default_rng(42)
    vocab = (sorted(lexicon.r7_terms) + sorted(lexicon.r5_terms)
             + sorted(lexicon.r6_terms) + sorted(lexicon.r1_terms)
             + ["the", "and", "no", ",", "with"])
    rank = {c: i for i, c in enumerate(CATEGORY_ORDER)}
    for _ in range(300):
        n = int(rng.integers(1, 9))
        words = [vocab[int(rng.integers(0, len(vocab)))] for _ in range(n)]
        report = Report("r", "x", " ".join(words))
        for level in ("referring", "disease_emphasis"):
            for expr in parse_report(report, lexicon, level):
                ranks = [rank[c.category] for c in expr.components]
                assert ranks == sorted(ranks)
                if level == "referring":
                    assert any(c.category == "R1" for c in expr.components)


def test_negation_fixture_corpus_100_percent(lexicon):
    from importlib import resources

    data = resources.files("literati").joinpath(
        "data/fixtures/negation_sentences.jsonl").read_text(encoding="utf-8")
    lines = [json.loads(l) for l in data.splitlines() if l.strip()]
    assert len(lines) == 50
    for i, doc in enumerate(lines):
        report = Report("fixture", f"line{i}", doc["text"])
        mentions = extract_disease_mentions(report, lexicon)
        polarity = {d: m.polarity for m in mentions for d in m.disease_tags}
        assert polarity.get(doc["disease"]) == doc["polarity"], doc["text"]


# --- Lexicon validation ------------------------------------------------------

def test_lexicon_rejects_category_overlap():
    with pytest.raises(LexiconError):
        Lexicon(
            r1_terms=frozenset({"opacity"}),
            r5_terms=frozenset({"opacity"}),
            r6_terms=frozenset(),
            r7_terms=frozenset(),
            negation_cues=("no",),
            disease_terms={"pneumonia": ("pneumonia",)},
        )


def test_lexicon_rejects_uppercase():
    with pytest.raises(LexiconError):
        Lexicon(
            r1_terms=frozenset({"Opacity"}),
            r5_terms=frozenset(),
            r6_terms=frozenset(),
            r7_terms=frozenset(),
            negation_cues=(),
            disease_terms={},
        )


@pytest.mark.parametrize("field, value", [
    ("r1_terms", frozenset({"opacity", ""})),
    ("r6_terms", frozenset({"  "})),
    ("negation_cues", ("no", "\t")),
    ("disease_terms", {"pneumonia": ("pneumonia", " ")}),
])
def test_lexicon_rejects_empty_term(field, value):
    fields = dict(
        r1_terms=frozenset({"opacity"}),
        r5_terms=frozenset(),
        r6_terms=frozenset(),
        r7_terms=frozenset(),
        negation_cues=("no",),
        disease_terms={"pneumonia": ("pneumonia",)},
    )
    fields[field] = value
    with pytest.raises(LexiconError, match="empty term"):
        Lexicon(**fields)


def test_report_validation():
    with pytest.raises(ValueError):
        Report("", "t", "text")
    with pytest.raises(ValueError):
        Report("s", "t", "")


@pytest.mark.parametrize("ids", [(0, 7), (7, 0), (0, 0), (-1, "s")])
def test_report_integer_ids_are_never_empty(ids):
    assert Report(*ids, "text").report_id == f"{ids[0]}/{ids[1]}"
    for empty in [("", ids[1]), (ids[0], "")]:
        with pytest.raises(ValueError, match="report ids must be non-empty"):
            Report(*empty, "text")


# --- write_expressions_jsonl ----------------------------------------------------

# Text that JSON escapes (quotes, backslashes, control characters) or writes
# as it is although some line splitters break at it (U+2028, U+2029, U+0085),
# beside other non-ASCII and non-BMP text.
_AWKWARD = st.lists(st.one_of(
    st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u2028",
                     "\u2029", "\x85", "\u00e9", "\u4e2d", "\U0001f600", "\ufeff", "/"]),
    st.text(max_size=4)), max_size=6).map("".join)


def _row(e):
    """The documented row of an expression, in its key order."""
    return {
        "report_id": e.report_id,
        "sentence_index": e.sentence_index,
        "phrase": e.phrase,
        "components": [{"category": c.category, "token_range": list(c.token_range),
                        "surface": c.surface} for c in e.components],
        "polarity": e.polarity,
        "disease_tags": sorted(e.disease_tags),
        "level": e.level,
        "conflicts": list(e.conflicts),
    }


_SPANS = st.builds(AttributeSpan, _AWKWARD,
                   st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), _AWKWARD)
_EXPRESSIONS = st.builds(
    ReferringExpression, _AWKWARD, st.integers(-1, 10**6), _AWKWARD,
    st.lists(_SPANS, max_size=4).map(tuple), st.sampled_from(["positive", "negative"]),
    st.frozensets(_AWKWARD, max_size=4), st.sampled_from(report_parser.LEVELS),
    st.lists(_AWKWARD, max_size=3).map(tuple))


@settings(max_examples=300, deadline=None)
@given(st.lists(_EXPRESSIONS, max_size=4))
def test_written_line_is_json_dumps_of_the_row(expressions):
    out = io.StringIO()
    write_expressions_jsonl(out, expressions)
    # split at "\n" only: JSON escapes it, but not U+2028 or U+0085
    lines = out.getvalue().split("\n")
    assert lines.pop() == ""
    assert len(lines) == len(expressions)
    for line, e in zip(lines, expressions):
        row = _row(e)
        assert line == json.dumps(row, ensure_ascii=False)
        assert json.loads(line) == row


def test_written_file_is_utf8_of_the_lines(tmp_path):
    e = ReferringExpression("s\U0001f600/t", 0, 'a "b" \\ \u2028 \u00e9', (), "positive",
                            frozenset({"z", "\u4e2d"}), "referring", ("z",))
    out = tmp_path / "expr.jsonl"
    write_expressions_jsonl(out, [e, e])
    line = json.dumps(_row(e), ensure_ascii=False) + "\n"
    assert out.read_bytes() == (2 * line).encode("utf-8")


# --- records -------------------------------------------------------------------

def _records():
    """Two equal but distinct instances of each record type."""
    def build():
        span = AttributeSpan("R1", (0, 1), "pneumonia")
        return [
            Report("s1", 7, "Large pneumonia."),
            Sentence("s1/7", 0, (0, 16), "Large pneumonia.", ("large", "pneumonia", "."),
                     (0, 6, 15), (5, 15, 16)),
            span,
            ReferringExpression("s1/7", 0, "pneumonia", (span,), "positive",
                                frozenset({"pneumonia"}), "referring"),
        ]
    return list(zip(build(), build()))


@pytest.mark.parametrize("a, b", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_and_compare_by_value(a, b):
    assert a is not b and a == b and hash(a) == hash(b)
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        a.extra = 1  # no __dict__ to hold a new attribute
    assert a == b
    changed = a._replace(**{a._fields[0]: "other"})
    assert changed != a
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(twin) is type(a) and twin == a


def test_report_id_is_computed_once():
    report = Report("s1", 7, "Large pneumonia.")
    assert report.report_id == "s1/7"
    assert report == Report("s1", 7, "Large pneumonia.")
    assert report != Report("s1", 8, "Large pneumonia.")
    # report_id is a stored field, read without formatting it again
    assert "report_id" in Report._fields
    # a changed copy is checked and gets its own report_id
    assert report._replace(study_id=8).report_id == "s1/8"
    with pytest.raises(ValueError):
        report._replace(text="")


# --- longest-match oracle -----------------------------------------------------
# A brute-force scan over every lexicon entry, independent of the first-token
# index: at each position take the longest entry that matches, the first one
# listed on a tie of length, then skip past it. Entries are split into tokens
# the way report text is, so "ill-defined" is three tokens.

ORACLE_LEXICON = Lexicon(
    r1_terms=frozenset({"opacity", "pneumonia", "pneumothorax", "air space disease",
                        "lobe pneumonia", "consolidation"}),
    r5_terms=frozenset({"left", "left lower", "lower", "right"}),
    r6_terms=frozenset({"left lower lobe", "lobe", "at the bases", "bases", "no change zone"}),
    r7_terms=frozenset({"patchy", "small", "space", "ill-defined"}),
    negation_cues=("no", "no evidence of", "without", "free of", "not"),
    disease_terms={
        # "consolidation" under two diseases: the first listed wins an
        # occurrence, both are tags; "air space" nests in "air space disease";
        # "lower lobe" starts in an R5 span and ends in an R6 one
        "pneumonia": ("pneumonia", "air space disease", "consolidation"),
        "pneumothorax": ("pneumothorax",),
        "lobar": ("lobe pneumonia", "lower lobe"),
        "airspace": ("air space", "consolidation"),
    },
)

# Whole entries as well as their words, so multi-token matches are frequent.
ORACLE_WORDS = sorted({
    *ORACLE_LEXICON.r1_terms, *ORACLE_LEXICON.r5_terms, *ORACLE_LEXICON.r6_terms,
    *ORACLE_LEXICON.r7_terms, *ORACLE_LEXICON.negation_cues,
    *(" ".join(p) for p in report_parser._PSEUDO_NEGATIONS),
    *(w for p in report_parser._PSEUDO_NEGATIONS for w in p),
    "air", "disease", "evidence", "of", "free", "the", "zone", "is", "seen", "but",
    "however", ",", ";", ":", "Left", "PNEUMONIA", "No", "ill", "-", "defined", "Ill-Defined",
})


def _oracle_entries(lexicon):
    categories = [(t, c) for c, terms in (("R1", lexicon.r1_terms), ("R5", lexicon.r5_terms),
                                          ("R6", lexicon.r6_terms), ("R7", lexicon.r7_terms))
                  for t in sorted(terms)]
    diseases = [(s, d) for d, synonyms in lexicon.disease_terms.items() for s in synonyms]
    return categories, diseases


def _oracle_scan(lowered, entries):
    """(start, length, value) of each longest match, left to right."""
    found = []
    i = 0
    while i < len(lowered):
        best = None
        for term, value in entries:
            words = report_parser._TOKEN_RE.findall(term)
            if lowered[i:i + len(words)] == words and (best is None or len(words) > best[0]):
                best = (len(words), value)
        if best is None:
            i += 1
        else:
            found.append((i, *best))
            i += best[0]
    return found


def _oracle_scope(lowered, lexicon):
    pseudo = [(" ".join(p), "pseudo") for p in report_parser._PSEUDO_NEGATIONS]
    cues = [(c, "cue") for c in lexicon.negation_cues]
    boundaries = set(report_parser._HARD_BOUNDARIES) | {";", ":"}
    scope, active, i = [], False, 0
    while i < len(lowered):
        tok = lowered[i]
        if tok in boundaries:
            active = False
        elif tok == ",":
            for later in lowered[i + 1:]:
                if later in boundaries or later == ",":
                    break
                if later in report_parser._CLAUSE_VERBS:
                    active = False
                    break
        else:
            # a pseudo-negation is tried before any cue, whatever their lengths
            hits = _oracle_scan(lowered[i:], pseudo)
            if not (hits and hits[0][0] == 0):
                hits = _oracle_scan(lowered[i:], cues)
            if hits and hits[0][0] == 0:
                _, length, kind = hits[0]
                scope.extend([active] * length)
                active = active or kind == "cue"
                i += length
                continue
        scope.append(active)
        i += 1
    return scope


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(ORACLE_WORDS), min_size=1, max_size=12))
# adjacent pairs the random search rarely draws: synonyms crossing span
# edges, nested and shared synonyms, a pseudo-negation before a cue
@example(["lower", "lobe", "opacity"])
@example(["left lower lobe", "pneumonia"])
@example(["air space disease", "consolidation"])
@example(["no change", "pneumonia", "without", "opacity", "lobe pneumonia"])
@example(["no", ",", "is", "pneumothorax", "but", "not", "consolidation"])
def test_matcher_equals_brute_force_oracle(words):
    lexicon = ORACLE_LEXICON
    sentences = segment_sentences(" ".join(words), "r/s")
    assert len(sentences) == 1
    sentence = sentences[0]
    lowered = [t.surface.lower() for t in sentence.tokens]
    categories, diseases = _oracle_entries(lexicon)

    spans = classify_attributes(sentence, lexicon)
    expected_spans = _oracle_scan(lowered, categories)
    assert [(s.token_range, s.category) for s in spans] == [
        ((i, i + n), c) for i, n, c in expected_spans]

    scope = _oracle_scope(lowered, lexicon)
    assert report_parser._disease_occurrences(sentence, lexicon) == [
        (d, i, scope[i]) for i, _, d in _oracle_scan(lowered, diseases)]

    expr = compose_referring_expression(spans, sentence, lexicon)
    if not any(c == "R1" for _, _, c in expected_spans):
        assert expr is None
        return
    tags = set()
    for i, n, _ in expected_spans:
        for term, disease in diseases:
            words = report_parser._TOKEN_RE.findall(term)
            if any(lowered[j:j + len(words)] == words for j in range(i, i + n - len(words) + 1)):
                tags.add(disease)
    assert expr.disease_tags == tags
    head = next(i for i, _, c in expected_spans if c == "R1")
    assert expr.polarity == ("negative" if scope[head] else "positive")


def test_hyphenated_term_matches():
    sentence = segment_sentences("Ill-defined opacity.", "r/s")[0]
    spans = classify_attributes(sentence, ORACLE_LEXICON)
    assert [(s.category, s.token_range, s.surface) for s in spans] == [
        ("R7", (0, 3), "Ill-defined"), ("R1", (3, 4), "opacity")]
