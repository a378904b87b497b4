import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esglm.checkpoint import load_checkpoint
from esglm.cli import load_config
from esglm.data import load_manifest
from esglm.errors import EmptyDocument, InvalidConfig
from esglm.extract import (
    ABBREVIATIONS,
    DanEmbedder,
    DanParams,
    ExtractionConfig,
    Sentence,
    dan_embed,
    embed_benchmarks,
    extract_top_k,
    segment_sentences,
)
from esglm.tokenizer import Vocab, encode, prepare_input

WORDS = ["climate", "carbon", "water", "waste", "energy", "revenue",
         "sales", "office", "team", "report"]
VOCAB = Vocab.from_tokens(
    ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", *WORDS, "."]
)


def fresh_embedder(seed=0, d=6):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(len(VOCAB), d))
    return DanEmbedder.from_token_embeddings(VOCAB, emb, seed=seed)


def cosine_similarity(u, v) -> float:
    """u.v / (|u||v|) of arrays or SentenceEmbeddings (whose flagged vectors
    are zero); a zero vector ranks last via -inf."""
    u = np.asarray(getattr(u, "vector", u), dtype=np.float64)
    v = np.asarray(getattr(v, "vector", v), dtype=np.float64)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return float("-inf")
    return float(np.dot(u, v) / (nu * nv))


def score_sentences(sentences, cfg, embedder) -> list[float]:
    """Per-sentence relevance, one sentence at a time: max cosine over the
    benchmark embeddings.  The brute-force reference for extract_top_k."""
    benches = [embedder.embed(b) for b in cfg.benchmark_sentences]
    return [
        max(cosine_similarity(embedder.embed(s), b) for b in benches)
        for s in sentences
    ]


class TestSegmentation:
    def test_three_terminators(self):
        got = segment_sentences("It rained. We left! Why?")
        assert [s.text for s in got] == ["It rained.", "We left!", "Why?"]

    def test_decimal_number_not_a_boundary(self):
        got = segment_sentences("Revenue was 3.5 million. It grew.")
        assert [s.text for s in got] == ["Revenue was 3.5 million.", "It grew."]

    def test_empty_text(self):
        assert segment_sentences("") == []
        assert segment_sentences("   \n ") == []

    @pytest.mark.parametrize("abbrev", ["Inc", "Corp", "No", "Mr", "Dr"])
    def test_abbreviations_do_not_split(self, abbrev):
        got = segment_sentences(f"We asked {abbrev}. Smith about it. He agreed.")
        assert len(got) == 2
        assert got[0].text == f"We asked {abbrev}. Smith about it."

    def test_us_abbreviation(self):
        got = segment_sentences("Sales in the U.S. grew fast. Europe lagged.")
        assert [s.text for s in got] == [
            "Sales in the U.S. grew fast.", "Europe lagged.",
        ]

    def test_et_al_abbreviation(self):
        got = segment_sentences("See Smith et al. for details. We concur.")
        assert [s.text for s in got] == [
            "See Smith et al. for details.", "We concur.",
        ]

    def test_abbreviation_lookalike_still_splits(self):
        # lowercase "no" at sentence end is not the abbreviation "No"
        got = segment_sentences("He said no. We left.")
        assert [s.text for s in got] == ["He said no.", "We left."]

    def test_terminator_runs_collapse(self):
        # one boundary per run: no empty segments between ? and !
        got = segment_sentences("Really?! Wait!!! Ok.")
        assert [s.text for s in got] == ["Really?!", "Wait!!!", "Ok."]

    def test_ellipsis_followed_by_space_is_a_boundary(self):
        got = segment_sentences("Yes... definitely.")
        assert [s.text for s in got] == ["Yes...", "definitely."]

    def test_offsets_strictly_increasing_and_point_at_text(self):
        # each sentence is found in the text after the one before it
        text = "  One here. Two there!  Three. "
        got = segment_sentences(text)
        end = 0
        for s in got:
            start = text.index(s.text, end)
            assert not text[end:start].strip()
            end = start + len(s.text)
        assert not text[end:].strip()
        assert [s.index for s in got] == [0, 1, 2]

    def test_no_trailing_terminator(self):
        got = segment_sentences("First one. Second without end")
        assert [s.text for s in got] == ["First one.", "Second without end"]


def _reference_segment_sentences(text):
    """The per-character segmenter that the regex scan replaced."""

    def is_abbreviation(period_pos):
        head = text[:period_pos]
        for ab in ABBREVIATIONS:
            if head.endswith(ab):
                before = period_pos - len(ab) - 1
                if before < 0 or not (text[before].isalnum() or text[before] == "."):
                    return True
        return False

    boundaries = []
    i = 0
    n = len(text)
    while i < n:
        if text[i] in ".!?":
            run_start = i
            while i < n and text[i] in ".!?":
                i += 1
            if i < n and not text[i].isspace():
                continue
            run = text[run_start:i]
            if run == ".":
                prev_c = text[run_start - 1] if run_start > 0 else ""
                next_c = text[run_start + 1] if run_start + 1 < n else ""
                if prev_c.isdigit() and next_c.isdigit():
                    continue
                if is_abbreviation(run_start):
                    continue
            boundaries.append(i)
        else:
            i += 1
    sentences = []
    seg_start = 0
    for b in boundaries + [n]:
        if b < seg_start:
            continue
        stripped = text[seg_start:b].strip()
        if stripped:
            sentences.append(Sentence(stripped, len(sentences)))
        seg_start = b
    return sentences


# text as (head, terminator run, gap) triples, so that every rule meets
# every context: digits around a period, each abbreviation and
# look-alikes before a run, and runs followed by mixed whitespace or not
SEGMENT_TEXT = st.lists(st.tuples(
    st.sampled_from(["", "a", "Z", "3", "14", "word", "_", "Xinc", "e.g", "u.s",
                     *ABBREVIATIONS]),
    st.sampled_from(["", ".", "!", "?", "...", "?!", "!.", ".."]),
    st.sampled_from(["", " ", "  ", "\t", "\n", "\xa0", "\u2003", "\x1c", "5"]),
), max_size=25).map(lambda parts: "".join(map("".join, parts)))


class TestSegmentationMatchesReference:
    @settings(max_examples=300)
    @given(SEGMENT_TEXT)
    @example("Revenue was 3. 5 million. Mr. Smith et al. left!? U.S. 1.2 No.")
    def test_random_text(self, text):
        assert segment_sentences(text) == _reference_segment_sentences(text)

    def test_fixture_filings(self, fixtures_dir):
        for path in sorted((fixtures_dir / "filings").glob("*.txt")):
            text = path.read_text(encoding="utf-8")
            assert segment_sentences(text) == _reference_segment_sentences(text)


class TestBatchedDan:
    def test_rows_match_one_sentence_dan_embed(self):
        e = fresh_embedder(seed=7, d=16)
        rng = np.random.default_rng(11)
        pool = WORDS + ["zzz", "€", "qqq"]
        texts = [" ".join(rng.choice(pool, size=rng.integers(0, 9)).tolist())
                 for _ in range(60)] + ["zzz qqq €", ""]
        vectors, zero = e.embed_batch([encode(t, VOCAB) for t in texts])
        singles = [e.embed(t) for t in texts]
        assert vectors.dtype == np.float64
        np.testing.assert_allclose(vectors, [s.vector for s in singles],
                                   rtol=0, atol=1e-12)
        assert zero.tolist() == [s.is_zero for s in singles]
        assert zero.any() and not zero.all()
        assert np.all(vectors[zero] == 0.0)

    def test_equal_sentences_get_equal_rows(self):
        # ties go to the earlier sentence only if equal sentences score equally
        e = fresh_embedder(seed=8, d=24)
        rng = np.random.default_rng(12)
        ids = [encode(" ".join(rng.choice(WORDS, size=5).tolist()), VOCAB)
               for _ in range(37)]
        for i, j in [(0, 36), (3, 4), (5, 33), (17, 18)]:
            ids[j] = ids[i]
        vectors, _ = e.embed_batch(ids)
        for i, j in [(0, 36), (3, 4), (5, 33), (17, 18)]:
            assert np.array_equal(vectors[i], vectors[j])


def test_fixture_selections_match_the_per_sentence_reference(pipeline_run,
                                                             fixtures_dir):
    cfg = load_config(str(fixtures_dir / "fixture.cfg"))
    vocab = Vocab.load(pipeline_run / "vocab.txt")
    params, _, _ = load_checkpoint(pipeline_run / "pre.ckpt")
    embedder = DanEmbedder.from_token_embeddings(
        vocab, params["tok_emb"].astype(np.float64),
        embed_dim=cfg.dan_dim or None, seed=cfg.dan_seed,
    )
    ex_cfg = ExtractionConfig(top_k=cfg.top_k)
    docs = {d.doc_id: d for d in load_manifest(fixtures_dir / "filings.jsonl")}
    with open(pipeline_run / "extracted.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == len(docs)
    for rec in records:
        sentences = segment_sentences(docs[rec["doc_id"]].text)
        scores = score_sentences(sentences, ex_cfg, embedder)
        expect = brute_force_top_k(sentences, scores, cfg.top_k)
        assert [s["index"] for s in rec["selected"]] == expect
        np.testing.assert_allclose([s["score"] for s in rec["selected"]],
                                   [scores[i] for i in expect], rtol=0, atol=1e-12)


class TestDanEmbed:
    def test_single_token_average_is_that_embedding(self):
        emb = np.zeros((len(VOCAB), 6))
        emb[VOCAB.index["carbon"]] = np.arange(6, dtype=float)
        e = fresh_embedder()
        avg = emb[[VOCAB.index["carbon"]]].mean(axis=0)
        np.testing.assert_array_equal(avg, emb[VOCAB.index["carbon"]])

    def test_word_order_irrelevant(self):
        e = fresh_embedder(seed=1)
        a = e.embed("climate carbon water report")
        b = e.embed("report water carbon climate")
        np.testing.assert_allclose(a.vector, b.vector, atol=1e-12)

    def test_two_dim_toy_normalized_average(self):
        vocab = Vocab.from_tokens(
            ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "alpha", "beta"]
        )
        emb = np.zeros((7, 2))
        emb[5] = [1.0, 0.0]
        emb[6] = [0.0, 1.0]
        identity = DanParams(w1=np.eye(2), b1=np.zeros(2), w2=np.eye(2), b2=np.zeros(2))
        out = dan_embed("alpha beta", vocab, emb, identity)
        np.testing.assert_allclose(out.vector, [0.7071, 0.7071], atol=1e-4)
        assert not out.is_zero

    def test_unknown_only_sentence_flagged_zero(self):
        e = fresh_embedder()
        out = e.embed("zzzqqq xxxyyy")
        assert out.is_zero
        assert np.all(out.vector == 0.0)

    def test_unit_norm(self):
        e = fresh_embedder(seed=2)
        out = e.embed("waste water energy")
        assert abs(np.linalg.norm(out.vector) - 1.0) < 1e-6

    def test_deterministic(self):
        e = fresh_embedder(seed=3)
        a = e.embed("climate waste")
        b = e.embed("climate waste")
        np.testing.assert_array_equal(a.vector, b.vector)


class TestCosine:
    def test_self_similarity_is_one(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=5), rng.normal(size=5)
        base = cosine_similarity(u, v)
        for a, b in [(2.0, 3.0), (0.1, 7.5), (1e6, 1e-6)]:
            assert cosine_similarity(a * u, b * v) == pytest.approx(base, abs=1e-12)

    def test_zero_vector_ranks_last(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 0.0]) == float("-inf")

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u, v = rng.normal(size=4), rng.normal(size=4)
            assert -1.0 - 1e-12 <= cosine_similarity(u, v) <= 1.0 + 1e-12


def top_k(doc, cfg, embedder):
    """extract_top_k with cfg's benchmark rows, as cmd_extract calls it."""
    return extract_top_k(doc, cfg, embedder, embed_benchmarks(cfg, embedder))


def brute_force_top_k(sentences, scores, k):
    ranked = sorted(range(len(sentences)), key=lambda i: (-scores[i], i))
    return ranked[:k]


class TestExtractTopK:
    def test_k_capped_at_sentence_count(self):
        e = fresh_embedder()
        out = top_k("Carbon fell. Water rose.", ExtractionConfig(top_k=3), e)
        assert len(out.sentences) == 2

    def test_matches_brute_force_oracle(self):
        e = fresh_embedder(seed=4)
        rng = np.random.default_rng(9)
        for trial in range(30):
            n = int(rng.integers(1, 20))
            sents = [
                " ".join(rng.choice(WORDS, size=rng.integers(1, 6)).tolist()) + "."
                for _ in range(n)
            ]
            doc = " ".join(sents)
            segmented = segment_sentences(doc)
            scores = score_sentences(segmented, ExtractionConfig(), e)
            expect = brute_force_top_k(segmented, scores, 3)
            got = top_k(doc, ExtractionConfig(top_k=3), e)
            assert [s.index for s in got.sentences] == expect

    def test_tie_break_prefers_earlier_sentence(self):
        e = fresh_embedder()
        bench = ExtractionConfig().benchmark_sentences[0]
        doc = " ".join(["Climate carbon water waste."] * 5)
        out = top_k(doc, ExtractionConfig(top_k=3), e)
        assert [s.index for s in out.sentences] == [0, 1, 2]

    def test_selection_invariant_under_embedding_rescale(self):
        # cosine only sees directions, so globally scaling every sentence
        # embedding by a positive factor must not move the ranking
        class Scaled:
            def __init__(self, inner, factor):
                self.inner, self.factor = inner, factor
                self.vocab = inner.vocab

            def embed(self, text):
                e = self.inner.embed(text)
                e.vector = e.vector * self.factor
                return e

            def embed_batch(self, id_lists):
                vectors, zero = self.inner.embed_batch(id_lists)
                return vectors * self.factor, zero

        doc = ("Carbon emissions rose. Revenue was flat. Water waste fell. "
               "The office moved. Energy costs doubled.")
        cfg = ExtractionConfig(top_k=3)
        inner = fresh_embedder(seed=5)
        base = top_k(doc, cfg, inner)
        assert base.token_ids
        for factor in (0.001, 42.0):
            scaled = top_k(doc, cfg, Scaled(inner, factor))
            assert [s.index for s in scaled.sentences] == [
                s.index for s in base.sentences
            ]

    def test_output_feeds_prepare_input_at_512(self):
        e = fresh_embedder(seed=6)
        doc = " ".join(["Climate and water and waste and energy report."] * 40)
        out = top_k(doc, ExtractionConfig(), e)
        enc = prepare_input(out.token_ids, max_seq_len=512)
        assert len(enc.ids) == 512

    def test_empty_document_rejected(self):
        with pytest.raises(EmptyDocument):
            top_k("   ", ExtractionConfig(), fresh_embedder())

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            ExtractionConfig(top_k=0)
        with pytest.raises(InvalidConfig):
            ExtractionConfig(benchmark_sentences=())
