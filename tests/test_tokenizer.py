import pytest
from collections import Counter

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from esglm.errors import InvalidConfig, InvalidId, InvalidInput
from esglm.model import trim_batch
from esglm.tokenizer import (
    CLS_ID,
    NUM_SPECIALS,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK,
    UNK_ID,
    Vocab,
    encode,
    prepare_input,
    pretokenize,
    train_vocab,
)
from esglm.tokenizer import _encode_word, _surface, _word_symbols


def make_vocab(*extra):
    return Vocab.from_tokens(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", *extra])


def decode(ids, vocab):
    """Inverse of encode up to lowercasing and UNK loss: "##" pieces join
    the previous piece, others join with single spaces.  encode emits no
    special id but UNK, so none needs dropping."""
    words = []
    for i in ids:
        tok = vocab.tokens[i]
        if tok.startswith("##") and words:
            words[-1] += tok[2:]
        else:
            words.append(tok)
    return " ".join(words)


class TestVocab:
    def test_specials_come_first(self):
        v = make_vocab("a", "b")
        assert v.tokens[:5] == ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
        assert len(v) == 7

    def test_index_inverse_of_tokens(self):
        v = make_vocab("un", "##able")
        for i, tok in enumerate(v.tokens):
            assert v.index[tok] == i

    def test_rejects_bad_specials(self):
        with pytest.raises(InvalidConfig):
            Vocab.from_tokens(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "x", "y"])

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidConfig):
            make_vocab("a", "a")

    def test_file_round_trip(self, tmp_path):
        v = make_vocab("the", "##s", "run")
        path = tmp_path / "vocab.txt"
        v.save(path)
        assert Vocab.load(path).tokens == v.tokens
        # first five lines are the literal specials
        lines = path.read_text().splitlines()
        assert lines[:5] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]


class TestTrainVocab:
    def test_merges_most_frequent_pair_first(self):
        # "aaab" twice: bigram "aa" occurs 4 times, "ab" twice, so the
        # "aa" piece must be created before any "ab" piece.
        v = train_vocab(["aaab", "aaab"], target_size=50, min_freq=1)
        surfaces = [t.removeprefix("##") for t in v.tokens[5:]]
        assert "aa" in surfaces
        assert surfaces.index("aa") < surfaces.index("ab")

    def test_single_character_corpus(self):
        v = train_vocab(["x"], target_size=100, min_freq=1)
        assert v.tokens == ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "x")

    def test_document_order_irrelevant(self):
        docs = ["the cat sat", "the mat", "a cat ran", "the the the"]
        a = train_vocab(docs, target_size=40, min_freq=1)
        b = train_vocab(list(reversed(docs)), target_size=40, min_freq=1)
        assert a.tokens == b.tokens

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidInput):
            train_vocab([], target_size=100)
        with pytest.raises(InvalidInput):
            train_vocab(["   ", ""], target_size=100)

    def test_target_below_alphabet_rejected(self):
        with pytest.raises(InvalidConfig):
            train_vocab(["abcdef"], target_size=8)

    def test_min_freq_stops_merging(self):
        # every pair occurs once; min_freq=2 forbids all merges
        v = train_vocab(["abc"], target_size=100, min_freq=2)
        assert v.tokens[5:] == ("##b", "##c", "a")


def _reference_train_vocab(corpus, target_size: int, min_freq: int = 2) -> Vocab:
    # The trainer as it was before pair counts were kept between merges: it
    # recounts every pair of every word after each merge.
    docs = list(corpus)
    if not docs or all(not d.strip() for d in docs):
        raise InvalidInput("empty corpus")

    word_freqs = Counter()
    for doc in docs:
        word_freqs.update(pretokenize(doc))

    alphabet = {c for word in word_freqs for c in word}
    if target_size < NUM_SPECIALS + len(alphabet):
        raise InvalidConfig(
            f"target_size {target_size} < {NUM_SPECIALS} specials "
            f"+ {len(alphabet)} characters"
        )

    segmented = {w: _word_symbols(w) for w in word_freqs}
    # Initial inventory: the positional character forms that actually occur.
    inventory = sorted({sym for syms in segmented.values() for sym in syms})
    tokens = list(SPECIAL_TOKENS) + inventory
    seen = set(tokens)
    while len(tokens) < target_size:
        pair_freqs = Counter()
        for word, syms in segmented.items():
            freq = word_freqs[word]
            for left, right in zip(syms, syms[1:]):
                pair_freqs[(_surface(left), right)] += freq
        if not pair_freqs:
            break
        best_freq = max(pair_freqs.values())
        if best_freq < min_freq:
            break
        best = min(p for p, f in pair_freqs.items() if f == best_freq)

        realized: set[str] = set()
        for word, syms in segmented.items():
            merged: list[str] = []
            i = 0
            while i < len(syms):
                if (
                    i + 1 < len(syms)
                    and (_surface(syms[i]), syms[i + 1]) == best
                ):
                    new_sym = syms[i] + _surface(syms[i + 1])
                    realized.add(new_sym)
                    merged.append(new_sym)
                    i += 2
                else:
                    merged.append(syms[i])
                    i += 1
            segmented[word] = merged
        for sym in sorted(realized):
            if sym not in seen and len(tokens) < target_size:
                tokens.append(sym)
                seen.add(sym)

    return Vocab.from_tokens(tokens)


def _outcome(train, docs, target, min_freq):
    try:
        return train(docs, target, min_freq).tokens
    except (InvalidConfig, InvalidInput) as exc:
        return type(exc)


class TestTrainVocabMatchesReference:
    """The incremental trainer gives the recounting trainer's vocabulary."""

    @given(
        docs=st.lists(
            st.sampled_from(["ab", "aab", "a'b-c. ", "abc ab"]).flatmap(
                lambda alphabet: st.text(alphabet=alphabet + " ", max_size=40)
            ),
            max_size=4,
        ),
        target=st.integers(0, 60),
        min_freq=st.sampled_from([1, 2, 3]),
    )
    @example(docs=["aaaa aaab"], target=60, min_freq=1)
    @example(docs=["aaaaaa aaab baaa", "abab"], target=60, min_freq=2)
    @settings(max_examples=300, deadline=None)
    def test_random_corpora(self, docs, target, min_freq):
        assert _outcome(train_vocab, docs, target, min_freq) == _outcome(
            _reference_train_vocab, docs, target, min_freq
        )

    @pytest.mark.parametrize("target", [2000, 400, 60])
    def test_fixture_corpus(self, fixtures_dir, target):
        docs = [p.read_text(encoding="utf-8") for p in sorted((fixtures_dir / "corpus").glob("*.txt"))]
        assert train_vocab(docs, target).tokens == _reference_train_vocab(docs, target).tokens


class TestEncode:
    def test_greedy_longest_match(self):
        v = make_vocab("un", "##able", "u", "##n", "##a")
        assert encode("unable", v) == [v.index["un"], v.index["##able"]]

    def test_empty_text(self):
        assert encode("", make_vocab("a")) == []

    def test_unmatched_word_becomes_unk(self):
        v = make_vocab("a", "##b")
        assert encode("qzx", v) == [UNK_ID]

    def test_unk_when_remainder_unmatched(self):
        # "ab" matches "a" then has no piece for "b"
        v = make_vocab("a")
        assert encode("ab", v) == [UNK_ID]

    def test_lowercases(self):
        v = make_vocab("run")
        assert encode("RUN", v) == [v.index["run"]]

    def test_punctuation_split_off(self):
        v = make_vocab("revenue", "grew", ".")
        assert encode("Revenue grew.", v) == [
            v.index["revenue"], v.index["grew"], v.index["."],
        ]

    def test_never_emits_pad(self):
        v = train_vocab(["some words to tokenize"], target_size=60, min_freq=1)
        ids = encode("some untokenizable words !!", v)
        assert PAD_ID not in ids
        assert all(0 <= i < len(v) for i in ids)


def _reference_pretokenize(text: str) -> list[str]:
    """The per-character pretokenize that the str-method one replaced."""
    words: list[str] = []
    current: list[str] = []
    for ch in text.lower():
        if ch.isspace():
            if current:
                words.append("".join(current))
                current = []
        elif ch.isalnum() or ch == "'":
            current.append(ch)
        else:
            if current:
                words.append("".join(current))
                current = []
            words.append(ch)
    if current:
        words.append("".join(current))
    return words


def _reference_encode(text: str, vocab: Vocab) -> list[int]:
    """encode without the per-vocab memo."""
    return [i for w in _reference_pretokenize(text) for i in _encode_word(w, vocab)]


# characters where the str methods and the regex could part from the loop:
# underscore, apostrophe, punctuation, combining marks, other numerics,
# unicode spaces, case mappings that change length (İ, ß) and final sigma
TRICKY = list("aZ09'_-.,!?$%/ \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000"
              "éÉßİΣσς½²٣Ⅻ€\u0301\u200b\ufeff\U0001d400\U0001f600")


class TestPretokenizeMatchesReference:
    @pytest.mark.parametrize("start", range(0, 0x110000, 0x10000))
    def test_every_code_point_alone_and_in_context(self, start):
        chars = [chr(c) for c in range(start, start + 0x10000)]
        for ctx in ("{}", "a{}b", "'{}9"):
            text = " ".join(ctx.format(c) for c in chars)
            if pretokenize(text) != _reference_pretokenize(text):
                bad = [hex(ord(c)) for c in chars if pretokenize(ctx.format(c))
                       != _reference_pretokenize(ctx.format(c))]
                pytest.fail(f"context {ctx!r} differs at {bad[:10]}")

    @given(st.text(st.sampled_from(TRICKY) | st.characters(), max_size=80))
    @example("Don't  stop_now! It's 3.5%--ok")
    def test_random_text(self, text):
        assert pretokenize(text) == _reference_pretokenize(text)


class TestEncodeMemo:
    VOCAB = make_vocab("don", "'", "t", "stop", "##s", "##ing", "carbon", "s",
                       "##t", ".", "!", "3", "##5", "_")

    @given(st.text(st.sampled_from(TRICKY + list("donstpicarb")), max_size=60))
    def test_matches_memo_free_encode(self, text):
        # VOCAB's memo persists across examples, so both cold and warm
        # chunks are checked
        assert encode(text, self.VOCAB) == _reference_encode(text, self.VOCAB)

    def test_cold_and_warm_memo_agree(self):
        texts = ["Don't stop!", "Stopping carbon.", "dON'T  stops_3.5",
                 "stop stop stop", "€ carbons!!"]
        vocab = make_vocab(*self.VOCAB.tokens[NUM_SPECIALS:])
        cold = [encode(t, vocab) for t in texts]
        assert vocab.pieces
        warm = [encode(t, vocab) for t in texts]
        assert cold == warm == [_reference_encode(t, vocab) for t in texts]

    def test_memo_is_not_part_of_equality(self):
        a, b = make_vocab("x", "##y"), make_vocab("x", "##y")
        encode("xy xz X", a)
        assert a.pieces and not b.pieces
        assert a == b and repr(a) == repr(b)
        assert a != make_vocab("x", "##z")


class TestDecode:
    def test_inverse_of_encode(self):
        v = make_vocab("un", "##able")
        assert decode([v.index["un"], v.index["##able"]], v) == "unable"

    def test_unk_surface_kept(self):
        v = make_vocab("a")
        assert decode([UNK_ID, v.index["a"]], v) == f"{UNK} a"

    @pytest.mark.parametrize("word", ["run", "environment", "a"])
    def test_round_trip_in_vocab_word(self, word):
        v = make_vocab(word.lower())
        assert decode(encode(word, v), v) == word.lower()


def _expected_round_trip(text, vocab):
    # independent statement of the round-trip law: each pre-token either
    # survives intact (lowercased) or collapses to the UNK surface form
    out = []
    for word in pretokenize(text):
        out.append(word if decode(encode(word, vocab), vocab) != UNK else UNK)
    return " ".join(out)


class TestRoundTripLaw:
    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_decode_encode_is_normalized_text(self, text):
        v = train_vocab(
            ["the quick brown fox jumps over 42 lazy dogs !?."],
            target_size=80,
            min_freq=1,
        )
        got = decode(encode(text, v), v)
        words = [
            UNK if UNK_ID in encode(w, v) else w for w in pretokenize(text)
        ]
        assert got == " ".join(words)

    def test_fixture_sentence(self):
        corpus = ["emissions fell while water usage grew in the quarter"]
        v = train_vocab(corpus, target_size=120, min_freq=1)
        s = "Water usage GREW; emissions fell."
        assert decode(encode(s, v), v) == _expected_round_trip(s, v)


# letters mixed with brackets, hashes and the spellings of the PAD token
PAD_LOOKALIKES = st.lists(
    st.sampled_from(["[PAD]", "[pad]", "##pad", "[", "]", "#", "pad", "P", "a",
                     "d", "x", " "]),
    max_size=30,
).map("".join)


class TestEncodeNeverEmitsPad:
    HAND_BUILT = make_vocab("[", "pad", "]", "##pad", "[pad]", "#", "x", "##a")

    @given(PAD_LOOKALIKES)
    @example("[PAD] [pad]##pad [[pad]] #pad")
    @settings(max_examples=150, deadline=None)
    def test_hand_built_and_trained_vocabs(self, text):
        assert PAD_ID not in encode(text, self.HAND_BUILT)
        assume(text.strip())
        trained = train_vocab([text], target_size=200, min_freq=1)
        assert PAD_ID not in encode(text, trained)


class TestPrepareInput:
    def test_padding_case(self):
        out = prepare_input([10, 11, 12], max_seq_len=8)
        assert out.ids.tolist() == [CLS_ID, 10, 11, 12, SEP_ID, PAD_ID, PAD_ID, PAD_ID]
        assert out.real_len == 5

    def test_pad_id_in_body_rejected(self):
        with pytest.raises(InvalidId):
            prepare_input([10, PAD_ID, 12], max_seq_len=8)
        # a PAD beyond the kept head is dropped with the tail
        assert prepare_input([10, 11, PAD_ID], max_seq_len=4).real_len == 4

    def test_truncates_tail_at_512(self):
        ids = list(range(10, 610))
        out = prepare_input(ids, max_seq_len=512)
        assert out.real_len == 512
        assert out.ids[0] == CLS_ID
        assert out.ids[1:511].tolist() == ids[:510]
        assert out.ids[511] == SEP_ID

    def test_empty_body(self):
        out = prepare_input([], max_seq_len=6)
        assert out.ids.tolist() == [CLS_ID, SEP_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID]
        assert out.real_len == 2

    def test_min_length_rejected(self):
        with pytest.raises(InvalidConfig):
            prepare_input([1], max_seq_len=2)

    @given(st.lists(st.integers(min_value=5, max_value=99), max_size=40),
           st.integers(min_value=3, max_value=32))
    @settings(max_examples=150, deadline=None)
    def test_length_and_mask_invariants(self, ids, max_len):
        out = prepare_input(ids, max_seq_len=max_len)
        assert len(out.ids) == max_len
        real = out.ids != PAD_ID
        assert int(real.sum()) == out.real_len == min(len(ids) + 2, max_len)
        assert real[: out.real_len].all()  # a prefix of real_len ones
        assert out.ids[0] == CLS_ID
        assert out.ids[out.real_len - 1] == SEP_ID
        trimmed, mask = trim_batch(out.ids[None])
        assert trimmed.shape == mask.shape == (1, out.real_len)
        assert mask.all()
