from esglm.synth import (
    SynthSpec, as_labeled_examples, generate, run_replication_arm,
)
from esglm.tokenizer import encode, train_vocab


def test_generator_is_deterministic():
    spec = SynthSpec()
    a = generate(spec, 3)
    b = generate(spec, 3)
    assert a.corpus == b.corpus
    assert a.train == b.train
    assert a.test == b.test


def test_lexicon_partition():
    spec = SynthSpec()
    data = generate(spec, 0)
    pos, neg, neutral = (data.lexicon[k] for k in ("pos", "neg", "neutral"))
    assert len(pos) == len(neg) == spec.n_signal
    assert len(neutral) == spec.n_neutral
    all_words = pos + neg + neutral
    assert len(set(all_words)) == len(all_words)


def test_labeled_splits_use_disjoint_signal_words():
    spec = SynthSpec()
    data = generate(spec, 1)
    k = spec.n_train_signal
    train_signal = set(data.lexicon["pos"][:k] + data.lexicon["neg"][:k])
    held_out = set(data.lexicon["pos"][k:] + data.lexicon["neg"][k:])
    train_words = {w.rstrip(".") for text, _ in data.train for w in text.split()}
    test_words = {w.rstrip(".") for text, _ in data.test for w in text.split()}
    assert not train_words & held_out
    assert not test_words & train_signal
    assert test_words & held_out


def test_corpus_covers_all_signal_words():
    data = generate(SynthSpec(), 2)
    corpus_words = {
        w.rstrip(".") for doc in data.corpus for w in doc.split()
    }
    for kind in ("pos", "neg"):
        missing = set(data.lexicon[kind]) - corpus_words
        assert not missing, f"{kind} words never appear in the corpus: {missing}"


def test_as_labeled_examples_round_trip():
    spec = SynthSpec()
    data = generate(spec, 0)
    vocab = train_vocab(data.corpus, target_size=spec.vocab_size, min_freq=2)
    examples = as_labeled_examples(data.train[:5], vocab, spec.max_seq_len)
    for ex, (text, label) in zip(examples, data.train[:5]):
        assert len(ex.input_ids) == spec.max_seq_len
        assert ex.task_a_label == label
        assert ex.input_ids[1] == encode(text, vocab)[0]


def test_replication_arm_repeats_within_one_process():
    # a later call must not see state a former one left behind (caches,
    # shared buffers, a global RNG), or repeated benchmark passes disagree
    spec = SynthSpec(corpus_docs=32, n_train=24, n_val=8, n_test=16)
    first = run_replication_arm(spec, 3)
    assert len(first.pretrain_trace) == 8
    assert run_replication_arm(spec, 3) == first
