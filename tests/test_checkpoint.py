import zlib

import numpy as np
import pytest

from esglm.checkpoint import (
    CheckpointMeta,
    load_checkpoint,
    save_checkpoint,
)
from esglm.errors import (
    CorruptCheckpoint,
    NotACheckpoint,
    UnsupportedVersion,
)
from esglm.model import ModelConfig, init_params

CFG = ModelConfig(vocab_size=24, hidden_dim=8, num_layers=2, num_heads=2,
                  ffn_dim=16, max_seq_len=16, dropout_rate=0.1)


def saved(tmp_path, stage="pretrained", seed=7):
    params = init_params(CFG, seed=seed)  # float32: payload dtype at rest
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, CFG, CheckpointMeta(stage=stage, seed=seed), path)
    return params, path


def resealed(raw: bytes) -> bytes:
    """A format 2 file's bytes with its CRC32 trailer recomputed, so that a
    crafted record reaches the parser."""
    return raw[:-4] + zlib.crc32(raw[:-4]).to_bytes(4, "little")


class TestRoundTrip:
    def test_tensors_bit_exact(self, tmp_path):
        params, path = saved(tmp_path)
        loaded, config, meta = load_checkpoint(path)
        assert config == CFG
        assert meta.stage == "pretrained"
        assert meta.seed == 7
        assert set(loaded.tensors) == set(params.tensors)
        for name in params.tensors:
            assert loaded[name].dtype == np.float32
            assert np.array_equal(
                loaded[name].view(np.uint32), params[name].view(np.uint32)
            )

    def test_train_config_provenance_round_trips(self, tmp_path):
        params = init_params(CFG, seed=0)
        path = tmp_path / "m.ckpt"
        tc = {"learning_rate": 2e-05, "epochs": 8, "batch_size": 8}
        save_checkpoint(params, CFG, CheckpointMeta("finetuned_a", 3, tc), path)
        _, _, meta = load_checkpoint(path)
        assert meta.train_config == tc

    def test_save_load_save_is_byte_identical(self, tmp_path):
        params, path = saved(tmp_path)
        loaded, config, meta = load_checkpoint(path)
        path2 = tmp_path / "again.ckpt"
        save_checkpoint(loaded, config, meta, path2)
        assert path.read_bytes() == path2.read_bytes()


class TestRejection:
    def test_bad_magic(self, tmp_path):
        _, path = saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(NotACheckpoint):
            load_checkpoint(bad)

    def test_future_version(self, tmp_path):
        _, path = saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        bad = tmp_path / "future.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersion):
            load_checkpoint(bad)

    @pytest.mark.parametrize("keep", [10, 120, 0.5, 0.95])
    def test_truncation_never_yields_params(self, tmp_path, keep):
        _, path = saved(tmp_path)
        raw = path.read_bytes()
        n = int(keep if keep > 1 else keep * len(raw))
        bad = tmp_path / "trunc.ckpt"
        bad.write_bytes(raw[:n])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(bad)

    def test_trailing_garbage_rejected(self, tmp_path):
        _, path = saved(tmp_path)
        bad = tmp_path / "extra.ckpt"
        bad.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(bad)

    @pytest.mark.parametrize("dims", [(0xFFFFFFFF, 0xFFFFFFFF), (1 << 20,)])
    def test_oversized_record_rejected_before_reading(self, tmp_path, dims):
        # the first record promises more payload than the file holds; a dims
        # product that overflows int64 once gave a negative size
        _, path = saved(tmp_path)
        raw = bytearray(path.read_bytes())
        meta_len = int.from_bytes(raw[8:12], "little")
        rec = 12 + meta_len + 4
        name_len = int.from_bytes(raw[rec:rec + 4], "little")
        dtype_at = rec + 4 + name_len
        rank = raw[dtype_at + 1]
        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(resealed(bytes(raw[:dtype_at]) + bytes([0, len(dims)])
                                 + b"".join(d.to_bytes(4, "little") for d in dims)
                                 + bytes(raw[dtype_at + 2 + 4 * rank:])))
        with pytest.raises(CorruptCheckpoint, match="needs"):
            load_checkpoint(bad)

    def test_tensor_name_not_utf8_rejected(self, tmp_path):
        _, path = saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"tok_emb")] = 0xFF
        bad = tmp_path / "name.ckpt"
        bad.write_bytes(resealed(bytes(raw)))
        with pytest.raises(CorruptCheckpoint, match="do not match"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("meta", [
        CheckpointMeta(stage=None, seed=0), CheckpointMeta(stage=5, seed=0),
        CheckpointMeta(stage="pretrained", seed="7"),
        CheckpointMeta(stage="pretrained", seed=0, train_config=[1]),
    ], ids=["stage_null", "stage_int", "seed_text", "train_config_list"])
    def test_metadata_of_the_wrong_type_rejected(self, tmp_path, meta):
        path = tmp_path / "meta.ckpt"
        save_checkpoint(init_params(CFG, seed=0), CFG, meta, path)
        with pytest.raises(CorruptCheckpoint, match="bad metadata"):
            load_checkpoint(path)

    def test_metadata_checked_before_tensors(self, tmp_path):
        # a file holding only magic+version+meta must fail on the meta read,
        # proving no tensor parsing happens before validation
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(b"ESGB" + (1).to_bytes(4, "little"))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(bad)


class TestCrc:
    """Format 2 ends in a CRC32 of every byte before it."""

    def test_flipped_seed_digit_is_detected(self, tmp_path):
        # "seed": 7 -> "seed": 6 is one bit and still valid metadata
        _, path = saved(tmp_path, seed=7)
        raw = bytearray(path.read_bytes())
        raw[raw.index(b'"seed": 7') + len(b'"seed": ')] ^= 0x01
        bad = tmp_path / "seed.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpoint, match="CRC32"):
            load_checkpoint(bad)

    def test_every_flipped_byte_is_detected(self, tmp_path):
        path = tmp_path / "small.ckpt"
        small = ModelConfig(vocab_size=4, hidden_dim=2, num_layers=1, num_heads=1,
                            ffn_dim=2, max_seq_len=2)
        save_checkpoint(init_params(small, seed=0), small,
                        CheckpointMeta(stage="pretrained", seed=0), path)
        raw = path.read_bytes()
        bad = tmp_path / "flip.ckpt"
        for at in range(len(raw)):
            flipped = bytearray(raw)
            flipped[at] ^= 0x01 if at % 2 else 0x80
            bad.write_bytes(bytes(flipped))
            if at < 8:  # magic or version
                with pytest.raises((CorruptCheckpoint, NotACheckpoint,
                                    UnsupportedVersion)):
                    load_checkpoint(bad)
            else:  # the CRC32 is checked before any record is parsed
                with pytest.raises(CorruptCheckpoint, match="CRC32 mismatch"):
                    load_checkpoint(bad)

    def test_format_1_files_still_load(self, tmp_path):
        # a format 1 file is a format 2 file with version 1 and no CRC32
        params, path = saved(tmp_path)
        raw = bytearray(path.read_bytes()[:-4])
        raw[4:8] = (1).to_bytes(4, "little")
        old = tmp_path / "v1.ckpt"
        old.write_bytes(bytes(raw))
        loaded, config, meta = load_checkpoint(old)
        assert config == CFG and meta.seed == 7
        assert loaded.flat.tobytes() == params.flat.tobytes()
        with pytest.raises(CorruptCheckpoint):  # format 1 has no trailer
            old.write_bytes(bytes(raw) + path.read_bytes()[-4:])
            load_checkpoint(old)

    def test_trailer_is_the_crc32_of_the_body(self, tmp_path):
        _, path = saved(tmp_path)
        raw = path.read_bytes()
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[-4:], "little") == zlib.crc32(raw[:-4])
