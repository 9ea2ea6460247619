import io
import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sadnet import checkpoint, tensor as T
from sadnet.checkpoint import (_write_tensor, diff_configs, load_checkpoint,
                               require_config_match, save_checkpoint)
from sadnet.data import make_rng
from sadnet.errors import DataError
from sadnet.model import ModelConfig, SADNet
from sadnet.optim import AdamState, adam_step
from sadnet.tensor import Tensor

from oracles import traced_peak
from test_model import micro_config


def trained_model(rng, steps=2):
    """A micro model that has taken a couple of optimizer steps."""
    model = SADNet(micro_config(), rng=np.random.default_rng(3), dtype=np.float64)
    adam = AdamState(lr=1e-3)
    for _ in range(steps):
        x = Tensor(rng.standard_normal((1, 1, 8, 8)))
        target = Tensor(rng.standard_normal((1, 1, 8, 8)))
        T.loss("L2", model(x), target).backward()
        adam_step(model.params(), adam)
        for _, p in model.params():
            p.grad = None
    return model, adam


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, rng, tmp_path):
        model, adam = trained_model(rng)
        gen = make_rng(77)
        gen.normal(size=10)  # advance so the state is nontrivial
        p1, p2 = tmp_path / "a.sadn", tmp_path / "b.sadn"
        save_checkpoint(p1, model, adam, iteration=42,
                        rng_state=gen.bit_generator.state)
        ckpt = load_checkpoint(p1)
        save_checkpoint(p2, ckpt.model, ckpt.adam, ckpt.iteration,
                        rng_state=ckpt.rng_state)
        assert p1.read_bytes() == p2.read_bytes()

    def test_all_fields_restored(self, rng, tmp_path):
        model, adam = trained_model(rng)
        path = tmp_path / "c.sadn"
        save_checkpoint(path, model, adam, iteration=7, rng_state=None)
        ckpt = load_checkpoint(path)
        assert ckpt.iteration == 7
        assert ckpt.rng_state is None
        assert ckpt.adam.t == adam.t
        assert ckpt.adam.lr == adam.lr
        for (name, p), (name2, q) in zip(model.params(), ckpt.model.params()):
            assert name == name2
            np.testing.assert_array_equal(p.data, q.data)
            np.testing.assert_array_equal(adam.m[name], ckpt.adam.m[name])
            np.testing.assert_array_equal(adam.v[name], ckpt.adam.v[name])

    def test_rng_state_resumes_identical_stream(self, rng, tmp_path):
        model, adam = trained_model(rng)
        gen = make_rng(5)
        gen.normal(size=137)
        path = tmp_path / "r.sadn"
        save_checkpoint(path, model, adam, 0, rng_state=gen.bit_generator.state)
        expected = gen.normal(size=20)
        resumed = make_rng(0)
        resumed.bit_generator.state = load_checkpoint(path).rng_state
        np.testing.assert_array_equal(resumed.normal(size=20), expected)

    def test_before_first_optimizer_step(self, tmp_path):
        model = SADNet(micro_config(), rng=np.random.default_rng(0),
                       dtype=np.float64)
        path = tmp_path / "fresh.sadn"
        save_checkpoint(path, model, AdamState(), 0)
        ckpt = load_checkpoint(path)
        assert ckpt.adam.m == {}
        assert ckpt.adam.t == 0


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.sadn"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncation_reports_offset(self, rng, tmp_path):
        model, adam = trained_model(rng)
        path = tmp_path / "full.sadn"
        save_checkpoint(path, model, adam, 1)
        blob = path.read_bytes()
        cut = tmp_path / "cut.sadn"
        cut.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(DataError, match="truncated checkpoint at byte offset"):
            load_checkpoint(cut)

    def test_unsupported_version(self, rng, tmp_path):
        model, adam = trained_model(rng)
        path = tmp_path / "v.sadn"
        save_checkpoint(path, model, adam, 1)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.sadn")

    def test_bad_config_or_rng_json(self, rng, tmp_path):
        model, adam = trained_model(rng)
        path = tmp_path / "c.sadn"
        save_checkpoint(path, model, adam, 1, make_rng(5).bit_generator.state)
        blob = path.read_bytes()
        cfg_len = int.from_bytes(blob[8:12], "little")
        cfg = blob[12:12 + cfg_len]
        rng_at = 12 + cfg_len + 52  # iteration, Adam fields, RNG length
        # same-length edits keep the rest of the file readable
        for start, bad, message in (
                (12, b"{" * cfg_len, "JSONDecodeError"),
                (12, cfg.replace(b'"scales": 2', b'"scales": 3'),
                 "2 entries for 3 scales"),
                (rng_at, b"[", "JSONDecodeError")):
            path.write_bytes(blob[:start] + bad + blob[start + len(bad):])
            with pytest.raises(DataError, match="bad model config or RNG "
                                                "state: .*" + message):
                load_checkpoint(path)


    def test_trailing_bytes_report_offset(self, rng, tmp_path):
        model, adam = trained_model(rng)
        path = tmp_path / "t.sadn"
        save_checkpoint(path, model, adam, 1)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"junk!!!")
        with pytest.raises(DataError, match=f"7 trailing bytes .* byte offset "
                                            f"{size}"):
            load_checkpoint(path)

    def test_duplicate_tensor_name(self, rng, tmp_path):
        model, adam = trained_model(rng)
        path = tmp_path / "d.sadn"
        save_checkpoint(path, model, adam, 1)
        blob = path.read_bytes()
        cfg_len = int.from_bytes(blob[8:12], "little")
        count_at = 12 + cfg_len + 52  # iteration, Adam fields, RNG length 0
        count = int.from_bytes(blob[count_at:count_at + 4], "little")
        name, p = model.params()[-1]
        extra = io.BytesIO()
        _write_tensor(extra, name, p.data)
        path.write_bytes(blob[:count_at] + (count + 1).to_bytes(4, "little")
                         + blob[count_at + 4:] + extra.getvalue())
        with pytest.raises(DataError, match=f"duplicate tensor {name}"):
            load_checkpoint(path)

    def test_non_utf8_tensor_name(self, rng, tmp_path):
        model, adam = trained_model(rng)
        path = tmp_path / "n.sadn"
        save_checkpoint(path, model, adam, 1)
        blob = path.read_bytes()
        name_at = _records_at(blob) + 2  # after the first name's u16 length
        name_len = int.from_bytes(blob[name_at - 2:name_at], "little")
        path.write_bytes(blob[:name_at] + b"\xff" * name_len
                         + blob[name_at + name_len:])
        with pytest.raises(DataError, match=f"byte offset {name_at} is not "
                                            f"UTF-8"):
            load_checkpoint(path)

    def test_huge_shape_reports_truncation(self, rng, tmp_path):
        # 65536**4 wraps to 0 in int64; the record must not pass as empty
        model, adam = trained_model(rng)
        path = tmp_path / "h.sadn"
        save_checkpoint(path, model, adam, 1)
        blob = path.read_bytes()
        count_at = _records_at(blob) - 4
        record = (b"\x01\x00x\x04" + (65536).to_bytes(4, "little") * 4
                  + b"\x00")
        path.write_bytes(blob[:count_at] + (1).to_bytes(4, "little") + record)
        with pytest.raises(DataError, match="truncated checkpoint at byte "
                                            f"offset {count_at + 4 + len(record)}"):
            load_checkpoint(path)

    def test_mixed_dtype_names_tensor(self, tmp_path):
        model = SADNet(micro_config(), rng=np.random.default_rng(0),
                       dtype=np.float32)
        name, p = model.params()[-1]
        p.data = p.data.astype(np.float64)
        path = tmp_path / "m.sadn"
        save_checkpoint(path, model, AdamState(), 0)
        with pytest.raises(DataError, match=f"tensor {name} is float64, the "
                                            f"model is float32"):
            load_checkpoint(path)

    def test_block_count_beyond_records_rejected_before_building(
            self, micro_blob, tmp_path, monkeypatch):
        # a billion blocks per scale would be built one by one until memory
        # runs out; the records cannot hold them, so nothing may be built
        def build(*args, **kwargs):
            raise AssertionError("load_checkpoint built the model")
        monkeypatch.setattr(checkpoint, "SADNet", build)
        cfg_len = int.from_bytes(micro_blob[8:12], "little")
        for key in ("resblocks_per_scale", "rsabs_per_scale"):
            config = json.loads(micro_blob[12:12 + cfg_len])
            config[key] = 1_000_000_000
            cfg_blob = json.dumps(config, sort_keys=True).encode("utf-8")
            path = tmp_path / f"{key}.sadn"
            path.write_bytes(micro_blob[:8]
                             + len(cfg_blob).to_bytes(4, "little") + cfg_blob
                             + micro_blob[12 + cfg_len:])
            with pytest.raises(DataError, match="bad model config: "
                                                "2000000002 blocks need"):
                load_checkpoint(path)


def _records_at(blob: bytes) -> int:
    """Byte offset of the first tensor record of a checkpoint blob."""
    cfg_len = int.from_bytes(blob[8:12], "little")
    rng_len_at = 12 + cfg_len + 48  # iteration, Adam fields
    rng_len = int.from_bytes(blob[rng_len_at:rng_len_at + 4], "little")
    return rng_len_at + 4 + rng_len + 4  # RNG state, record count


@pytest.fixture(scope="module")
def micro_blob(tmp_path_factory):
    """A trained micro checkpoint with Adam moments and an RNG state."""
    model, adam = trained_model(np.random.default_rng(11))
    path = tmp_path_factory.mktemp("blob") / "micro.sadn"
    save_checkpoint(path, model, adam, 3, make_rng(5).bit_generator.state)
    return path.read_bytes()


def _with_records(blob: bytes, *records) -> bytes:
    """A checkpoint blob with extra (name, array) tensor records appended."""
    count_at = _records_at(blob) - 4
    count = int.from_bytes(blob[count_at:count_at + 4], "little")
    extra = io.BytesIO()
    for name, arr in records:
        _write_tensor(extra, name, arr)
    return (blob[:count_at] + (count + len(records)).to_bytes(4, "little")
            + blob[count_at + 4:] + extra.getvalue())


class TestAdamMoments:
    """Every moment must pair with a parameter of its shape, m with v."""

    def test_renamed_moment_rejected(self, micro_blob, tmp_path):
        # same-length rename: the file stays well-formed, only the name lies
        path = tmp_path / "renamed.sadn"
        path.write_bytes(micro_blob.replace(b"adam.m.head.weight",
                                            b"adam.m.heaX.weight"))
        with pytest.raises(DataError, match=r"adam\.m\.heaX\.weight names no "
                                            r"model parameter"):
            load_checkpoint(path)

    def test_misshapen_moment_rejected(self, tmp_path):
        model = SADNet(micro_config(), rng=np.random.default_rng(0),
                       dtype=np.float64)
        path = tmp_path / "fresh.sadn"
        save_checkpoint(path, model, AdamState(), 0)
        moment = np.zeros((1, 4, 1, 1))  # head.weight is (4, 1, 1, 1)
        path.write_bytes(_with_records(
            path.read_bytes(), ("adam.m.head.weight", moment),
            ("adam.v.head.weight", moment)))
        with pytest.raises(DataError, match=r"adam\.m\.head\.weight has shape "
                                            r"\(1, 4, 1, 1\), parameter "
                                            r"head\.weight has \(4, 1, 1, 1\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("have,lack", [("m", "v"), ("v", "m")])
    def test_unpaired_moment_rejected(self, tmp_path, have, lack):
        model = SADNet(micro_config(), rng=np.random.default_rng(0),
                       dtype=np.float64)
        path = tmp_path / "fresh.sadn"
        save_checkpoint(path, model, AdamState(), 0)
        path.write_bytes(_with_records(
            path.read_bytes(), (f"adam.{have}.head.bias", np.zeros((1, 4, 1, 1)))))
        with pytest.raises(DataError, match=rf"adam\.{have}\.head\.bias has no "
                                            rf"adam\.{lack}\.head\.bias"):
            load_checkpoint(path)


class TestCorruptionProperty:
    """Any damaged checkpoint either loads or raises DataError."""

    @staticmethod
    def _load_or_data_error(tmp_path_factory, blob: bytes) -> None:
        path = tmp_path_factory.getbasetemp() / "mutated.sadn"
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except DataError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_byte_overwritten(self, micro_blob, tmp_path_factory, data):
        at = data.draw(st.integers(0, len(micro_blob) - 1), label="offset")
        value = data.draw(st.integers(0, 255), label="value")
        self._load_or_data_error(
            tmp_path_factory,
            micro_blob[:at] + bytes([value]) + micro_blob[at + 1:])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated(self, micro_blob, tmp_path_factory, data):
        cut = data.draw(st.integers(0, len(micro_blob) - 1), label="length")
        self._load_or_data_error(tmp_path_factory, micro_blob[:cut])

    # small values only: a config may build as many blocks as it asks for
    _SCALARS = st.one_of(st.integers(-1, 9), st.sampled_from([3.0, 1.5, 0.5]),
                         st.booleans(), st.none(), st.just("3"))

    @settings(max_examples=80, deadline=None)
    @given(key=st.sampled_from([f.name for f in fields(ModelConfig)]),
           value=st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4)))
    @example(key="kernel_size", value=3.0)
    @example(key="scales", value=0)
    def test_model_config_value_replaced(self, micro_blob, tmp_path_factory,
                                         key, value):
        """One config value of another JSON type or size either is rejected
        as a DataError or gives a model that runs."""
        cfg_len = int.from_bytes(micro_blob[8:12], "little")
        config = json.loads(micro_blob[12:12 + cfg_len])
        config[key] = value
        cfg_blob = json.dumps(config, sort_keys=True).encode("utf-8")
        path = tmp_path_factory.getbasetemp() / "retyped.sadn"
        path.write_bytes(micro_blob[:8] + len(cfg_blob).to_bytes(4, "little")
                         + cfg_blob + micro_blob[12 + cfg_len:])
        try:
            model = load_checkpoint(path).model
        except DataError:
            return
        side = model.config.divisor
        model(Tensor(np.zeros((1, model.config.in_channels, side, side),
                              model.tail.weight.dtype)))


def shrink_after_fstat(monkeypatch, path) -> None:
    """Cut the file at ``path`` by one byte right after something takes its
    size with ``os.fstat``, as a writer truncating it concurrently would."""
    fstat, target = os.fstat, os.stat(path)

    def fstat_then_cut(fd):
        st = fstat(fd)
        if os.path.samestat(st, target) and st.st_size == target.st_size:
            os.truncate(path, st.st_size - 1)
        return st

    monkeypatch.setattr(os, "fstat", fstat_then_cut)


class TestStreamedLoad:
    """A load reads each tensor straight into its own array; the file is
    never held whole."""

    def test_traced_peak_holds_each_tensor_once(self, tmp_path):
        # besides the records (parameters and both Adam moments) a load
        # holds the zero skeleton whose arrays the parameter records
        # replace: np.zeros, traced though its pages are never touched. A
        # whole-file blob would add the records' bytes once more.
        model = SADNet(ModelConfig(channels_per_scale=(16, 32, 64, 128)))
        adam = AdamState(t=1)
        for name, p in model.params():
            adam.m[name] = np.full_like(p.data, 0.5)
            adam.v[name] = np.full_like(p.data, 0.25)
        path = tmp_path / "s.sadn"
        save_checkpoint(path, model, adam, 1)
        ckpt, peak = traced_peak(lambda: load_checkpoint(path))
        params = sum(p.data.nbytes for _, p in ckpt.model.params())
        tensors = params + sum(a.nbytes for moments in (ckpt.adam.m, ckpt.adam.v)
                               for a in moments.values())
        assert tensors == 3 * params > 12_000_000
        assert peak <= tensors + params + (1 << 18)

    def test_save_copies_no_tensor(self, tmp_path):
        # each record is written from its array's own buffer; a tobytes()
        # copy would add the largest, a 256x256 3x3 conv weight of 2.4 MB
        model = SADNet(ModelConfig())
        _, peak = traced_peak(lambda: save_checkpoint(tmp_path / "s.sadn",
                                                      model, AdamState(), 0))
        largest = max(p.data.nbytes for _, p in model.params())
        assert largest > 2_000_000
        assert peak <= 1 << 16

    def test_file_shrunk_after_its_size_was_taken(self, micro_blob, tmp_path,
                                                  monkeypatch):
        # the size check passes; the last record's 8 bytes then read short
        path = tmp_path / "s.sadn"
        path.write_bytes(micro_blob)
        shrink_after_fstat(monkeypatch, path)
        with pytest.raises(DataError, match=(
                f"truncated checkpoint at byte offset {len(micro_blob) - 8} "
                rf"\(need 8 more bytes\)")):
            load_checkpoint(path)
        assert path.stat().st_size == len(micro_blob) - 1

    @settings(max_examples=30, deadline=None)
    @given(shape=st.lists(st.integers(0, 3), max_size=4).map(tuple))
    @example(shape=(2, 0, 3))
    @example(shape=())
    def test_record_of_any_shape_reads_whole(self, micro_blob,
                                             tmp_path_factory, shape):
        """Zero-size and 0-d records too: the array holds the record's
        values, and a load reads past the record to reject its name."""
        arr = np.arange(math.prod(shape), dtype=np.float64).reshape(shape)
        path = tmp_path_factory.getbasetemp() / "raw.bin"
        path.write_bytes(arr.tobytes())
        with open(path, "rb") as fh:
            r = checkpoint._Reader(fh, path)
            np.testing.assert_array_equal(r.array(shape, arr.dtype), arr)
            assert r.pos == r.size
        path.write_bytes(_with_records(micro_blob, ("extra", arr)))
        with pytest.raises(DataError, match="unexpected tensor extra in "
                                            "checkpoint"):
            load_checkpoint(path)


class TestConfigMatching:
    def test_diff_names_fields(self):
        a = ModelConfig()
        b = ModelConfig(channels_per_scale=(16, 32, 64, 128), leaky_slope=0.1)
        assert diff_configs(a, b) == ["channels_per_scale", "leaky_slope"]

    def test_mismatch_message_names_field_and_values(self):
        a = micro_config()
        b = micro_config(rsabs_per_scale=3)
        with pytest.raises(DataError, match="rsabs_per_scale.*expected 1.*3"):
            require_config_match(a, b, "ck.sadn")

    def test_match_is_silent(self):
        require_config_match(micro_config(), micro_config(), "ck.sadn")
