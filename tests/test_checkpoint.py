import numpy as np
import pytest

from remsim.checkpoint import (
    FIELD_NAMES,
    FORMAT_VERSION,
    CheckpointError,
    StageCheckpoint,
    read_checkpoint,
    write_checkpoint,
)


def make_ckpt(nx=6, ny=4, stage=1):
    rng = np.random.default_rng(stage)
    fields = {name: rng.uniform(0, 1, (ny, nx)) for name in FIELD_NAMES}
    return StageCheckpoint(
        stage=stage, clock=135.0 * 86400.0, nx=nx, ny=ny, seed=7,
        config_hash="abcd1234abcd1234", fields=fields,
    )


class TestRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        path = tmp_path / "s1.ckpt"
        ck = make_ckpt()
        write_checkpoint(ck, path)
        first = path.read_bytes()
        back = read_checkpoint(path)
        for name in FIELD_NAMES:
            np.testing.assert_array_equal(back.fields[name], ck.fields[name])
        assert (back.stage, back.clock, back.seed) == (ck.stage, ck.clock, ck.seed)
        path2 = tmp_path / "s1b.ckpt"
        write_checkpoint(back, path2)
        assert path2.read_bytes() == first

    def test_missing_fields_default_to_zero(self, tmp_path):
        ck = StageCheckpoint(stage=2, clock=0.0, nx=3, ny=2, seed=0, config_hash="x")
        assert (ck.fields["c_tce"] == 0.0).all()
        path = tmp_path / "s2.ckpt"
        write_checkpoint(ck, path)
        assert (read_checkpoint(path).fields["s_bulk"] == 0.0).all()


class TestErrors:
    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "s1.ckpt"
        write_checkpoint(make_ckpt(), path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError, match="payload"):
            read_checkpoint(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"this is not a checkpoint")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    @pytest.mark.parametrize("version", [FORMAT_VERSION - 1, 9], ids=["older", "newer"])
    def test_other_version_rejected(self, tmp_path, version):
        path = tmp_path / "s1.ckpt"
        write_checkpoint(make_ckpt(), path)
        data = path.read_bytes()
        current = f'"version":{FORMAT_VERSION}'.encode()
        assert data.count(current) == 1
        path.write_bytes(data.replace(current, f'"version":{version}'.encode()))
        with pytest.raises(CheckpointError, match=f"version {version} is not the supported "
                                                  f"version {FORMAT_VERSION}"):
            read_checkpoint(path)

    def test_bad_field_shape(self, tmp_path):
        ck = make_ckpt()
        ck.fields["sn"] = np.zeros((2, 2))
        with pytest.raises(CheckpointError, match="sn"):
            write_checkpoint(ck, tmp_path / "bad.ckpt")

    def test_failed_write_keeps_existing_file(self, tmp_path):
        path = tmp_path / "s1.ckpt"
        write_checkpoint(make_ckpt(), path)
        before = path.read_bytes()
        ck = make_ckpt(stage=2)
        ck.fields["k"] = np.zeros((2, 2))
        with pytest.raises(CheckpointError, match="k"):
            write_checkpoint(ck, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s1.ckpt"]

    def test_non_finite_payload(self, tmp_path):
        ck = make_ckpt()
        ck.fields["pw"][1, 2], ck.fields["k"][0, 0] = np.nan, -np.inf
        path = tmp_path / "s1.ckpt"
        write_checkpoint(ck, path)
        with pytest.raises(CheckpointError, match=r"s1\.ckpt: non-finite values in pw, k$"):
            read_checkpoint(path)
