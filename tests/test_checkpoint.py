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
        # the reader refuses a zero k or theta_m, so those two are given
        given = {"k": np.full((2, 3), 1e-12), "theta_m": np.full((2, 3), 0.35)}
        ck = StageCheckpoint(stage=2, clock=0.0, nx=3, ny=2, seed=0, config_hash="x",
                             fields=dict(given))
        assert (ck.fields["c_tce"] == 0.0).all()
        path = tmp_path / "s2.ckpt"
        write_checkpoint(ck, path)
        back = read_checkpoint(path).fields
        for name in FIELD_NAMES:
            expected = given.get(name, np.zeros((2, 3)))
            np.testing.assert_array_equal(back[name], expected)

    @pytest.mark.parametrize("absent", [["k"], ["theta_m"], ["k", "theta_m"]])
    def test_built_without_k_or_theta_m_refused(self, absent):
        # the reader refuses their zeros, so they get none to write
        fields = {name: np.ones((2, 3)) for name in FIELD_NAMES if name not in absent}
        with pytest.raises(ValueError, match=f"fields {', '.join(absent)} are required"):
            StageCheckpoint(stage=2, clock=0.0, nx=3, ny=2, seed=0, config_hash="x",
                            fields=fields)

    def test_values_the_stages_write_read_back(self, tmp_path):
        # the stages leave rounding-level negatives in sn and the
        # concentrations, which the reader does not range-check; a theta_m
        # of 1 is the top of its range
        ck = make_ckpt()
        ck.fields["sn"][1, 2] = -5.4e-20
        ck.fields["c_tce"][3, 0] = -1e-13
        ck.fields["theta_m"][0, 4] = 1.0
        path = tmp_path / "s2.ckpt"
        write_checkpoint(ck, path)
        back = read_checkpoint(path)
        for name in FIELD_NAMES:
            assert back.fields[name].tobytes() == ck.fields[name].tobytes()


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
