from dataclasses import asdict

import numpy as np
import pytest

from xhembed import artifact, embedstore
from xhembed.artifact import ArtifactError
from xhembed.embedstore import read_embeddings
from xhembed.nmt.checkpoint import load_checkpoint, save_checkpoint
from xhembed.nmt.model import param_shapes
from xhembed.xmap import MappingModel, PreprocessRecord, load_mapping, save_mapping

from conftest import tiny_model


def small_mapping(d=3):
    rng = np.random.default_rng(0)
    return MappingModel(rng.normal(size=(d, d)), rng.normal(size=(d, d)),
                        PreprocessRecord(rng.normal(size=d)),
                        PreprocessRecord(rng.normal(size=d)), 0.5)


class TestWrite:
    def test_lands_at_exact_path(self, tmp_path):
        save_mapping(small_mapping(), tmp_path / "map.txt")
        assert [p.name for p in tmp_path.iterdir()] == ["map.txt"]

    def test_interrupted_write_keeps_old_file(self, tmp_path, monkeypatch):
        cfg, params, _, _ = tiny_model()
        path = tmp_path / "ck.ckpt"
        save_checkpoint(path, cfg, params)
        before = path.read_bytes()

        real_write = np.lib.format.write_array
        written = []

        def failing_write(fp, arr, *args, **kwargs):
            if written:
                raise OSError("disk full")
            written.append(arr)
            real_write(fp, arr, *args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", failing_write)
        changed = {k: v + 1.0 for k, v in params.items()}
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, cfg, changed)
        monkeypatch.undo()

        assert len(written) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["ck.ckpt"]
        assert path.read_bytes() == before
        _, loaded, _ = load_checkpoint(path)
        for k in params:
            assert np.array_equal(loaded[k], params[k]), k


class TestRead:
    def test_wrong_kind_named(self, tmp_path):
        path = tmp_path / "map.npz"
        save_mapping(small_mapping(), path)
        with pytest.raises(ArtifactError, match="expected a checkpoint"):
            load_checkpoint(path)

    def test_shape_disagreeing_with_header(self, tmp_path):
        path = tmp_path / "map.npz"
        m = small_mapping()
        artifact.save(path, "mapping", {"dim": 3, "objective": 0.5},
                      {"w_x": m.w_x, "w_z": m.w_z[:2]})
        with pytest.raises(ArtifactError, match="'w_z' has shape"):
            load_mapping(path)

    @pytest.mark.parametrize("name", ["w_z", "pre_x", "pre_z"])
    def test_array_not_of_w_x_width(self, tmp_path, name):
        m = small_mapping()
        arrays = {"w_x": m.w_x, "w_z": m.w_z, "pre_x": m.pre_x.column_means,
                  "pre_z": m.pre_z.column_means}
        arrays[name] = np.zeros((4,) * arrays[name].ndim)
        path = tmp_path / "map.npz"
        artifact.save(path, "mapping", {"objective": 0.5}, arrays)
        with pytest.raises(ArtifactError, match=f"'{name}' has shape"):
            load_mapping(path)

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "map.npz"
        m = small_mapping()
        artifact.save(path, "mapping", {"dim": 3},
                      {"w_x": m.w_x, "w_z": m.w_z})
        with pytest.raises(ArtifactError, match="missing key 'objective'"):
            load_mapping(path)

    @pytest.mark.parametrize("data", [b"", b"dim 3 objective 0.5\n1 2 3\n",
                                      b"PK\x03\x04garbage"])
    def test_unreadable_bytes(self, tmp_path, data):
        path = tmp_path / "map.txt"
        path.write_bytes(data)
        with pytest.raises(ArtifactError) as info:
            load_mapping(path)
        assert str(info.value).startswith(str(path))

    def test_every_truncation_is_an_artifact_error(self, tmp_path):
        path = tmp_path / "map.npz"
        save_mapping(small_mapping(), path)
        data = path.read_bytes()
        cut = tmp_path / "cut.npz"
        for n in range(0, len(data), 37):
            cut.write_bytes(data[:n])
            with pytest.raises(ArtifactError):
                load_mapping(cut)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="no.ckpt"):
            load_checkpoint(tmp_path / "no.ckpt")


class TestRestatedHeaders:
    """Files whose headers also restate what their arrays hold still load."""

    def test_checkpoint_listing_its_tensors(self, tmp_path):
        """A header that lists every tensor's shape; the archive holds the
        tensors in reverse order, and they load in param_shapes order."""
        cfg, params, sv, tv = tiny_model()
        path = tmp_path / "old.ckpt"
        header = {"config": asdict(cfg), "history": [],
                  "tensors": {name: t.shape for name, t in params.items()}}
        artifact.save(path, "checkpoint", header, dict(reversed(params.items())))
        cfg2, loaded, history = load_checkpoint(path)
        assert cfg2 == cfg and history == []
        assert list(loaded) == list(param_shapes(cfg, len(sv), len(tv)))
        for name, t in params.items():
            assert loaded[name].dtype == t.dtype and np.array_equal(loaded[name], t)

    def test_mapping_giving_its_dim(self, tmp_path):
        m = small_mapping()
        path = tmp_path / "old.npz"
        artifact.save(path, "mapping", {"dim": 3, "objective": 0.5},
                      {"w_x": m.w_x, "w_z": m.w_z, "pre_x": m.pre_x.column_means,
                       "pre_z": m.pre_z.column_means})
        loaded = load_mapping(path)
        assert loaded.objective == 0.5
        for got, want in ((loaded.w_x, m.w_x), (loaded.w_z, m.w_z),
                          (loaded.pre_x.column_means, m.pre_x.column_means),
                          (loaded.pre_z.column_means, m.pre_z.column_means)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_embedding_matrix_giving_its_dim(self, tmp_path):
        rows = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "old.npz"
        artifact.save(path, embedstore.KIND, {"tokens": ["a", "b"], "dim": 3},
                      {"rows": rows})
        loaded = read_embeddings(path)
        assert loaded.tokens == ["a", "b"] and loaded.dim == 3
        assert loaded.rows.dtype == rows.dtype and np.array_equal(loaded.rows, rows)
