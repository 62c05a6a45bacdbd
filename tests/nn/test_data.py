"""Unit tests for datasets and data loaders."""

import numpy as np
import pytest

from repro import nn


class TestTensorDataset:
    def test_length_and_items(self, rng):
        x, y = rng.standard_normal((10, 3)), rng.integers(0, 2, 10)
        ds = nn.TensorDataset(x, y)
        assert len(ds) == 10
        xi, yi = ds[3]
        np.testing.assert_allclose(xi, x[3])
        assert yi == y[3]

    def test_mismatched_lengths_raise(self, rng):
        with pytest.raises(ValueError):
            nn.TensorDataset(rng.standard_normal((10, 3)), rng.standard_normal(9))

    def test_accepts_tensors(self, rng):
        ds = nn.TensorDataset(nn.Tensor(rng.standard_normal((5, 2))))
        assert len(ds) == 5


class TestSubsetAndSplit:
    def test_subset_indexing(self, rng):
        ds = nn.TensorDataset(np.arange(10))
        sub = nn.Subset(ds, [2, 4, 6])
        assert len(sub) == 3
        assert sub[1][0] == 4

    def test_random_split_partitions(self, rng):
        ds = nn.TensorDataset(np.arange(10))
        a, b = nn.random_split(ds, [7, 3], rng=rng)
        values = sorted([a[i][0] for i in range(len(a))] + [b[i][0] for i in range(len(b))])
        assert values == list(range(10))

    def test_random_split_wrong_lengths(self):
        with pytest.raises(ValueError):
            nn.random_split(nn.TensorDataset(np.arange(10)), [5, 4])


class TestDataLoader:
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("drop_last", [False, True])
    @pytest.mark.parametrize("subset", [False, True])
    def test_batches_cover_dataset(self, rng, subset, drop_last, shuffle):
        """Batches come from one gather per array (``Dataset.batch``) and are
        byte-equal to stacking the items one by one, for a TensorDataset of
        1-D and 2-D arrays and a Subset of it."""
        x, y = rng.standard_normal((23, 2)), np.arange(23)
        ds = nn.TensorDataset(x, y)
        if subset:
            ds = nn.Subset(ds, rng.permutation(23)[:17])
        loader = nn.DataLoader(ds, batch_size=5, drop_last=drop_last, shuffle=shuffle,
                               rng=np.random.default_rng(3))
        order = (np.random.default_rng(3).permutation(len(ds)) if shuffle
                 else np.arange(len(ds)))
        seen = []
        for start, (xb, yb) in zip(range(0, len(ds), 5), loader):
            assert isinstance(xb, nn.Tensor)
            # the item-by-item stack of the base class is the reference
            ref_x, ref_y = nn.Dataset.batch(ds, order[start:start + 5])
            for got, ref in ((xb.data, ref_x), (yb.data, ref_y)):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert np.array_equal(got, ref) and got.flags["C_CONTIGUOUS"]
            seen.extend(yb.data.tolist())
        n_batches = len(ds) // 5 if drop_last else -(-len(ds) // 5)
        assert len(loader) == n_batches and len(seen) == (n_batches * 5 if drop_last else len(ds))
        expected = [ds[int(i)][1] for i in order[:len(seen)]]
        assert seen == expected

    def test_drop_last(self, rng):
        loader = nn.DataLoader(nn.TensorDataset(np.arange(23)), batch_size=5, drop_last=True)
        assert len(loader) == 4
        batches = list(loader)
        assert all(len(b[0]) == 5 for b in batches)

    def test_shuffle_changes_order(self):
        ds = nn.TensorDataset(np.arange(100))
        loader = nn.DataLoader(ds, batch_size=100, shuffle=True, rng=np.random.default_rng(0))
        (batch,) = list(loader)
        assert not np.array_equal(batch[0].data, np.arange(100))
        assert sorted(batch[0].data.tolist()) == list(range(100))

    def test_no_shuffle_preserves_order(self):
        loader = nn.DataLoader(nn.TensorDataset(np.arange(10)), batch_size=4, shuffle=False)
        first = next(iter(loader))
        np.testing.assert_array_equal(first[0].data, [0, 1, 2, 3])

    def test_yields_length_two_tuples_for_supervised_data(self, rng):
        loader = nn.DataLoader(nn.TensorDataset(rng.standard_normal((8, 2)), np.arange(8)),
                               batch_size=4)
        batch = next(iter(loader))
        assert len(batch) == 2
