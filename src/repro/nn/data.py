"""Dataset and DataLoader utilities mirroring ``torch.utils.data``.

The TyXe ``fit`` interface expects an iterable of ``(inputs, targets)``
tuples; these classes provide that for in-memory NumPy arrays, with optional
shuffling and mini-batching.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .tensor import Tensor

__all__ = ["Dataset", "TensorDataset", "Subset", "DataLoader", "random_split"]


def _default_rng() -> np.random.Generator:
    from ..ppl.rng import get_rng  # lazy: ppl imports nn at package load
    return get_rng()


class Dataset:
    """Abstract map-style dataset."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int):
        raise NotImplementedError

    def batch(self, indices: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The items at ``indices`` (an integer array), stacked field by field."""
        items = [self[int(i)] for i in indices]
        return tuple(np.stack(column) for column in zip(*items))


class TensorDataset(Dataset):
    """Dataset wrapping equally-sized arrays; each item is a tuple of rows."""

    def __init__(self, *arrays: Union[np.ndarray, Tensor]) -> None:
        self.arrays = [a.data if isinstance(a, Tensor) else np.asarray(a) for a in arrays]
        lengths = {len(a) for a in self.arrays}
        if len(lengths) != 1:
            raise ValueError(f"all arrays must have the same length, got {lengths}")

    def __len__(self) -> int:
        return len(self.arrays[0])

    def __getitem__(self, index):
        return tuple(a[index] for a in self.arrays)

    def batch(self, indices: np.ndarray) -> Tuple[np.ndarray, ...]:
        """One fancy-indexing gather per array: the rows ``np.stack`` of the
        items would give, byte for byte."""
        return tuple(a[indices] for a in self.arrays)


class Subset(Dataset):
    """View of a dataset restricted to the given indices."""

    def __init__(self, dataset: Dataset, indices: Sequence[int]) -> None:
        self.dataset = dataset
        self.indices = list(indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index):
        return self.dataset[self.indices[index]]

    def batch(self, indices: np.ndarray) -> Tuple[np.ndarray, ...]:
        return self.dataset.batch(np.asarray(self.indices)[indices])


def random_split(dataset: Dataset, lengths: Sequence[int],
                 rng: Optional[np.random.Generator] = None) -> List[Subset]:
    """Randomly partition ``dataset`` into subsets of the given lengths."""
    if sum(lengths) != len(dataset):
        raise ValueError("sum of lengths does not equal the dataset size")
    gen = rng if rng is not None else _default_rng()
    perm = gen.permutation(len(dataset))
    subsets, offset = [], 0
    for n in lengths:
        subsets.append(Subset(dataset, perm[offset:offset + n]))
        offset += n
    return subsets


class DataLoader:
    """Mini-batch iterator yielding ``(inputs, targets)`` tuples of Tensors.

    For a :class:`TensorDataset` of two arrays this yields exactly the
    length-two tuples the TyXe ``fit`` method expects.
    """

    def __init__(self, dataset: Dataset, batch_size: int = 32, shuffle: bool = False,
                 drop_last: bool = False, rng: Optional[np.random.Generator] = None) -> None:
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        # resolved per-iteration so a later set_rng_seed governs shuffling
        self.rng = rng

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def _batch_indices(self) -> Iterator[np.ndarray]:
        n = len(self.dataset)
        rng = self.rng if self.rng is not None else _default_rng()
        order = rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            batch = order[start:start + self.batch_size]
            if self.drop_last and len(batch) < self.batch_size:
                return
            yield batch

    def __iter__(self) -> Iterator[Tuple]:
        for batch in self._batch_indices():
            yield tuple(Tensor(column) for column in self.dataset.batch(batch))
