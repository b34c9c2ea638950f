"""Dataset model, label spaces, deterministic randomness, splits, CSV I/O."""

from __future__ import annotations

import csv
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

Label = Hashable


class SeededRng:
    """Deterministic pseudo-random stream.

    Backed by the PCG64 generator under a 64-bit unsigned seed, so the same
    seed produces the same draws on every platform.  A stream is single-owner:
    share work across threads by creating independent streams from distinct
    seeds.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def uniform(self, count: int) -> np.ndarray:
        """Return ``count`` draws from the uniform distribution on [0, 1)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return self._gen.random(int(count))

    def permutation(self, n: int) -> np.ndarray:
        """Return a random permutation of ``range(n)``."""
        return self._gen.permutation(int(n))


def tau_stream(rng: SeededRng, count: int) -> np.ndarray:
    """Tie-breaking values for smoothed p-values, each in [0, 1]."""
    return rng.uniform(count)


class Bag:
    """Multiset of examples: an observation matrix plus labels.

    ``label_space`` is the ordered finite set of admissible class symbols; it
    is empty for regression bags, whose labels are finite reals.  Insertion
    order is stored only to keep smoothing and reporting reproducible --
    every predictor output is invariant under permutation of the bag.
    ``x`` and :attr:`feature_rows` are read-only views, and ``y`` and
    ``label_space`` are tuples, so no method changes a bag and bags are safe
    to share across threads; writing through a view's ``.base`` is
    unsupported (numpy lets the owner of the data turn writing back on).

    A bag made by :meth:`append` remembers, through a weak reference, the
    bag it extended, so :meth:`starts_with` answers for that bag in O(1)
    and :attr:`feature_rows` extends that bag's rows (at once, when that bag
    holds them already); a copy or an unpickled bag is checked again as a
    new bag, read-only, and remembers nothing.
    """

    __slots__ = ("x", "y", "label_space", "_prefix", "_rows", "__weakref__")

    def __init__(self, x, y, label_space: Sequence[Label] = ()):
        x = np.array(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("observations must form a 2-d array of shape (n, d)")
        if x.size and not np.all(np.isfinite(x)):
            raise ValueError("all feature entries must be finite reals")
        label_space = tuple(label_space)
        y = tuple(y)
        if len(y) != x.shape[0]:
            raise ValueError(f"{x.shape[0]} observations but {len(y)} labels")
        if label_space:
            known = set(label_space)
            if len(known) != len(label_space):
                repeated = next(lbl for lbl in label_space if label_space.count(lbl) > 1)
                raise ValueError(f"label {repeated!r} appears twice in the label space")
            for lbl in y:
                if lbl not in known:
                    raise ValueError(f"label {lbl!r} is not in the label space")
        else:
            y = tuple(float(v) for v in y)
            if y and not all(math.isfinite(v) for v in y):
                raise ValueError("regression labels must be finite reals")
        self.x = _read_only(x)
        self.y = y
        self.label_space = label_space
        self._prefix = self._rows = None

    def __reduce__(self):
        return Bag, (self.x, self.y, self.label_space)

    @classmethod
    def classification(cls, x, y, label_space: Sequence[Label] | None = None) -> "Bag":
        """Classification bag; the label space defaults to the sorted distinct labels."""
        y = tuple(y)
        if label_space is None:
            label_space = tuple(sorted(set(y)))
        if not label_space:
            raise ValueError("a classification bag needs a nonempty label space")
        return cls(x, y, label_space)

    @classmethod
    def regression(cls, x, y) -> "Bag":
        """Regression bag: labels are finite reals, label space empty."""
        return cls(x, y, ())

    @property
    def is_classification(self) -> bool:
        return bool(self.label_space)

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, indices) -> "Bag":
        indices = np.asarray(indices, dtype=int)
        return Bag(self.x[indices], tuple(self.y[i] for i in indices), self.label_space)

    def append(self, other: "Bag") -> "Bag":
        """New bag with this bag's examples followed by ``other``'s.

        The label space is this bag's, in its order, followed by the labels
        only ``other``'s label space holds, sorted, so a stream may
        introduce labels without reordering the known ones.  Neither bag's
        examples are checked again: each bag was checked when it was built,
        and its labels lie inside the merged label space.
        """
        if self.is_classification != other.is_classification and (self.y or other.y):
            raise ValueError("cannot mix classification and regression bags")
        if self.n_features != other.n_features:
            raise ValueError("feature arity mismatch")
        space = self.label_space + tuple(sorted(set(other.label_space) - set(self.label_space)))
        merged = _unchecked(np.concatenate([self.x, other.x]), self.y + other.y, space)
        merged._prefix = weakref.ref(self)
        if self._rows is not None:
            merged._rows = _read_only(np.concatenate([self._rows, other.x.T], axis=1))
        return merged

    @property
    def feature_rows(self) -> np.ndarray:
        """The observations as one contiguous, read-only row per feature, the
        layout the distance kernel reads; computed on first use and kept.  A
        bag appended to one that holds them extends that bag's rows, at once
        when it held them at the append.  Threads that reach a bag's first
        use at once may each compute them; the copies are equal, and either
        is kept."""
        if self._rows is None:
            prefix = self._prefix and self._prefix()
            if prefix is not None and prefix._rows is not None:
                rows = np.concatenate([prefix._rows, self.x[len(prefix):].T], axis=1)
            else:
                rows = self.x.T.copy()
            self._rows = _read_only(rows)
        return self._rows

    def starts_with(self, other: "Bag") -> bool:
        """Whether the first examples of this bag are exactly those of
        ``other``: O(1) when this bag is ``other`` or was appended to it,
        an O(n·d) comparison otherwise."""
        if self is other or (self._prefix is not None and self._prefix() is other):
            return True
        n = len(other)
        return n <= len(self) and other.y == self.y[:n] and np.array_equal(other.x, self.x[:n])


def _unchecked(x: np.ndarray, y: tuple, label_space: tuple) -> Bag:
    """A bag of examples that were checked as part of another bag: ``x`` is
    an array no one else holds, or a view of a bag's read-only ``x``, and
    ``label_space`` holds every label of ``y``."""
    bag = Bag.__new__(Bag)
    bag.x, bag.y, bag.label_space = _read_only(x), y, label_space
    bag._prefix = bag._rows = None
    return bag


def _example(bag: Bag, i: int, label_space: tuple) -> Bag:
    """Example ``i`` of ``bag`` as a bag of its own over ``label_space``,
    which must hold its label; nothing is checked again."""
    return _unchecked(bag.x[i: i + 1], bag.y[i: i + 1], label_space)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, an array no one else holds: numpy refuses
    to make a view of a read-only array writeable again."""
    a.setflags(write=False)
    return a.view()


def check_observations(X, n_features: int) -> np.ndarray:
    """Test observations as a float matrix with ``n_features`` finite columns."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"observations must form a matrix with {n_features} columns")
    if not np.isfinite(X).all():
        raise ValueError("all feature entries must be finite reals")
    return X


def require_trained(state, what: str):
    """``state``, the fitted state of a ``what``; raise while it is None."""
    if state is None:
        raise ValueError(f"{what} is not trained")
    return state


def check_labels_known(bag: Bag, label_space: Sequence[Label], what: str = "test") -> None:
    """Raise unless every label of ``bag`` is in ``label_space``."""
    known = set(label_space)
    for lbl in bag.y:
        if lbl not in known:
            raise ValueError(f"{what} label {lbl!r} is outside the label space")


@dataclass(frozen=True)
class SplitSpec:
    """Seeded shuffle split: the first part gets ``ceil(n * train_fraction)`` examples."""

    train_fraction: float
    shuffle_seed: int


def split(bag: Bag, spec: SplitSpec) -> tuple[Bag, Bag]:
    """Partition a bag into (training, held-out) parts, deterministically;
    a split that would leave either part empty raises ``ValueError``."""
    if len(bag) == 0:
        raise ValueError("cannot split an empty bag")
    if not 0.0 < spec.train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    cut = math.ceil(len(bag) * spec.train_fraction)
    if cut == len(bag):
        raise ValueError(f"train_fraction {spec.train_fraction} keeps all {len(bag)} examples: no held-out part")
    perm = SeededRng(spec.shuffle_seed).permutation(len(bag))
    return bag.subset(perm[:cut]), bag.subset(perm[cut:])


def load_csv(path, label_column, label_kind: str = "class") -> Bag:
    """Load a bag from an RFC-4180-style CSV file with a header row.

    Parameters
    ----------
    path : str or path-like
        File to read; comma delimiter, ``.`` decimal point.
    label_column : str or int
        Header name or zero-based index of the label column.
    label_kind : {"class", "real"}
        "class" keeps labels as symbols and builds the label space from the
        sorted distinct values; "real" parses them as floats and leaves the
        label space empty.
    """
    if label_kind not in ("class", "real"):
        raise ValueError('label_kind must be "class" or "real"')
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header, data = rows[0], rows[1:]
    if not data:
        raise ValueError(f"{path}: no data rows")
    if isinstance(label_column, int):
        if not 0 <= label_column < len(header):
            raise ValueError(f"label column index {label_column} out of range for {len(header)} columns")
        label_idx = label_column
    else:
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ValueError(f"unknown label column {label_column!r}; header is {header}") from None

    x = _features(data, header, label_idx)
    labels = [row[label_idx] for row in data]
    if label_kind == "real":
        parsed = []
        for r, cell in enumerate(labels, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"row {r}, column {header[label_idx]!r}: {cell!r} is not a number"
                ) from None
        return Bag.regression(x, parsed)
    return Bag.classification(x, labels)


def _features(data: list[list[str]], header: list[str], label_idx: int) -> np.ndarray:
    """The feature cells of the data rows as a float matrix, each parsed by
    ``float()``.

    Every cell goes to ``float()`` through ``np.fromiter``.  When that fails
    (a short or long row, a cell ``float()`` rejects, a non-finite value),
    the rows are checked one by one, and the first bad row or cell raises.
    """
    width = len(header) - 1
    if all(len(row) == len(header) for row in data):
        cells = itertools.chain.from_iterable(row[:label_idx] + row[label_idx + 1:] for row in data)
        try:
            x = np.fromiter(map(float, cells), dtype=float, count=len(data) * width)
        except ValueError:
            pass
        else:
            if np.isfinite(x).all():
                return x.reshape(len(data), width)
    for r, row in enumerate(data, start=1):
        if len(row) != len(header):
            raise ValueError(f"row {r}: expected {len(header)} cells, got {len(row)}")
        for c, cell in enumerate(row):
            if c == label_idx:
                continue
            try:
                val = float(cell)
            except ValueError:
                raise ValueError(f"row {r}, column {header[c]!r}: {cell!r} is not a number") from None
            if not math.isfinite(val):
                raise ValueError(f"row {r}, column {header[c]!r}: non-finite value")
    raise AssertionError("the fast path rejected rows that every check passes")


def save_csv(bag: Bag, path, label_column: str = "label") -> None:
    """Write a bag as CSV (features ``x0..x{d-1}``, label column last).

    Round-trips exactly through :func:`load_csv` for bags with string class
    labels or regression labels.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(bag.n_features)] + [label_column])
        for row, lbl in zip(bag.x, bag.y):
            cells = [repr(float(v)) for v in row]
            cells.append(lbl if bag.is_classification else repr(float(lbl)))
            writer.writerow(cells)
