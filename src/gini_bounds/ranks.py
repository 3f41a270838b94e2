"""Sample version of Gini's rank association coefficient."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import _open_utf8
from .errors import DomainError

_BOOLS = frozenset((bool, np.bool_))


@dataclass(frozen=True)
class RankSample:
    """Paired ranks (R_i, S_i), each coordinate a permutation of 1..n.

    One rule for a pair: it equals the pair of its int()s and holds no bool.
    The first pair that breaks it (1.5, True) is a DomainError, as is a row
    that is not a pair of integers (a NaN rank, three values), and a column
    whose sorted ranks are not 1..n.
    """

    ranks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # Read once, so that a generator is checked as the tuple of its items.
        try:
            pairs = tuple(self.ranks)
            ranks = tuple([(int(r), int(s)) for r, s in pairs])
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"ranks must be pairs of integers: {exc}") from None
        # int() reads True as 1 and (True, 1) == (1, 1), so bools go by type.
        for (r, s), whole in zip(pairs, ranks):
            if (r, s) != whole or type(r) in _BOOLS or type(s) in _BOOLS:
                raise DomainError(f"ranks must be integers, got {(r, s)}")
        object.__setattr__(self, "ranks", ranks)
        n = len(ranks)
        if n < 2:
            raise DomainError(f"rank sample needs at least 2 observations, got {n}")
        for label, seen in (("r", [r for r, _ in ranks]), ("s", [s for _, s in ranks])):
            if sorted(seen) != list(range(1, n + 1)):
                counts = Counter(seen)
                duplicates = sorted(x for x, c in counts.items() if c > 1)
                missing = [x for x in range(1, n + 1) if x not in counts]
                raise DomainError(
                    f"{label}-ranks are not a permutation of 1..{n}: "
                    f"duplicates {duplicates}, missing {missing}"
                )

    @property
    def n(self) -> int:
        return len(self.ranks)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["r", "s"])
            writer.writerows(self.ranks)

    @classmethod
    def from_csv(cls, path) -> "RankSample":
        """Read a sample written by to_csv; malformed input is a DomainError.

        The error names the line of a row that is not two integers, and the
        byte and its offset in a file that is not UTF-8 (core._open_utf8).
        """
        reader = csv.reader(_open_utf8(path, "rank CSV is not UTF-8: "))
        header = next(reader, None)
        if header != ["r", "s"]:
            raise DomainError(f"unexpected rank CSV header: {header}")
        try:
            pairs = [(int(r), int(s)) for r, s in reader]
        except ValueError as exc:
            raise DomainError(f"rank CSV line {reader.line_num}: {exc}") from None
        return cls(tuple(pairs))


def gamma_rank_statistic(sample: RankSample) -> float:
    """Gini's rank association coefficient of a paired rank sample.

    (1 / floor(n^2/2)) * sum_i (|n+1-R_i-S_i| - |R_i-S_i|); equals 1 for
    comonotone ranks and -1 for countermonotone ranks.
    """
    n = sample.n
    total = sum(abs(n + 1 - r - s) - abs(r - s) for r, s in sample.ranks)
    return total / (n * n // 2)
