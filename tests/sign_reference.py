"""The brute-force signs that the tests check the package's signs against,
written once and independent of ogrlab.exact_core."""


def eps(I, l) -> int:
    """epsilon(I, l) for a sorted I, by counting inversions: the sign of
    sorting I then l, or 0 when l lies in I."""
    return 0 if l in I else (-1) ** sum(x > l for x in I)


def sort_sign(word) -> tuple[tuple[int, ...], int]:
    """Sort a word of indices, returning (sorted word, sign of the sort).

    The sign is that of the permutation putting the word in increasing
    order, by counting inversions; it is 0 exactly when the word has a
    repeated entry.
    """
    w = tuple(word)
    if len(set(w)) != len(w):
        return tuple(sorted(w)), 0
    inversions = sum(w[i] > w[j] for i in range(len(w)) for j in range(i + 1, len(w)))
    return tuple(sorted(w)), (-1) ** inversions
