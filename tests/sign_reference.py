"""The brute-force epsilon that the tests check the package's signs against,
written once and independent of ogrlab.exact_core."""


def eps(I, l) -> int:
    """epsilon(I, l) for a sorted I, by counting inversions: the sign of
    sorting I then l, or 0 when l lies in I."""
    return 0 if l in I else (-1) ** sum(x > l for x in I)
