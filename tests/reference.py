"""Reference implementations that only the tests use."""

from itertools import combinations, permutations

from fenceinj import CapacityError, PartialInjection, is_partial_automorphism
from fenceinj.fence import check_fence_size, code_powers


def enumerate_naive(n: int) -> tuple[int, ...]:
    """Filter all partial injections by the automorphism predicate.

    One pass over I_n, used to cross-check the pruned search at small n;
    refuses n > 7 (n = 7 takes about a second).
    """
    check_fence_size(n)
    if n > 7:
        raise CapacityError(f"naive filter is impractical for n = {n}")
    powers = code_powers(n)
    codes = []
    points = range(1, n + 1)
    for k in range(n + 1):
        for dom in combinations(points, k):
            for img in permutations(points, k):
                images = [0] * n
                for x, y in zip(dom, img):
                    images[x - 1] = y
                f = PartialInjection(n, tuple(images))
                if is_partial_automorphism(f):
                    codes.append(sum(v * p for v, p in zip(images, powers)))
    codes.sort()
    return tuple(codes)
