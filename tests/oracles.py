"""Reference implementations the library's fast paths are checked against,
and the measure helpers only the tests need.

Each reference is the plain, slow statement of a rule: a loop over every
mask where the library uses a transform, a bitset or a closed form.
"""

import itertools
from fractions import Fraction as F

from jcontainers.copies import CopyHypergraph, least_isomorphism
from jcontainers.hypercore import Hypergraph, mask_of, popcount
from jcontainers.janson import overlap_matrix
from jcontainers.measures import Measure


def zero_measure(host, exact=True):
    """The measure of weight 0 on every edge of ``host``."""
    fill = F(0) if exact else 0.0
    return Measure(host, (fill,) * len(host.edges), exact)


def float_measure(m):
    """``m`` with floating weights; a floating measure is returned as is."""
    if not m.exact:
        return m
    return Measure(m.host, tuple(float(w) for w in m.weights), exact=False)


def or_fold(n, members, into_subset=False):
    """The boolean table over the 2^n masks with True at the members, OR-folded
    bit by bit: over submasks (True where a member lies inside the mask), or
    with ``into_subset`` over supersets (True where the mask lies inside a
    member)."""
    table = [False] * (1 << n)
    for m in members:
        table[m] = True
    for bit in range(n):
        b = 1 << bit
        for m in range(1 << n):
            if not m & b:
                if into_subset:
                    table[m] = table[m] or table[m | b]
                else:
                    table[m | b] = table[m | b] or table[m]
    return table


def fingerprint_in_table(sat, i_mask):
    """A maximum-cardinality subset of I where ``sat`` holds, ties broken by
    the first hit in descending submask order: the fingerprint rule as a
    per-set submask scan, the reference for the one-pass table."""
    best = 0
    best_size = 0
    sub = i_mask
    while True:
        if sat[sub]:
            size = popcount(sub)
            if size > best_size:
                best, best_size = sub, size
        if sub == 0:
            return best
        sub = (sub - 1) & i_mask


def backtracking_copies(f, g_prime, g):
    """The reference copy hypergraph: every vertex set L with G'[L] = G[L]
    goes through ``least_isomorphism`` on its own, with no copy table."""
    edges = []
    witnesses = {}
    for combo in itertools.combinations(range(g.n), f.n):
        l_mask = mask_of(combo)
        if any(g_prime.adj[u] & l_mask != g.adj[u] & l_mask for u in combo):
            continue
        phi = least_isomorphism(f, g_prime, list(combo))
        if phi is not None:
            edges.append(l_mask)
            witnesses[l_mask] = phi
    return CopyHypergraph(Hypergraph(g.n, tuple(sorted(edges))), witnesses)


def dense_dual(m, p):
    """The dual bound 2 min_j (Qx)_j - x^T Q x, capped at x^T Q x, from the
    full overlap matrix, zero coefficients and zero weights included."""
    zero = F(0) if m.exact else 0.0
    q = overlap_matrix(m.host, p if m.exact else float(p), m.exact)
    qx = [sum((a * w for a, w in zip(row, m.weights)), zero) for row in q]
    lam = sum((w * v for w, v in zip(m.weights, qx)), zero)
    return lam - max(2 * (lam - min(qx)), zero)
