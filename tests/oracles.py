"""Reference implementations the library's fast paths are checked against.

Each one is the plain, slow statement of a rule: a loop over every mask
where the library uses a transform, a bitset or a closed form.
"""


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
