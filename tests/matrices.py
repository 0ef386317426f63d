"""Incidence matrix and marking vectors of a net, as numpy arrays.

The library keeps markings as place bitmasks and needs no matrices; these
helpers exist for tests that check linear-algebra facts about nets, such as
the marking equation and place invariants.
"""

import numpy as np


def incidence(net):
    """N = N+ - N- with one row per place and one column per transition."""
    n = np.zeros((len(net.places), len(net.transitions)), dtype=np.int64)
    for t in range(len(net.transitions)):
        for p in net.preset_places(t):
            n[p, t] -= 1
        for p in net.postset_places(t):
            n[p, t] += 1
    return n


def marking_vector(net, m):
    return np.array([m >> i & 1 for i in range(len(net.places))], dtype=np.int64)
