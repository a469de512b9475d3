"""Sector bookkeeping and truncation policy."""

import numpy as np
import pytest

from ionfridge.errors import DomainError, TruncationError
from ionfridge.fockspace import WEIGHT_FLOOR, TruncationPolicy, enumerate_sector, select_sectors
from ionfridge.states import DEFAULT_CUTOFF, PhononDistribution, thermal_distribution


def _raw_distribution(p):
    p = np.asarray(p, dtype=float)
    return PhononDistribution(p=p, mean=float(np.arange(p.size) @ p), tail_mass=0.0)


def test_sector_label_dim():
    # a sector (N, M) holds min(N, M) + 1 states
    assert len(enumerate_sector(2, 1)) == 2
    assert len(enumerate_sector(0, 0)) == 1
    assert len(enumerate_sector(5, 3)) == 4
    with pytest.raises(DomainError):
        enumerate_sector(-1, 0)
    with pytest.raises(DomainError):
        enumerate_sector(0, -2)


def test_enumerate_sector_states():
    assert enumerate_sector(2, 1) == ((0, 2, 1), (1, 1, 0))
    # every state conserves both ladder sums
    for (h, w, c) in enumerate_sector(4, 6):
        assert h + w == 4
        assert h + c == 6
        assert min(h, w, c) >= 0


def test_truncation_policy_validation():
    TruncationPolicy(epsilon=1e-4)
    with pytest.raises(DomainError):
        TruncationPolicy(epsilon=0.0)
    with pytest.raises(DomainError):
        TruncationPolicy(epsilon=1.0)
    with pytest.raises(DomainError):
        TruncationPolicy(epsilon=1e-4, n_max_h=-1)
    assert TruncationPolicy(epsilon=1e-3, n_max_w=7).caps() == (None, 7, None)


def test_truncation_caps_stop_at_the_default_cutoff():
    """A cap above DEFAULT_CUTOFF, the ladder an uncapped mode gets, only
    lengthens the ladder: it is rejected, naming the limit."""
    assert TruncationPolicy(n_max_c=DEFAULT_CUTOFF).n_max_c == DEFAULT_CUTOFF
    for cap in (DEFAULT_CUTOFF + 1, 10 ** 12):
        with pytest.raises(DomainError, match=f"DEFAULT_CUTOFF = {DEFAULT_CUTOFF}"):
            TruncationPolicy(n_max_h=cap)


def _joint_weight(N, M, ph, pw, pc):
    """Brute-force sector weight from three marginal distributions."""
    total = 0.0
    for (h, w, c) in enumerate_sector(N, M):
        if h < len(ph) and w < len(pw) and c < len(pc):
            total += ph[h] * pw[w] * pc[c]
    return total


def test_select_sectors_weights_match_brute_force():
    dh = thermal_distribution(0.4, cutoff=60)
    dw = thermal_distribution(1.1, cutoff=60)
    dc = thermal_distribution(0.7, cutoff=60)
    sel = select_sectors(dh, dw, dc, TruncationPolicy(epsilon=1e-6))
    assert sel.retained_weight + sel.discarded_weight == pytest.approx(1.0, abs=1e-12)
    assert sel.retained_weight >= 1.0 - 1e-6
    # weights sorted descending and each one reproducible by direct summation
    assert all(a >= b for a, b in zip(sel.weights, sel.weights[1:]))
    assert sel.labels.shape == (sel.weights.size, 2)
    for (N, M), weight in zip(sel.labels[:40], sel.weights[:40]):
        assert weight == pytest.approx(_joint_weight(N, M, dh.p, dw.p, dc.p), rel=1e-12)


def test_select_sectors_skips_hot_levels_below_the_floor():
    """Hot levels under the floor, inside the ladder and at its end, add
    nothing; every retained weight is the brute-force sum over the others."""
    ph = np.array([0.5, 5e-16, 0.3, 0.0, 0.2, 1e-16, 1e-16])
    dw = thermal_distribution(1.1, cutoff=30)
    dc = thermal_distribution(0.7, cutoff=30)
    sel = select_sectors(_raw_distribution(ph), dw, dc, TruncationPolicy(epsilon=1e-9))
    floored = np.where(ph >= WEIGHT_FLOOR, ph, 0.0)
    for (N, M), weight in zip(sel.labels, sel.weights):
        assert weight == pytest.approx(_joint_weight(N, M, floored, dw.p, dc.p), rel=1e-12)


def test_select_sectors_requires_normalized_marginals():
    ok = thermal_distribution(0.4, cutoff=40)
    bad = _raw_distribution([0.5, 0.2])  # sums to 0.7
    with pytest.raises(DomainError):
        select_sectors(ok, bad, ok, TruncationPolicy(epsilon=1e-4))


def test_select_sectors_unreachable_target():
    # marginals whose off-diagonal sector weights all fall below the retention
    # floor: ~1e4 cells of ~2e-16 each carry ~2e-12 of irretrievable mass
    p = np.full(101, 1e-8)
    p[0] = 1.0 - 1e-6
    dist = _raw_distribution(p)
    with pytest.raises(TruncationError):
        select_sectors(dist, dist, dist, TruncationPolicy(epsilon=1e-13))


def test_select_sectors_vacuum_is_single_sector():
    vac = np.zeros(10)
    vac[0] = 1.0
    dist = _raw_distribution(vac)
    sel = select_sectors(dist, dist, dist, TruncationPolicy(epsilon=1e-4))
    assert sel.labels.tolist() == [[0, 0]]
    assert sel.weights[0] == pytest.approx(1.0)
