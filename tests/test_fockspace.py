"""Sector bookkeeping and truncation policy."""

from pathlib import Path

import numpy as np
import pytest

from ionfridge import fockspace
from ionfridge.errors import DomainError, TruncationError
from ionfridge.experiments import load_scenario
from ionfridge.fockspace import (WEIGHT_FLOOR, TruncationPolicy, _windows, enumerate_sector,
                                 select_sectors)
from ionfridge.states import (DEFAULT_CUTOFF, PhononDistribution, prep_to_distribution,
                              thermal_distribution)

_SHIPPED = Path(__file__).resolve().parents[1] / "scenarios"


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
    assert 1.0 - 1e-6 <= sel.weights.sum() <= 1.0 + 1e-12
    # weights sorted descending and each one reproducible by direct summation
    assert all(a >= b for a, b in zip(sel.weights, sel.weights[1:]))
    assert sel.labels.shape == (sel.weights.size, 2)
    for (N, M), weight in zip(sel.labels[:40], sel.weights[:40]):
        assert weight == pytest.approx(_joint_weight(N, M, dh.p, dw.p, dc.p), rel=1e-12)


def test_select_sectors_skips_hot_levels_below_the_floor():
    """Levels under the floor, inside a ladder and at its end, add nothing,
    on the hot ladder as on the work and cold ladders; every retained weight
    is the brute-force sum over the others."""
    ph = np.array([0.5, 5e-16, 0.3, 0.0, 0.2, 1e-16, 1e-16])
    pw = np.append(thermal_distribution(1.1, cutoff=30).p, [1e-16, 5e-17])
    pw[[3, 7]] = 8e-16, 2e-16
    pc = np.append(thermal_distribution(0.7, cutoff=30).p, 1e-16)
    pc[[2, 5]] = 3e-16, 0.0
    dw, dc = PhononDistribution(pw / pw.sum()), PhononDistribution(pc / pc.sum())
    sel = select_sectors(PhononDistribution(ph), dw, dc, TruncationPolicy(epsilon=1e-9))
    floored = [np.where(p >= WEIGHT_FLOOR, p, 0.0) for p in (ph, dw.p, dc.p)]
    for (N, M), weight in zip(sel.labels, sel.weights):
        assert weight == pytest.approx(_joint_weight(N, M, *floored), rel=1e-12)


def _support(p):
    """Levels up to the last entry at or above the floor."""
    return int(np.flatnonzero(p >= WEIGHT_FLOOR)[-1]) + 1


def test_select_sectors_multiplies_only_the_levels_that_reach_the_floor(monkeypatch):
    """The weight grid spans each ladder up to its last entry at or above
    the floor: the work and cold windows are as long as their ladders'
    support, as wide as the hot ladder's.  Before, the work and cold ladders
    entered with all 301 levels."""
    windows = []

    def recording(p, width):
        windows.append((p.size, width))
        return _windows(p, width)

    monkeypatch.setattr(fockspace, "_windows", recording)
    dists = [thermal_distribution(nbar) for nbar in (0.66, 4.44, 0.48)]
    select_sectors(*dists, TruncationPolicy(epsilon=1e-4))
    sh, sw, sc = (_support(d.p) for d in dists)
    assert max(sh, sw, sc) < DEFAULT_CUTOFF
    assert windows == [(sw, sh), (sc, sh)]


@pytest.mark.parametrize("scenario", sorted(_SHIPPED.glob("*.json")), ids=lambda p: p.stem)
def test_select_sectors_ignores_levels_appended_below_the_floor(scenario):
    """Entries of 1e-18 appended to any ladder of a shipped scenario leave
    the selected labels and weights bitwise unchanged."""
    s = load_scenario(scenario)
    dists = [prep_to_distribution(prep) for prep in s.preps]
    reference = select_sectors(*dists, s.truncation)
    for mode in range(3):
        longer = list(dists)
        longer[mode] = PhononDistribution(np.append(dists[mode].p, np.full(40, 1e-18)))
        sel = select_sectors(*longer, s.truncation)
        assert np.array_equal(sel.labels, reference.labels), mode
        assert np.array_equal(sel.weights, reference.weights), mode


def test_select_sectors_requires_normalized_marginals():
    """A marginal that does not sum to 1 cannot be built, so it never
    reaches the selection."""
    with pytest.raises(DomainError, match="must sum to 1"):
        PhononDistribution([0.5, 0.2])


def test_select_sectors_unreachable_target():
    # marginals whose off-diagonal sector weights all fall below the retention
    # floor: ~1e4 cells of ~2e-16 each carry ~2e-12 of irretrievable mass
    p = np.full(101, 1e-8)
    p[0] = 1.0 - 1e-6
    dist = PhononDistribution(p)
    with pytest.raises(TruncationError):
        select_sectors(dist, dist, dist, TruncationPolicy(epsilon=1e-13))


def test_select_sectors_vacuum_is_single_sector():
    vac = np.zeros(10)
    vac[0] = 1.0
    dist = PhononDistribution(vac)
    sel = select_sectors(dist, dist, dist, TruncationPolicy(epsilon=1e-4))
    assert sel.labels.tolist() == [[0, 0]]
    assert sel.weights[0] == pytest.approx(1.0)
