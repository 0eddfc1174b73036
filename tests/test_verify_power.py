import verify_power

from cedrf import drf, linalg, spectral


def _rules():
    """Every name a mutation patches."""
    return (drf._curves, drf._gap_bounds_grid, drf._tie_block, linalg.above_noise,
            spectral.Spectrum.__dict__["thresholds"])


def test_each_expected_catch_happens():
    # the clean run fails nothing, each mutation with an expected check fails
    # that check on some model, and every patch is undone afterwards
    before = _rules()
    rows = verify_power.table(40)
    assert rows["none"] == {"any": 0}
    for m in verify_power.MUTATIONS:
        if m.catch is not None:
            assert rows[m.name].get(m.catch, 0) > 0, m.name
    assert _rules() == before
