import verify_power

from cedrf import drf, linalg, oracle, spectral, waterfill


def _rules():
    """Every name a mutation patches."""
    return (drf._curves, drf._gap_bounds_grid, drf._tie_block, linalg.above_noise,
            oracle._ce_grid, spectral.Spectrum.__dict__["thresholds"], waterfill._levels)


def test_each_expected_catch_happens():
    # the clean run fails nothing, on the random models or the corpus; each mutation with an
    # expected check fails that check on some random model, and the levels one on the corpus;
    # every patch is undone afterwards
    before = _rules()
    rows = verify_power.table(40)
    assert rows["none"] == {"random": {"any": 0}, "corpus": {"any": 0}}
    # only the corpus reaches a water level past 2^-1022: random models draw sigma2 in {0.1, 1, 10}
    levels = "levels without frexp band"
    for m in verify_power.MUTATIONS:
        if m.catch is not None and m.name != levels:
            assert rows[m.name]["random"].get(m.catch, 0) > 0, m.name
    assert rows[levels]["random"] == {"any": 0} and rows[levels]["corpus"].get("continuity", 0) > 0
    assert _rules() == before
