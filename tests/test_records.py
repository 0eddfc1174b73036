"""Every result record is a named tuple: immutable, ``_replace``-able, with a field-by-field repr."""

import pytest

from support import example_model

from cedrf import cli, drf, oracle, waterfill

# built inside the test, so that a record that is not a named tuple fails there
RECORDS = {
    "DistortionPoint": lambda m: drf.sweep(m, [1.0])[0],
    "AmGmBounds": lambda m: drf.am_gm_pair([4.0, 1.0]),
    "EqualityRegion": drf.equality_region,
    "WaterfillResult": lambda m: waterfill.rate_allocation(m.observation, 3.0),
    "CEMatrixParts": lambda m: oracle.ce_matrix_parts(m, 1.0),
    "McEstimate": lambda m: oracle.mc_mmse(m, 100, 0),
    "McEstimates": lambda m: oracle.mc_estimates(m, 100, 0, ce_rates=(1.0,), mmse=True),
    "CheckResult": lambda m: cli.CheckResult("check", 1e-9, 0.0),
}


@pytest.mark.parametrize("name", RECORDS)
def test_result_records_are_named_tuples(name):
    record = RECORDS[name](example_model())
    cls, fields = type(record), type(record)._fields
    assert cls.__name__ == name
    values = tuple(getattr(record, f) for f in fields)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
    marker = object()
    for i, f in enumerate(fields):
        changed = record._replace(**{f: marker})
        assert [a is b for a, b in zip(changed, values)] == [j != i for j in range(len(fields))]
        assert changed[i] is marker
    assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    assert cls(*values) == cls(**dict(zip(fields, values))) == record
