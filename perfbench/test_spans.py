"""Self-time arithmetic of the benchmark's span tracer.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

import math

import spans


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    #   0: root    [0, 10]
    #   1: a       [1, 4]   child of root
    #   2: a1      [2, 3]   child of a
    #   3: b       [5, 9]   child of root
    #   4: c       [6, 8]   child of root, overlaps b
    #   5: d       [9.5, 12] child of root, runs past it
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 9.5]
    end = [10.0, 4.0, 3.0, 9.0, 8.0, 12.0]
    parent = [-1, 0, 1, 0, 0, 0]
    got = spans.self_times(start, end, parent)
    # root: 10 - |[1,4] u [5,9] u [6,8] u [9.5,10]| = 10 - (3 + 4 + 0.5)
    want = [2.5, 2.0, 1.0, 4.0, 2.0, 2.5]
    assert all(math.isclose(g, w) for g, w in zip(got, want)), got


def test_self_times_of_a_nested_tree_sum_to_the_root():
    start = [0.0, 0.5, 0.75, 2.0, 2.5]
    end = [4.0, 1.5, 1.25, 3.0, 2.75]
    parent = [-1, 0, 1, 0, 3]
    got = spans.self_times(start, end, parent)
    assert math.isclose(sum(got), end[0] - start[0])


def test_recorder_links_nested_calls_and_ignores_calls_outside_ops():
    rec = spans.Recorder()
    calls = {}
    inner = rec.wrap("waterfill.inner", lambda x: x + 1)
    calls["inner"] = inner
    outer = rec.wrap("drf.outer", lambda x: calls["inner"](x) * 2)

    assert outer(1) == 4 and rec.name == []  # no op open: nothing recorded
    rec.begin_op(7)
    assert outer(1) == 4
    rec.end_op()

    assert [rec.names[i] for i in rec.name] == [spans.ROOT, "drf.outer", "waterfill.inner"]
    assert rec.parent == [-1, 0, 1]
    assert rec.op == [7, 7, 7]
    selft = spans.self_times(rec.start, rec.end, rec.parent)
    assert math.isclose(sum(selft), rec.end[0] - rec.start[0], rel_tol=1e-9)
    assert min(selft) >= 0.0
