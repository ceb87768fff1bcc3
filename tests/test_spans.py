from icmpscope._spans import SpanTable, merge_spans


def test_merge_empty():
    assert merge_spans([]) == []


def test_merge_one_span():
    assert merge_spans([(5, 9)]) == [(5, 9)]


def test_merge_touching_spans():
    assert merge_spans([(10, 19), (0, 9), (20, 20)]) == [(0, 20)]


def test_merge_keeps_gap_of_one():
    assert merge_spans([(0, 9), (11, 12)]) == [(0, 9), (11, 12)]


def test_merge_span_inside_another():
    assert merge_spans([(0, 100), (10, 20)]) == [(0, 100)]
    assert merge_spans([(10, 20), (0, 100), (10, 20), (50, 150)]) == [(0, 150)]


def test_span_table_find_and_overlaps():
    table = SpanTable([(20, 29, "b"), (0, 9, "a")])
    assert [table.find(k) for k in (-1, 0, 9, 10, 19, 20, 29, 30)] == [None, "a", "a", None, None, "b", "b", None]
    assert not table.overlaps()
    assert SpanTable([(0, 10, "a"), (10, 20, "b")]).overlaps()
    assert SpanTable([(0, 100, "a"), (40, 50, "b")]).overlaps()
    assert SpanTable([]).find(0) is None
