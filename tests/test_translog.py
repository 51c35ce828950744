import pytest
from hypothesis import given, settings, strategies as st

import mwis
from mwis import CorruptLog, NotIndependent, TransformLog, lift, verify_lift
from mwis.translog import (DegreeTwoFold, ExcludedVertex, IncludedVertex,
                           Pair, Struction, TwinMerge, VertexSet,
                           VertexSetPlus, first_violation, from_bytes,
                           to_bytes)


def test_offset_accumulates_per_event():
    log = TransformLog()
    log.record(IncludedVertex(0, 5))
    assert log.offset == 5
    log.record(ExcludedVertex(1))
    assert log.offset == 5
    log.record(TwinMerge(2, 3))
    assert log.offset == 5
    log.record(DegreeTwoFold(4, 5, 6, 7, 3))
    assert log.offset == 8
    log.record(Struction("extended", 8, 2, (9,), ((9, 1),), ()))
    assert log.offset == 10
    assert len(log) == 5


def test_truncate_rolls_back_offset():
    log = TransformLog()
    log.record(IncludedVertex(0, 5))
    mark = len(log)
    log.record(IncludedVertex(1, 7))
    log.record(DegreeTwoFold(2, 3, 4, 5, 2))
    log.truncate(mark)
    assert len(log) == 1
    assert log.offset == 5


# -- lift rules, one event at a time -----------------------------------------

def test_lift_included_vertex_always_joins():
    log = TransformLog()
    log.record(IncludedVertex(3, 9))
    assert lift(log, set()) == {3}
    assert lift(log, {7}) == {3, 7}


def test_lift_excluded_vertex_never_joins():
    log = TransformLog()
    log.record(ExcludedVertex(3))
    assert lift(log, {1}) == {1}


def test_lift_twin_merge_follows_kept():
    log = TransformLog()
    log.record(TwinMerge(kept=1, absorbed=4))
    assert lift(log, {1}) == {1, 4}
    assert lift(log, {2}) == {2}


def test_lift_degree_two_fold_both_cases():
    log = TransformLog()
    log.record(DegreeTwoFold(v=1, u=0, x=2, folded=5, w=3))
    # folded chosen: unfold to the two endpoints
    assert lift(log, {5}) == {0, 2}
    # folded not chosen: the center pays for itself
    assert lift(log, set()) == {1}


def test_lift_original_struction_pair_chosen():
    # center 0 over neighbors (1, 2), created 5 = v_{1,2}
    ev = Struction("original", 0, 2, (1, 2), (), ((5, 2, Pair(1, 2)),))
    log = TransformLog()
    log.record(ev)
    assert lift(log, {5}) == {1, 2}
    # no neighbor, no pair vertex: center returns
    assert lift(log, set()) == {0}
    # a plain neighbor in the solution absorbs the weight shift
    assert lift(log, {1}) == {1}


def test_lift_original_struction_rejects_cross_layer_pairs():
    ev = Struction("original", 0, 1, (1, 2, 3), (),
                   ((5, 1, Pair(1, 2)), (6, 1, Pair(2, 3))))
    log = TransformLog()
    log.record(ev)
    with pytest.raises(NotIndependent):
        lift(log, {5, 6})


def test_lift_extended_struction():
    ev = Struction("extended", 0, 3, (1, 2), ((1, 4), (2, 2)),
                   ((5, 3, VertexSet((1, 2))),))
    log = TransformLog()
    log.record(ev)
    assert lift(log, {5}) == {1, 2}
    assert lift(log, set()) == {0}


def test_lift_extended_rejects_two_encoding_vertices():
    ev = Struction("extended", 0, 1, (1, 2), ((1, 4), (2, 2)),
                   ((5, 3, VertexSet((1,))), (6, 1, VertexSet((2,)))))
    log = TransformLog()
    log.record(ev)
    # encoding vertices form a clique: their bases differ
    with pytest.raises(NotIndependent):
        lift(log, {5, 6})


def test_lift_extended_reduced_extension_vertices():
    core = (7, 2, VertexSet((1, 2)))
    ext = (8, 5, VertexSetPlus((1, 2), 3))
    ev = Struction("extended_reduced", 0, 3, (1, 2, 3),
                   ((1, 4), (2, 2), (3, 5)), (core, ext))
    log = TransformLog()
    log.record(ev)
    assert lift(log, {7}) == {1, 2}
    assert lift(log, {7, 8}) == {1, 2, 3}
    assert lift(log, {8}) == {1, 2, 3}
    assert lift(log, set()) == {0}


def test_lift_extended_reduced_rejects_cross_set_extension():
    core = (7, 2, VertexSet((1,)))
    ext = (8, 5, VertexSetPlus((2,), 3))
    ev = Struction("extended_reduced", 0, 3, (1, 2, 3),
                   ((1, 4), (2, 2), (3, 5)), (core, ext))
    log = TransformLog()
    log.record(ev)
    with pytest.raises(NotIndependent):
        lift(log, {7, 8})


def test_lift_order_is_last_to_first():
    """A later fold can hand a vertex to an earlier merge."""
    log = TransformLog()
    log.record(TwinMerge(kept=2, absorbed=9))
    log.record(DegreeTwoFold(v=1, u=0, x=2, folded=12, w=3))
    assert lift(log, {12}) == {0, 2, 9}


# -- verify_lift ---------------------------------------------------------------

def test_verify_lift_checks_everything(p3a):
    assert verify_lift(p3a, {0, 2}, 4)
    assert not verify_lift(p3a, {0, 2}, 5)        # wrong weight
    assert not verify_lift(p3a, {0, 1}, 5)        # not independent
    assert not verify_lift(p3a, {0, 9}, 2)        # unknown vertex


def test_first_violation_names_the_first_fault(p3a):
    assert first_violation(p3a, {0, 2}, 4) is None
    assert first_violation(p3a, {0, 2}, 5) == "declared weight 5, actual 4"
    assert (first_violation(p3a, {0, 1, 2}, 7)
            == "NotIndependent, edge 1-2 inside the solution")
    assert first_violation(p3a, {9, 0, 1}, 2) == "vertex 10 does not exist"


# -- serialization ---------------------------------------------------------------

def _sample_log():
    log = TransformLog()
    log.record(IncludedVertex(0, 5))
    log.record(ExcludedVertex(1))
    log.record(TwinMerge(2, 3))
    log.record(DegreeTwoFold(4, 5, 6, 17, 3))
    log.record(Struction("original", 7, 2, (8, 9), ((10, 1),),
                         ((18, 2, Pair(8, 9)),)))
    log.record(Struction("extended", 11, 4, (12, 13), ((12, 9), (13, 1)),
                         ((19, 5, VertexSet((12, 13))),)))
    log.record(Struction("extended_reduced", 14, 3, (15, 16), ((15, 7),),
                         ((20, 4, VertexSet((15,))),
                          (21, 6, VertexSetPlus((15,), 16)))))
    return log


def test_roundtrip_preserves_events_and_offset():
    log = _sample_log()
    back = from_bytes(to_bytes(log))
    assert back.events == log.events
    assert back.offset == log.offset


def test_roundtrip_empty_log():
    back = from_bytes(to_bytes(TransformLog()))
    assert back.events == [] and back.offset == 0


def test_serialization_is_deterministic():
    assert to_bytes(_sample_log()) == to_bytes(_sample_log())


@pytest.mark.parametrize("variant, prov", [
    ("original", VertexSet((1, 2))), ("modified", VertexSetPlus((1,), 2)),
    ("extended", Pair(1, 2)), ("extended", VertexSetPlus((1,), 2)),
    ("extended_reduced", Pair(1, 2))])
def test_from_bytes_rejects_a_provenance_foreign_to_its_variant(variant,
                                                                 prov):
    log = TransformLog()
    log.record(Struction(variant, 0, 1, (1, 2), ((0, 1),), ((5, 3, prov),)))
    with pytest.raises(CorruptLog, match=f"{variant} struction with "
                                         "provenance tag"):
        from_bytes(to_bytes(log))


def test_from_bytes_rejects_garbage():
    with pytest.raises(CorruptLog):
        from_bytes(b"NOPE" + b"\x00" * 10)
    blob = to_bytes(_sample_log())
    with pytest.raises(CorruptLog):
        from_bytes(blob[:-3])                      # truncated
    with pytest.raises(CorruptLog):
        from_bytes(blob + b"\x00")                 # trailing bytes


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 100)), max_size=30))
@settings(max_examples=100, deadline=None)
def test_roundtrip_random_simple_logs(pairs):
    log = TransformLog()
    for i, (v, w) in enumerate(pairs):
        if i % 3 == 0:
            log.record(IncludedVertex(v, w))
        elif i % 3 == 1:
            log.record(ExcludedVertex(v))
        else:
            log.record(TwinMerge(v, v + 1))
    back = from_bytes(to_bytes(log))
    assert back.events == log.events
    assert back.offset == log.offset
