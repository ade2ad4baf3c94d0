"""Endpoint-string parsing, classification, and round-trips."""

import gc
import random
import time
import tracemalloc

import pytest
from walks import intersection_edges

from tokenslide.generate import (
    enumerate_proper_representations,
    enumerate_tp_representations,
    gen_instance,
    path_representation,
)
from tokenslide.intervals import (
    GraphClass,
    IntervalRepresentation,
    RepresentationError,
    parse_representation,
)
from tokenslide.proper import prepare_proper

K3 = "L1 L2 L3 R1 R2 R3"
P3 = "L1 L2 R1 L3 R2 R3"
NESTED = "L1 L2 R2 L3 R3 R1"


def test_parse_k3():
    rep = parse_representation(K3)
    assert rep.n == 3
    assert rep.events[0] == ("L", 1)
    assert rep.events[-1] == ("R", 3)


def test_parse_single_vertex():
    rep = parse_representation("L1 R1")
    assert rep.n == 1
    assert rep.left_rank[1] == 1
    assert rep.right_rank[1] == 2


def test_ranks_are_event_positions():
    rep = parse_representation(P3)
    assert rep.left_rank[1] == 1
    assert rep.left_rank[2] == 2
    assert rep.right_rank[1] == 3
    assert rep.left_rank[3] == 4
    assert rep.right_rank[2] == 5
    assert rep.right_rank[3] == 6


def every_word(n, word=(), opened=frozenset(), next_id=1):
    """Every endpoint word on 1..n whose left endpoints come in id order."""
    if next_id > n and not opened:
        yield word
    if next_id <= n:
        yield from every_word(n, word + (("L", next_id),), opened | {next_id}, next_id + 1)
    for vid in sorted(opened):
        yield from every_word(n, word + (("R", vid),), opened - {vid}, next_id)


def event_ranks(events):
    left, right = [0] * (len(events) // 2 + 1), [0] * (len(events) // 2 + 1)
    for rank, (side, vid) in enumerate(events, start=1):
        (left if side == "L" else right)[vid] = rank
    return left, right


def test_parsed_ranks_equal_the_ranks_built_from_events():
    """The rank lists the parser leaves on a representation are the ones
    a representation built in code gets from its events."""
    rng = random.Random("ranks")
    reps = [IntervalRepresentation(word) for n in range(7) for word in every_word(n)]
    assert len(reps) == 1 + 1 + 3 + 15 + 105 + 945 + 10395
    relabelled = []
    for rep in reps:
        ids = rng.sample(range(1, rep.n + 1), rep.n)
        relabelled.append(IntervalRepresentation(tuple((s, ids[v - 1]) for s, v in rep.events)))
    enumerated = [rep for n in range(1, 9) for enum in (enumerate_proper_representations,
                                                         enumerate_tp_representations)
                  for rep in enum(n)]
    generated = [gen_instance(cls, 10**4, 30, seed).rep for cls in ("proper", "tp")
                 for seed in range(2)]
    for rep in reps + relabelled + enumerated + generated:
        parsed = parse_representation(rep.serialize())
        built = IntervalRepresentation(rep.events)
        expected = event_ranks(rep.events)
        assert parsed.events == rep.events
        assert parsed == built == rep and hash(parsed) == hash(built) == hash(rep)
        assert (parsed.left_rank, parsed.right_rank) == expected, rep.serialize()
        assert (built.left_rank, built.right_rank) == expected, rep.serialize()


@pytest.mark.parametrize("name, limit", [("parsed", 60), ("tp", 10), ("path", 10)])
def test_a_word_holds_a_few_bytes_per_endpoint(name, limit):
    """A representation holds its side letters in one str and its ids in
    one array('i').  A parsed word, rank lists included, takes about 41
    bytes an endpoint and a generated one about 5, where a tuple per
    endpoint took 127 and 80 to 95.  The parser leaves the rank lists on
    the word, so they count; a generated word builds them on first use."""
    n = 10**4
    text = gen_instance("proper", n, 30, seed=0).rep.serialize()
    build = {
        "parsed": lambda: parse_representation(text),
        "tp": lambda: gen_instance("tp", n, 30, seed=0).rep,
        "path": lambda: path_representation(n),
    }[name]
    build()  # fills the free lists first, so that what they keep is not counted
    gc.collect()
    tracemalloc.start()
    try:
        rep = build()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rep.n == n
    assert held <= limit * 2 * n, held / (2 * n)


def test_parsing_a_word_peaks_at_a_few_dozen_bytes_per_endpoint():
    """The scanner reads a canonical word with no str per token: the
    parse peaks at about 77 bytes an endpoint, where a split into tokens
    and numerals peaked at 133."""
    n = 10**4
    text = gen_instance("proper", n, 30, seed=0).rep.serialize()
    parse_representation(text)  # fills the free lists first, as above
    gc.collect()
    tracemalloc.start()
    try:
        parse_representation(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * 2 * n, peak / (2 * n)


def test_an_id_past_the_endpoint_count_sizes_no_list():
    """An id above half the endpoint count is named without a list that
    long; the ids here would need one of 10**4300 entries."""
    start = time.perf_counter()
    with pytest.raises(RepresentationError) as err:
        parse_representation("L1 R1 L" + "9" * 4300 + " R" + "9" * 4300)
    assert str(err.value) == f"token 3: vertex ids must cover 1..2, found {'9' * 4300}"
    assert time.perf_counter() - start < 1


def test_a_duplicate_of_a_huge_id_is_named_first():
    start = time.perf_counter()
    with pytest.raises(RepresentationError) as err:
        parse_representation("L5000000000 L1 R1 L5000000000")
    assert str(err.value) == "token 4: duplicate LEFT endpoint for vertex 5000000000"
    assert time.perf_counter() - start < 1


def test_round_trip_identity():
    for text in (K3, P3, NESTED, "L1 R1", "L1 R1 L2 R2"):
        assert parse_representation(text).serialize() == text


def test_duplicate_left_endpoint_rejected():
    with pytest.raises(RepresentationError) as exc:
        parse_representation("L1 L1 R1 R1")
    assert exc.value.position == 2


def test_right_before_left_rejected():
    with pytest.raises(RepresentationError):
        parse_representation("R1 L1")


def test_missing_right_rejected():
    with pytest.raises(RepresentationError):
        parse_representation("L1 L2 R1")


def test_malformed_token_rejected():
    with pytest.raises(RepresentationError):
        parse_representation("L1 X2 R1")


def test_non_contiguous_ids_rejected():
    with pytest.raises(RepresentationError):
        parse_representation("L1 L3 R1 R3")


def test_classify_k3_proper():
    assert parse_representation(K3).classify() is GraphClass.PROPER


def test_classify_nested():
    assert parse_representation(NESTED).classify() is GraphClass.TRIVIALLY_PERFECT


def test_classify_neither():
    # 1 and 2 partially overlap while 3 nests inside 2
    assert parse_representation("L1 L2 R1 L3 R3 R2").classify() is GraphClass.NEITHER


def test_classify_disjoint_singletons_prefers_proper():
    assert parse_representation("L1 R1 L2 R2").classify() is GraphClass.PROPER


def test_left_right_orders():
    rep = parse_representation(P3)
    assert rep.left_order() == [1, 2, 3]
    assert rep.right_order() == [1, 2, 3]


# prepare_proper splits the components in its one pass over the endpoints
def test_component_segments_split_at_zero_open():
    rep = parse_representation("L1 L2 R1 L3 R2 R3 L4 R4")
    assert prepare_proper(rep).segments == [[1, 2, 3], [4]]


def test_component_segments_connected():
    assert prepare_proper(parse_representation(P3)).segments == [[1, 2, 3]]


def test_intersection_edges_k3():
    assert sorted(intersection_edges(parse_representation(K3))) == [(1, 2), (1, 3), (2, 3)]


def test_intersection_edges_p3():
    assert sorted(intersection_edges(parse_representation(P3))) == [(1, 2), (2, 3)]


def test_intersection_edges_disjoint():
    assert list(intersection_edges(parse_representation("L1 R1 L2 R2"))) == []


def test_touching_endpoints_intersect():
    # closed intervals: R1 at rank 2 touching L2 at rank 3 do not meet,
    # but shared membership inside 1..2n ranks is what matters: build a
    # chain where 2 opens exactly when 1 is still open
    rep = parse_representation("L1 L2 R1 R2")
    assert sorted(intersection_edges(rep)) == [(1, 2)]
