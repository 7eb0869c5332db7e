"""Property-based tests: memory-hierarchy invariants under random traffic.

These drive random interleavings of correct loads, stores and
wrong-execution loads through each sidecar policy and assert invariants
the Figure 5/6 design guarantees by construction:

* a block is never resident in the L1 and its sidecar simultaneously
  (the swap/promote protocol keeps them exclusive);
* the sidecar never exceeds its capacity;
* wrong-execution loads never change the set of L1-resident blocks in
  the WEC configuration (pollution freedom — the paper's core claim);
* counters remain consistent (hits + misses = accesses).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import (
    CacheConfig,
    MemorySystemConfig,
    SidecarConfig,
    SidecarKind,
)
from repro.mem.hierarchy import TUMemSystem
from repro.mem.l2 import SharedL2
from repro.obs.attrib import (
    AttributionCollector,
    PROV_NAMES,
    PROV_WRONG_PATH,
    PROV_WRONG_THREAD,
    SPECULATIVE_PROVS,
)


def make_system(kind: SidecarKind, entries: int = 4,
                attrib: AttributionCollector = None) -> TUMemSystem:
    l2 = SharedL2(
        MemorySystemConfig(
            l2=CacheConfig(size=16 * 1024, assoc=4, block_size=128,
                           hit_latency=12, name="l2")
        )
    )
    return TUMemSystem(
        0,
        CacheConfig(size=512, assoc=1, block_size=64, name="l1d"),
        CacheConfig(size=1024, assoc=2, block_size=64, name="l1i"),
        SidecarConfig(kind=kind, entries=entries),
        l2,
        attrib=attrib,
    )


OPS = st.lists(
    st.tuples(
        st.sampled_from(["load", "store", "wrong"]),
        st.integers(min_value=0, max_value=63),  # block index
    ),
    max_size=400,
)


def drive(mem: TUMemSystem, ops) -> None:
    for op, block in ops:
        addr = block * 64
        if op == "load":
            mem.load_correct(addr)
        elif op == "store":
            mem.store_correct(addr)
        else:
            mem.load_wrong(addr)


@pytest.mark.parametrize(
    "kind", [SidecarKind.WEC, SidecarKind.VICTIM, SidecarKind.PREFETCH]
)
@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_l1_and_sidecar_exclusive(kind, ops):
    mem = make_system(kind)
    drive(mem, ops)
    l1_blocks = {b for b, _ in mem.l1d.resident_blocks()}
    side_blocks = {b for b, _ in mem.sidecar.items()}
    assert not (l1_blocks & side_blocks)


@pytest.mark.parametrize(
    "kind", [SidecarKind.WEC, SidecarKind.VICTIM, SidecarKind.PREFETCH]
)
@settings(max_examples=40, deadline=None)
@given(ops=OPS, entries=st.integers(min_value=1, max_value=8))
def test_sidecar_capacity_respected(kind, ops, entries):
    mem = make_system(kind, entries=entries)
    drive(mem, ops)
    assert len(mem.sidecar) <= entries


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_wec_wrong_loads_never_pollute_l1(ops):
    """Interleave correct traffic with wrong loads; the L1 contents must
    equal those of a run with the wrong loads stripped out."""
    with_wrong = make_system(SidecarKind.WEC)
    drive(with_wrong, ops)
    without = make_system(SidecarKind.WEC)
    drive(without, [(op, b) for op, b in ops if op != "wrong"])
    # Wrong loads may only have touched the WEC, never the L1: identical
    # L1 residency and identical LRU behaviour for correct traffic.
    assert {b for b, _ in with_wrong.l1d.resident_blocks()} == {
        b for b, _ in without.l1d.resident_blocks()
    }
    assert with_wrong.stats["l1_misses"] == without.stats["l1_misses"]


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_plain_wrong_loads_do_pollute(ops):
    """Conversely, without a WEC, enough wrong loads must perturb the L1
    (this is the pollution the paper measures)."""
    wrongs = [(op, b) for op, b in ops if op == "wrong"]
    if len({b for _, b in wrongs}) < 12:
        return  # not enough distinct wrong blocks to guarantee residue
    mem = make_system(SidecarKind.NONE)
    drive(mem, ops)
    assert mem.stats["wrong_fills"] > 0


@pytest.mark.parametrize(
    "kind",
    [SidecarKind.NONE, SidecarKind.WEC, SidecarKind.VICTIM, SidecarKind.PREFETCH],
)
@settings(max_examples=30, deadline=None)
@given(ops=OPS)
def test_counter_consistency(kind, ops):
    mem = make_system(kind)
    drive(mem, ops)
    s = mem.stats
    accesses = s["loads"] + s["stores"]
    assert s["l1_hits"] + s["l1_misses"] == accesses
    assert s["sidecar_hits"] + s["demand_fills"] == s["l1_misses"]
    # Every wrong load is accounted exactly once.
    assert (
        s["wrong_l1_hits"] + s["wrong_sidecar_hits"] + s["wrong_fills"]
        == s["wrong_loads"]
    )


#: The whole policy space the attribution layer must stay conservative
#: over — every sidecar kind plus the plain (no-sidecar) configuration.
ALL_KINDS = [
    SidecarKind.WEC,
    SidecarKind.VICTIM,
    SidecarKind.PREFETCH,
    SidecarKind.NONE,
]


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=30, deadline=None)
@given(ops=OPS)
def test_attribution_lifetime_conservation(kind, ops):
    """Every speculative fill's lifetime is accounted exactly once:
    fills = useful + late + unused + polluting + still-open, per source
    and in total, whatever the policy and traffic interleaving."""
    attrib = AttributionCollector(window=64.0)
    mem = make_system(kind, attrib=attrib)
    for i, (op, block) in enumerate(ops):
        # March the clock and flip the wrong-execution kind so both
        # wrong provenances and several gap buckets are exercised.
        attrib.now = float(i * 3)
        addr = block * 64
        if op == "load":
            mem.load_correct(addr)
        elif op == "store":
            mem.store_correct(addr)
        else:
            attrib.set_wrong_context(
                PROV_WRONG_PATH if block % 2 else PROV_WRONG_THREAD,
                pc=block,
            )
            mem.load_wrong(addr)
    summary = attrib.summary(instructions=max(1, len(ops)))
    per_source = summary["per_source"]
    for prov in SPECULATIVE_PROVS:
        src = per_source[PROV_NAMES[prov]]
        assert src["fills"] == (
            src["useful"] + src["late"] + src["unused"]
            + src["polluting"] + src["open"]
        ), (kind, PROV_NAMES[prov], src)
    totals = summary["totals"]
    # Demand fills are born used, so they never appear in the closed
    # classes; the grand total must balance the same way.
    spec_fills = totals["fills"] - totals["demand_fills"]
    assert spec_fills == (
        totals["useful"] + totals["late"] + totals["unused"]
        + totals["polluting"] + totals["open"]
    )
    # Pollution misses are demand misses, so they can never exceed the
    # demand fills that were observed charging them.
    assert totals["pollution_misses"] <= totals["demand_fills"]


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=20, deadline=None)
@given(ops=OPS)
def test_attribution_never_perturbs_the_hierarchy(kind, ops):
    """An attached collector observes; it must not change residency or
    counters (the bit-identity guarantee at the component level)."""
    plain = make_system(kind)
    drive(plain, ops)
    observed = make_system(kind, attrib=AttributionCollector())
    drive(observed, ops)
    assert plain.stats.as_dict() == observed.stats.as_dict()
    assert {b for b, _ in plain.l1d.resident_blocks()} == {
        b for b, _ in observed.l1d.resident_blocks()
    }


@settings(max_examples=30, deadline=None)
@given(ops=OPS)
def test_l2_sees_only_misses(ops):
    mem = make_system(SidecarKind.WEC)
    drive(mem, ops)
    l2 = mem.l2.stats
    # The L2 access count must equal fills + wrong fills + prefetches
    # (no path reaches the L2 on an L1/sidecar hit).
    expected = (
        mem.stats["demand_fills"]
        + mem.stats["wrong_fills"]
        + mem.stats["prefetches"]
    )
    assert l2["accesses"] == expected
