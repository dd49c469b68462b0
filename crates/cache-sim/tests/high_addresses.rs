//! References at the top of the 64-bit address space. A replayed
//! stream file may hold any address below 2^64; every cache sink must
//! simulate it like any other — one cold miss on first touch, a hit on
//! the next — without sizing a table by the address.

use cache_sim::{Cache, CacheBank, CacheConfig, SweepCache, VictimCache};
use sim_mem::{AccessSink, Address, MemRef, RefRun};

/// Two word references whose blocks map to different 16K lines: one
/// far above any heap, one whose last byte is the last byte of memory.
const HIGH: [u64; 2] = [0xffff_ffff_0000, u64::MAX - 3];

fn k16() -> CacheConfig {
    CacheConfig::direct_mapped(16 * 1024, 32)
}

/// Touches each high reference, then each again (the second pass goes
/// through the tag lookup, not the last-block short-circuit), reading
/// `(misses, cold misses)` after every touch.
fn touches<S: AccessSink>(sink: &mut S, read: impl Fn(&S) -> (u64, u64)) {
    let want = [(1, 1), (2, 2), (2, 2), (2, 2)];
    for (i, &addr) in HIGH.iter().chain(&HIGH).enumerate() {
        sink.record(MemRef::app_read(Address::new(addr), 4));
        assert_eq!(read(sink), want[i], "after touch {i} at {addr:#x}");
    }
    // A repeated run of an already-resident reference adds no miss.
    sink.record_runs(&[RefRun { r: MemRef::app_read(Address::new(HIGH[1]), 4), count: 3 }]);
    assert_eq!(read(sink), (2, 2), "after a repeated run");
}

#[test]
fn high_references_miss_cold_once_then_hit() {
    let two_way = CacheConfig::set_associative(16 * 1024, 32, 2);
    for config in [k16(), two_way] {
        let mut cache = Cache::new(config);
        touches(&mut cache, |c| {
            let st = c.stats();
            (st.misses(), st.cold_misses)
        });
    }

    let mut sweep = SweepCache::try_new([k16()]).expect("one direct-mapped member");
    touches(&mut sweep, |sweep| {
        let st = sweep.stats_for(k16()).expect("member");
        (st.misses(), st.cold_misses)
    });

    let mut bank = CacheBank::new([k16(), two_way]);
    touches(&mut bank, |bank| {
        let (a, b) =
            (bank.stats_for(k16()).expect("1-way"), bank.stats_for(two_way).expect("2-way"));
        assert_eq!(a, b, "both members see the same misses");
        (a.misses(), a.cold_misses)
    });

    let mut victim = VictimCache::new(k16(), 4);
    touches(&mut victim, |v| {
        let st = v.stats();
        (st.main_misses, st.cold_misses)
    });
}
