//! The spec parsers against hostile input: the JSON that `POST /jobs`,
//! `POST /sweeps` and `explore --spec` read. Every spec survives a JSON
//! round trip with its content address; damaged bodies parse or fail,
//! never panic; and a spec that validates builds, and runs, without
//! panicking.

use alloc_locality::{AllocConfig, JobSpec};
use explore::{GridSpec, SweepSpec};
use proptest::prelude::*;

/// Labels: mostly ones the engine knows, some junk (arbitrary code
/// points, control characters and quotes included).
fn label() -> impl Strategy<Value = String> {
    let known = [
        "espresso",
        "GS",
        "ptc",
        "gawk",
        "make",
        "GS-Small",
        "FirstFit",
        "QuickFit",
        "GNU G++",
        "BSD",
        "GNU local",
        "BestFit",
        "Buddy",
        "Custom",
        "Predictive",
    ];
    let junk = proptest::collection::vec(0u32..0x11_0000, 0..8)
        .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect::<String>());
    prop_oneof![
        4 => (0..known.len()).prop_map(move |i| known[i].to_string()),
        1 => junk,
        1 => Just("\"\\\n\u{0}{[".to_string()),
    ]
}

/// Scales in range, zero, negative and above 1.
fn scale() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => 0.0..0.01f64,
        1 => Just(0.0),
        1 => -2.0..0.0f64,
        1 => 1.0..3.0f64,
        1 => Just(f64::MIN_POSITIVE),
    ]
}

fn cache_kb() -> impl Strategy<Value = Vec<u32>> {
    let size =
        prop_oneof![4 => (0u32..12).prop_map(|s| 1 << s), 1 => Just(0u32), 1 => any::<u32>()];
    proptest::collection::vec(size, 0..=9)
}

fn block() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(8), Just(32), Just(256), Just(48), Just(512), any::<u32>()]
}

fn maybe<S: Strategy + 'static>(inner: S) -> impl Strategy<Value = Option<S::Value>>
where
    S::Value: 'static,
{
    prop_oneof![Just(()).prop_map(|()| None), inner.prop_map(Some)]
}

/// A knob value: boundaries and small values mostly, sometimes any.
fn knob() -> impl Strategy<Value = u32> {
    prop_oneof![4 => 0u32..80, 1 => Just(4096), 1 => Just(4097), 1 => any::<u32>()]
}

fn alloc_config() -> impl Strategy<Value = AllocConfig> {
    (maybe(knob()), maybe(any::<bool>()), maybe(any::<bool>()), maybe(knob()), maybe(0u32..16))
        .prop_flat_map(|(split_threshold, coalesce, roving, fast_max, min_shift)| {
            maybe(knob()).prop_map(move |short_age| AllocConfig {
                split_threshold,
                coalesce,
                roving,
                fast_max,
                min_shift,
                short_age,
            })
        })
}

fn job_spec() -> impl Strategy<Value = JobSpec> {
    (label(), label(), scale(), cache_kb(), block(), maybe(any::<bool>()), maybe(alloc_config()))
        .prop_map(|(program, allocator, scale, cache_kb, block, paging, alloc_config)| JobSpec {
            program,
            allocator,
            scale,
            cache_kb,
            block,
            paging,
            alloc_config,
        })
}

/// A spec of known labels, in-range scale and geometry, and knobs of
/// the allocator's own family (in range or not), so most validate.
fn runnable_job_spec() -> impl Strategy<Value = JobSpec> {
    let programs = ["espresso", "GS", "ptc", "gawk", "make", "GS-Small", "GS-Medium"];
    let allocators = alloc_locality::job_spec::SERVABLE_ALLOCATORS;
    let sizes = proptest::collection::vec((0u32..11).prop_map(|s| 1 << s), 0..=8);
    let scale = prop_oneof![8 => 0.0..0.01f64, 1 => Just(f64::MIN_POSITIVE)];
    let geometry = (scale, sizes, (3u32..9).prop_map(|s| 1 << s), maybe(any::<bool>()));
    (0..programs.len(), 0..allocators.len(), geometry, maybe(alloc_config())).prop_map(
        move |(p, a, (scale, cache_kb, block, paging), cfg)| {
            let allocator = allocators[a].to_string();
            let alloc_config = cfg.map(|c| {
                let mut own = AllocConfig::default();
                match allocator.as_str() {
                    "FirstFit" | "GNU G++" => {
                        (own.split_threshold, own.coalesce) = (c.split_threshold, c.coalesce);
                        own.roving = c.roving.filter(|_| allocator == "FirstFit");
                    }
                    "QuickFit" => own.fast_max = c.fast_max,
                    "BSD" => own.min_shift = c.min_shift,
                    "Predictive" => own.short_age = c.short_age,
                    _ => own = c,
                }
                own
            });
            let program = programs[p].to_string();
            JobSpec { program, allocator, scale, cache_kb, block, paging, alloc_config }
        },
    )
}

fn knobs<S: Strategy>(inner: S) -> proptest::collection::VecStrategy<S> {
    proptest::collection::vec(inner, 0..3)
}

fn grid() -> impl Strategy<Value = GridSpec> {
    (label(), knobs(knob()), knobs(any::<bool>()), knobs(any::<bool>()), knobs(knob()))
        .prop_flat_map(|(allocator, split_threshold, coalesce, roving, fast_max)| {
            (knobs(0u32..16), knobs(knob())).prop_map(move |(min_shift, short_age)| GridSpec {
                allocator: allocator.clone(),
                split_threshold: split_threshold.clone(),
                coalesce: coalesce.clone(),
                roving: roving.clone(),
                fast_max: fast_max.clone(),
                min_shift,
                short_age,
            })
        })
}

fn sweep_spec() -> impl Strategy<Value = SweepSpec> {
    let axes = (
        label(),
        scale(),
        proptest::collection::vec(label(), 0..3),
        proptest::collection::vec(scale(), 0..3),
    );
    (axes, cache_kb(), block(), maybe(any::<bool>()), proptest::collection::vec(grid(), 0..4))
        .prop_map(|((program, scale, programs, scales), cache_kb, block, paging, grids)| {
            SweepSpec { program, scale, programs, scales, cache_kb, block, paging, grids }
        })
}

/// A sweep over the cell of one runnable spec with one grid per
/// runnable spec, its knob lists drawn from that spec's config, so many
/// validate.
fn plausible_sweep() -> impl Strategy<Value = SweepSpec> {
    let programs = ["espresso", "gawk", "make"];
    let axes = (
        proptest::collection::vec(
            (0..programs.len()).prop_map(move |i| programs[i].to_string()),
            0..3,
        ),
        proptest::collection::vec(0.0..0.01f64, 0..3),
    );
    (proptest::collection::vec(runnable_job_spec(), 1..4), axes).prop_map(
        |(specs, (programs, scales))| {
            let grid = |spec: &JobSpec| {
                let c = spec.alloc_config.unwrap_or_default();
                GridSpec {
                    allocator: spec.allocator.clone(),
                    split_threshold: c.split_threshold.into_iter().collect(),
                    coalesce: c.coalesce.into_iter().collect(),
                    roving: c.roving.into_iter().collect(),
                    fast_max: c.fast_max.into_iter().collect(),
                    min_shift: c.min_shift.into_iter().collect(),
                    short_age: c.short_age.into_iter().collect(),
                }
            };
            let cell = specs[0].clone();
            SweepSpec {
                program: cell.program,
                scale: cell.scale,
                programs,
                scales,
                cache_kb: cell.cache_kb,
                block: cell.block,
                paging: cell.paging,
                grids: specs.iter().map(grid).collect(),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A job spec's wire format is lossless, so its id is too; one that
    /// validates builds its experiment.
    #[test]
    fn job_specs_round_trip_with_their_ids(spec in job_spec()) {
        let line = serde_json::to_string(&spec).expect("serializes");
        let back: JobSpec = serde_json::from_str(&line).expect("parses its own line");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.job_id(), spec.job_id());
        prop_assert_eq!(spec.validate().is_ok(), spec.to_experiment().is_ok());
    }

    /// A sweep spec's wire format is lossless; one that validates
    /// expands only to points that validate.
    #[test]
    fn sweep_specs_round_trip_and_expand_to_valid_points(
        spec in prop_oneof![sweep_spec(), plausible_sweep()]
    ) {
        let line = serde_json::to_string(&spec).expect("serializes");
        let back: SweepSpec = serde_json::from_str(&line).expect("parses its own line");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.sweep_id(), spec.sweep_id());
        if spec.validate().is_ok() {
            for point in spec.points() {
                prop_assert!(point.validate().is_ok(), "{point:?}: {:?}", point.validate());
            }
        }
    }
}

proptest! {
    // Each valid case runs a simulation; a few dozen keep the suite to
    // seconds in a debug build.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A job spec that validates runs at a small scale to a result or an
    /// engine error, never a panic.
    #[test]
    fn valid_job_specs_run_without_panicking(spec in runnable_job_spec()) {
        if spec.validate().is_err() {
            return Ok(());
        }
        let n = spec.normalized();
        let small = JobSpec { scale: n.scale.min(0.002), ..n };
        let _ = small.to_experiment().expect("still valid").run();
    }
}

/// Valid bodies of each shape the daemon accepts.
const BODIES: [&str; 3] = [
    r#"{"program":"espresso","allocator":"BSD","scale":0.002,"cache_kb":[16],"paging":false}"#,
    r#"{"program":"gawk","allocator":"FirstFit","block":64,"alloc_config":{"split_threshold":8,"roving":false}}"#,
    r#"{"program":"make","programs":["make","ptc"],"scales":[0.001,0.002],"grids":[{"allocator":"QuickFit","fast_max":[16,64]},{"allocator":"Custom"}]}"#,
];

/// Parses `text` as both spec types; whatever parses is hashed and
/// validated. Any panic fails the test.
fn parse_both(text: &str) {
    if let Ok(spec) = serde_json::from_str::<JobSpec>(text) {
        let _ = (spec.job_id(), spec.validate());
    }
    if let Ok(spec) = serde_json::from_str::<SweepSpec>(text) {
        let _ = (spec.sweep_id(), spec.validate());
    }
}

/// Every prefix and every single-bit flip of each body, and bodies
/// nested past the parser's depth limit, parse to `Ok` or `Err`.
#[test]
fn damaged_bodies_parse_or_fail_without_panicking() {
    for body in &BODIES[..2] {
        serde_json::from_str::<JobSpec>(body).expect("parses").validate().expect("validates");
    }
    serde_json::from_str::<SweepSpec>(BODIES[2]).expect("parses").validate().expect("validates");
    for body in BODIES {
        let bytes = body.as_bytes();
        for end in 0..bytes.len() {
            parse_both(&body[..end]);
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            parse_both(&String::from_utf8_lossy(&flipped));
        }
    }
    let deep = |open: &str, close: &str| format!("{}1{}", open.repeat(200), close.repeat(200));
    for (field, value) in [
        ("alloc_config", deep("{\"split_threshold\":", "}")),
        ("grids", deep("[", "]")),
        ("alloc_config", deep("[", "]")),
        ("grids", deep("{\"allocator\":", "}")),
    ] {
        let body = format!(r#"{{"program":"espresso","allocator":"BSD","{field}":{value}}}"#);
        let err = serde_json::from_str::<JobSpec>(&body).expect_err("nested past the limit");
        assert!(err.to_string().contains("recursion limit"), "{field}: {err}");
        let err = serde_json::from_str::<SweepSpec>(&body).expect_err("nested past the limit");
        assert!(err.to_string().contains("recursion limit"), "{field}: {err}");
    }
}
