//! Property tests for the [`SweepSpec`] wire format: rendering then
//! parsing is lossless for every representable spec, and malformed
//! documents are rejected with a first-error message naming the path.

use oraclesize_runtime::{
    AdviceSpec, CellSpec, FaultSpec, InstanceSpec, KnobSpec, SchedulerSpec, SweepSpec,
};
use proptest::prelude::*;

fn names() -> sample::Select<String> {
    sample::select(
        ["t10", "cycle", "spanning-tree", "flood", "x-1", "a"]
            .map(String::from)
            .to_vec(),
    )
}

fn option_of<T>(s: impl Strategy<Value = T>) -> impl Strategy<Value = Option<T>> {
    (any::<bool>(), s).prop_map(|(some, v)| some.then_some(v))
}

fn advices() -> impl Strategy<Value = AdviceSpec> {
    (0u8..5, any::<u64>(), any::<u64>()).prop_map(|(kind, a, b)| match kind {
        0 => AdviceSpec::None,
        1 => AdviceSpec::FlipBits { prob_ppm: a },
        2 => AdviceSpec::Truncate { keep_ppm: a },
        3 => AdviceSpec::SwapPair { a, b },
        _ => AdviceSpec::Garbage {
            prob_ppm: a,
            bits: b,
        },
    })
}

fn faults() -> impl Strategy<Value = FaultSpec> {
    (
        any::<u64>(),
        0u64..=1_000_000,
        0u64..=1_000_000,
        0u64..=1_000_000,
        collection::vec((any::<u64>(), any::<u64>()), 0..3),
        advices(),
    )
        .prop_map(
            |(seed, drop_ppm, duplicate_ppm, bit_flip_ppm, crashes, advice)| FaultSpec {
                seed,
                drop_ppm,
                duplicate_ppm,
                bit_flip_ppm,
                crashes,
                advice,
            },
        )
}

fn schedulers() -> impl Strategy<Value = Option<SchedulerSpec>> {
    (
        0u8..5,
        sample::select(
            ["fifo", "lifo", "random", "starve"]
                .map(String::from)
                .to_vec(),
        ),
        any::<u64>(),
    )
        .prop_map(|(none, kind, seed)| (none != 0).then_some(SchedulerSpec { kind, seed }))
}

fn instances() -> impl Strategy<Value = InstanceSpec> {
    (
        names(),
        1u64..1_000,
        any::<u64>(),
        option_of(any::<u64>()),
        any::<u64>(),
        names(),
    )
        .prop_map(|(family, n, seed, p_ppm, source, oracle)| InstanceSpec {
            family,
            n,
            seed,
            p_ppm,
            source,
            oracle,
        })
}

fn cells(instance_count: u64) -> impl Strategy<Value = CellSpec> {
    (
        (
            names(),
            0..instance_count,
            names(),
            option_of(any::<u32>()),
            sample::select(["broadcast", "wakeup"].map(String::from).to_vec()),
            schedulers(),
        ),
        (
            any::<bool>(),
            option_of(any::<u64>()),
            option_of(any::<u32>()),
            any::<u64>(),
            faults(),
        ),
    )
        .prop_map(
            |(
                (label, instance, scheme, retries, mode, scheduler),
                (anonymous, max_message_bits, quiescence_polls, seed, faults),
            )| CellSpec {
                label,
                instance,
                scheme,
                retries,
                mode,
                scheduler,
                anonymous,
                max_message_bits,
                quiescence_polls,
                seed,
                faults,
            },
        )
}

fn specs() -> impl Strategy<Value = SweepSpec> {
    (
        names(),
        any::<u64>(),
        collection::vec(instances(), 1..4),
        option_of(any::<u64>()),
    )
        .prop_flat_map(|(name, master_seed, instance_list, cell_timeout)| {
            let count = instance_list.len() as u64;
            collection::vec(cells(count), 1..6).prop_map(move |cell_list| {
                let mut spec = SweepSpec::new(name.clone(), master_seed);
                spec.instances = instance_list.clone();
                spec.cells = cell_list;
                spec.knobs = KnobSpec { cell_timeout };
                spec
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// render → parse is the identity on every representable spec, and
    /// the canonical text re-renders byte for byte.
    #[test]
    fn render_parse_round_trip_is_lossless(spec in specs()) {
        let text = spec.render();
        let parsed = match SweepSpec::parse(&text) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::Fail(format!("{e}\n{text}"))),
        };
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.render(), text);
        // The digest is a pure function of the canonical text, so it
        // survives the round trip too.
        prop_assert_eq!(parsed.digest(), spec.digest());
    }

    /// Injecting an unknown field anywhere in the document is rejected,
    /// and the first-error message names the offending field.
    #[test]
    fn unknown_fields_are_rejected(
        spec in specs(),
        key in sample::select(["wat", "extra", "threadz", "color"].map(String::from).to_vec()),
    ) {
        let text = spec.render();
        // Splice the unknown key into the top-level object.
        let spliced = text.replacen('{', &format!("{{\"{key}\": 0, "), 1);
        let err = SweepSpec::parse(&spliced).expect_err("unknown field must be rejected");
        prop_assert!(err.contains(&key), "{}", err);
    }

    /// Mis-typing a required field is rejected with the field's path in
    /// the first-error message.
    #[test]
    fn mistyped_fields_are_rejected(spec in specs()) {
        let text = spec.render();
        let broken = text.replacen(
            &format!("\"master_seed\": {}", spec.master_seed),
            "\"master_seed\": \"not-a-number\"",
            1,
        );
        prop_assume!(broken != text);
        let err = SweepSpec::parse(&broken).expect_err("mis-typed field must be rejected");
        prop_assert!(err.contains("master_seed"), "{}", err);
    }
}
