//! Seeded mutation fuzzing of every decoder that reads bytes from
//! outside its trust domain: the runtime checkpoint, the enclave
//! capture, the telemetry snapshot, the campaign TOML configs, the
//! campaign journal line and the profile JSON.
//!
//! Each decoder's seed is its own encoder's output from a small
//! exercised run. Mutants are the seed with one to three of: a bit flip,
//! a truncation, a splice of the seed's tail, or a count blown up to
//! `u64::MAX`, `1 << 32` or `1 << 20` (eight little-endian bytes in a
//! binary format, a decimal number in a text one). The oracle is that no
//! decoder panics, and that each unmutated seed decodes and re-encodes to
//! itself. Everything runs off fixed `SimRng` seeds, so a failure
//! reproduces exactly.
//!
//! The bounded run is part of `cargo test`; the long run is ignored by
//! default and runs with
//! `cargo test --release -p autarky-campaign --test decode_fuzz -- --ignored`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use autarky_campaign::cell::decode_line;
use autarky_campaign::{CampaignConfig, CellOutcome};
use autarky_os_sim::{EnclaveImage, FaultPlan, Os};
use autarky_prng::SimRng;
use autarky_profile::{collect, CollectSpec, CycleProfile};
use autarky_runtime::{PagingMechanism, RateLimit, Runtime, RuntimeConfig};
use autarky_sgx_sim::machine::MachineConfig;
use autarky_sgx_sim::{Vpn, PAGE_SIZE};
use autarky_snapshot::{decode_capture, encode_capture};
use autarky_telemetry::Telemetry;

/// Mutated inputs per decoder in the bounded run.
const BOUNDED_INPUTS: usize = 20_000;
/// Mutated inputs per decoder in the long run.
const LONG_INPUTS: usize = 1_000_000;
/// The values a mutated count is blown up to.
const HUGE_COUNTS: [u64; 3] = [u64::MAX, 1 << 32, 1 << 20];

/// Decodes an input and re-encodes what it decoded; `None` when the
/// decoder refuses the input.
type RoundTrip = Box<dyn Fn(&[u8]) -> Option<Vec<u8>>>;

struct Target {
    name: String,
    seed: Vec<u8>,
    /// Text formats take mutants as (lossy) UTF-8 and get decimal count
    /// blow-ups.
    text: bool,
    round_trip: RoundTrip,
}

fn binary(name: &str, seed: Vec<u8>, round_trip: RoundTrip) -> Target {
    Target {
        name: name.to_owned(),
        seed,
        text: false,
        round_trip,
    }
}

fn text(name: &str, seed: String, round_trip: impl Fn(&str) -> Option<String> + 'static) -> Target {
    Target {
        name: name.to_owned(),
        seed: seed.into_bytes(),
        text: true,
        round_trip: Box::new(move |input| {
            round_trip(&String::from_utf8_lossy(input)).map(String::into_bytes)
        }),
    }
}

/// First four bytes of SHA-256 over a journal line's body, in hex: the
/// checksum the journal appends after ` sum=`.
fn journal_sum(body: &str) -> String {
    autarky_crypto::sha256(body.as_bytes())[..4]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// A small exercised run: SGXv2 self-paging under a page budget and a
/// rate limit, a cluster, an eviction and fault-back, a freed allocation,
/// and a delay-injecting fault plan.
fn exercised_run() -> (Os, Runtime) {
    let mut os = Os::new(MachineConfig {
        epc_frames: 512,
        ..Default::default()
    });
    let mut img = EnclaveImage::named("fuzz-seed");
    img.self_paging = true;
    img.code_pages = 2;
    img.data_pages = 4;
    img.stack_pages = 1;
    img.heap_pages = 8;
    let eid = os.load_enclave(&img).expect("load");
    os.arm_fault_plan(FaultPlan {
        delay: 0.5,
        delay_cycles: 1_000,
        max_injections: Some(16),
        ..FaultPlan::quiescent(7)
    });
    let mut rt = Runtime::attach(
        &mut os,
        eid,
        RuntimeConfig {
            mechanism: PagingMechanism::Sgx2,
            rate_limit: Some(RateLimit {
                max_faults_per_progress: 8.0,
                burst: 32,
            }),
            budget: 12,
            ..Default::default()
        },
    )
    .expect("attach");
    let data: Vec<_> = (0..img.data_pages as u64)
        .map(|i| Vpn(img.data_start().0 + i))
        .collect();
    let cluster = rt.clusters.ay_init_clusters(1, 0)[0];
    for &page in &data[..2] {
        rt.clusters.ay_add_page(cluster, page).expect("cluster");
    }
    for (i, page) in data.iter().enumerate() {
        rt.write(&mut os, page.base(), &[i as u8 + 1; 32])
            .expect("write");
    }
    rt.evict_pages(&mut os, &data[..3]).expect("evict");
    let mut buf = [0u8; 32];
    rt.read(&mut os, data[0].base(), &mut buf)
        .expect("fault back");
    let va = rt.malloc(&mut os, 2 * PAGE_SIZE).expect("malloc");
    rt.free(va, 2 * PAGE_SIZE);
    rt.progress(5);
    (os, rt)
}

fn targets() -> Vec<Target> {
    let (os, rt) = exercised_run();
    let capture = os.machine.capture_enclave(rt.eid).expect("capture");
    let mut out = vec![
        binary(
            "runtime checkpoint",
            rt.capture_bytes(),
            Box::new(|b| {
                Runtime::restore_from_bytes(b)
                    .ok()
                    .map(|rt| rt.capture_bytes())
            }),
        ),
        binary(
            "enclave capture",
            encode_capture(&capture),
            Box::new(|b| decode_capture(b).ok().map(|c| encode_capture(&c))),
        ),
        binary(
            "telemetry snapshot",
            rt.telemetry.snapshot_bytes(),
            Box::new(|b| {
                let mut t = Telemetry::new();
                t.restore_state(b).ok().map(|()| t.snapshot_bytes())
            }),
        ),
    ];

    // The config format has no encoder: its seeds only have to parse.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaigns");
    let mut configs: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/campaigns readable")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    configs.sort();
    assert!(!configs.is_empty(), "no configs in {}", dir.display());
    for path in configs {
        let name = format!(
            "campaign config {}",
            path.strip_prefix(&dir).unwrap_or(&path).display()
        );
        let toml = std::fs::read_to_string(&path).expect("config readable");
        out.push(text(&name, toml, |s| {
            CampaignConfig::from_toml(s).ok().map(|_| s.to_owned())
        }));
    }

    // The checksum is recomputed on every mutant, so mutants reach the
    // parser instead of dying at the checksum.
    let outcome = CellOutcome::gated(
        vec![
            ("cycles_per_op".to_owned(), 38240.5),
            ("bits".to_owned(), 0.0),
        ],
        vec!["p99 over budget by 12%".to_owned()],
        "every gate held".to_owned(),
    );
    out.push(text(
        "journal line",
        outcome.encode_line("smoke-clusters-1"),
        |s| {
            let body = s.rsplit_once(" sum=").map_or(s, |(body, _)| body);
            let line = format!("{body} sum={}", journal_sum(body));
            decode_line(&line).map(|(id, outcome)| outcome.encode_line(&id))
        },
    ));

    let profile = collect(&CollectSpec {
        workload: "paging".to_owned(),
        policy: "clusters".to_owned(),
        scale: 1,
    })
    .expect("collect");
    out.push(text("profile JSON", profile.to_json(), |s| {
        CycleProfile::from_json(s).map(|p| p.to_json())
    }));
    out
}

/// Replace the digit run around a random digit with `value` in decimal.
fn blow_up_decimal(rng: &mut SimRng, input: &mut Vec<u8>, value: u64) {
    let digits: Vec<usize> = (0..input.len())
        .filter(|&i| input[i].is_ascii_digit())
        .collect();
    if digits.is_empty() {
        return;
    }
    let at = digits[rng.gen_range_usize(0..digits.len())];
    let start = input[..at]
        .iter()
        .rposition(|b| !b.is_ascii_digit())
        .map_or(0, |i| i + 1);
    let end = input[at..]
        .iter()
        .position(|b| !b.is_ascii_digit())
        .map_or(input.len(), |i| at + i);
    input.splice(start..end, value.to_string().into_bytes());
}

/// Apply one to three random mutations to a copy of `seed`.
fn mutate(rng: &mut SimRng, seed: &[u8], text: bool) -> Vec<u8> {
    let mut input = seed.to_vec();
    for _ in 0..rng.gen_range(1..4) {
        match rng.gen_below(4) {
            0 if !input.is_empty() => {
                let at = rng.gen_range_usize(0..input.len());
                input[at] ^= 1 << rng.gen_below(8);
            }
            1 if !input.is_empty() => {
                input.truncate(rng.gen_range_usize(0..input.len()));
            }
            2 if !input.is_empty() => {
                let at = rng.gen_range_usize(0..input.len());
                let from = rng.gen_range_usize(0..seed.len());
                input.truncate(at);
                input.extend_from_slice(&seed[from..]);
            }
            3 => {
                let value = HUGE_COUNTS[rng.gen_range_usize(0..HUGE_COUNTS.len())];
                if text {
                    blow_up_decimal(rng, &mut input, value);
                } else if input.len() >= 8 {
                    let at = rng.gen_range_usize(0..input.len() - 7);
                    input[at..at + 8].copy_from_slice(&value.to_le_bytes());
                }
            }
            _ => {}
        }
    }
    input
}

/// Run `inputs` mutants of each target's seed through its decoder and
/// fail on the first decoder that panics.
fn fuzz(inputs: usize) {
    for (index, target) in targets().into_iter().enumerate() {
        let mut rng = SimRng::seed_from_u64(0xF022 + index as u64);
        let mut accepted = 0usize;
        for n in 0..inputs {
            let input = mutate(&mut rng, &target.seed, target.text);
            match catch_unwind(AssertUnwindSafe(|| (target.round_trip)(&input))) {
                Ok(decoded) => accepted += usize::from(decoded.is_some()),
                Err(_) => panic!(
                    "{} panicked on mutant {n} ({} bytes): {}",
                    target.name,
                    input.len(),
                    String::from_utf8_lossy(&input[..input.len().min(256)])
                ),
            }
        }
        println!(
            "{}: {inputs} mutants, {accepted} decoded, 0 panics",
            target.name
        );
    }
}

#[test]
fn every_seed_decodes_and_reencodes_to_itself() {
    for target in targets() {
        assert_eq!(
            (target.round_trip)(&target.seed).as_deref(),
            Some(&target.seed[..]),
            "{}",
            target.name
        );
    }
}

#[test]
fn no_decoder_panics_on_mutated_input() {
    fuzz(BOUNDED_INPUTS);
}

#[test]
#[ignore = "the long run: about 2 min in release"]
fn no_decoder_panics_on_a_million_mutated_inputs() {
    fuzz(LONG_INPUTS);
}
