//! Every workload, shrunk to a few hundred ops: its checks pass, a rerun
//! reproduces every simulated metric bit for bit, and tracing does not
//! perturb the simulation.

use autarky::{Profile, SystemBuilder};
use autarky_benchmark::json::Json;
use autarky_benchmark::ladder;
use autarky_benchmark::metrics::{Clock, Metrics, END_TO_END, PER_LAYER};
use autarky_benchmark::trace::Tracer;
use autarky_benchmark::workloads::fleet::FleetShape;
use autarky_benchmark::workloads::{
    closed_loop, fleet, font, kv, spell, Rep, Session, Shape, WORKLOADS,
};
use autarky_workloads::{EncHeap, World};

fn small(shape: &Shape, warmup: usize, measured: usize) -> Shape {
    Shape {
        warmup,
        measured,
        ..*shape
    }
}

const FLEET: FleetShape = FleetShape {
    fixed_requests: 100,
    probe_requests: 60,
};

/// One shrunk rep, plus the once-per-run metrics (fleet capacity).
fn rep(name: &str, mut tracer: Option<&mut Tracer>) -> Rep {
    if name == "fleet" {
        let (capacity, failures) =
            fleet::capacity(1, &FLEET, tracer.as_deref_mut()).expect("capacity");
        let mut rep = fleet::rep(1, &FLEET, tracer).expect("fleet");
        rep.sim.extend(capacity);
        rep.failures.absorb(&failures);
        return rep;
    }
    let result = match name {
        "spell" => closed_loop(&small(&spell::SHAPE, 10, 100), tracer, || {
            spell::Spell::setup(1)
        }),
        "kv-read" => {
            let shape = small(&kv::READ, 50, 200);
            closed_loop(&shape, tracer, || kv::Kv::setup(1, &shape))
        }
        "kv-update" => {
            let shape = small(&kv::UPDATE, 50, 200);
            closed_loop(&shape, tracer, || kv::Kv::setup(1, &shape))
        }
        "font" => closed_loop(&small(&font::SHAPE, 0, 1_000), tracer, || {
            font::Font::setup(1)
        }),
        other => panic!("unknown workload {other}"),
    };
    result.unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn same_bits(a: &Metrics, b: &Metrics) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

#[test]
fn every_workload_passes_its_checks_and_repeats_bit_for_bit() {
    for name in WORKLOADS {
        let first = rep(name, None);
        assert_eq!(
            first.failures.count, 0,
            "{name}: {:?}",
            first.failures.first
        );
        assert!(first.attempted > 0 && first.sim_ops > 0, "{name}");
        for d in END_TO_END.iter().filter(|d| d.clock == Clock::Sim) {
            let v = first.sim.get(d.name).copied().unwrap_or(0.0);
            assert!(v > 0.0, "{name}: {} = {v}", d.name);
        }
        for d in PER_LAYER.iter().filter(|d| d.clock == Clock::Sim) {
            assert!(
                first.sim.contains_key(d.name) || d.name == "os.flight_sim_cycles_per_event",
                "{name}: no {}",
                d.name
            );
        }
        let again = rep(name, None);
        assert!(
            same_bits(&first.sim, &again.sim),
            "{name}: rerun moved a simulated metric"
        );
    }
}

#[test]
fn the_workloads_stress_the_layers_they_are_chosen_for() {
    let sim = |name| rep(name, None).sim;
    let spell = sim("spell");
    assert!(
        spell["sgx.faults_per_op"] > 1.0,
        "spell is fault-path heavy"
    );
    let kv = sim("kv-read");
    assert_eq!(
        kv["sgx.faults_per_op"], 0.0,
        "the ORAM path takes no faults"
    );
    assert!(
        kv["oram.accesses_per_op"] > 0.0,
        "the store overflows the ORAM cache"
    );
    let font = sim("font");
    assert_eq!(
        font["sgx.faults_per_op"] + font["oram.accesses_per_op"],
        0.0
    );
    let fleet = sim("fleet");
    assert!(
        fleet["os.flight_events_per_op"] > 0.0,
        "only the fleet records flight events"
    );
    assert_eq!(fleet["fleet.served_ratio"], 1.0);
    assert_eq!(spell["os.flight_events_per_op"], 0.0);
}

#[test]
fn tracing_records_spans_without_moving_the_simulation() {
    for name in ["spell", "fleet"] {
        let plain = rep(name, None);
        let mut tracer = Tracer::new();
        let traced = rep(name, Some(&mut tracer));
        assert!(
            same_bits(&plain.sim, &traced.sim),
            "{name}: tracing moved a simulated metric"
        );
        let (spans, dropped) = tracer.counts();
        assert!(spans > 0 && dropped == 0, "{name}: {spans} spans");
        assert!(tracer.op_ns_quantile(0.5) > 0.0);
        let chrome = Json::parse(&tracer.chrome_json(name)).expect("chrome trace is JSON");
        let events = chrome
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), spans + 1, "one metadata event plus the spans");
        assert!(events
            .iter()
            .skip(1)
            .all(|e| e.get("args").and_then(|a| a.get("parent")).is_some()));
    }
}

/// A session whose op 5 returns a wrong answer.
struct Faulty {
    world: World,
    heap: EncHeap,
}

impl Session for Faulty {
    fn world(&self) -> &World {
        &self.world
    }
    fn heap(&self) -> &EncHeap {
        &self.heap
    }
    fn op(&mut self, i: usize) -> Result<(), String> {
        self.world.compute(1_000 + i as u64);
        if i == 5 {
            Err("op 5 answered wrong".into())
        } else {
            Ok(())
        }
    }
}

#[test]
fn a_wrong_answer_counts_as_a_failed_op() {
    let shape = Shape {
        op: "test.op",
        warmup: 2,
        measured: 20,
        mix: 0.0,
    };
    let rep = closed_loop(&shape, None, || {
        let (world, heap) = SystemBuilder::new("faulty", Profile::PinAll)
            .heap_pages(16)
            .build()
            .map_err(|e| e.to_string())?;
        Ok(Faulty { world, heap })
    })
    .expect("rep");
    assert_eq!(rep.failures.count, 1);
    assert_eq!(rep.attempted, 22);
    assert_eq!(rep.sim_ops, 20);
    assert_eq!(rep.sim["sim_op_p50_cycles"], 1_000.0 + 11.0);
}

#[test]
fn the_ladder_reports_every_rung_and_self_time() {
    let m = ladder::run().expect("ladder");
    for d in PER_LAYER {
        let (layer, metric) = d.name.split_once('.').expect("layer.metric");
        let ladder_metric = ["crypto", "sgx", "os", "rt", "oram"].contains(&layer)
            && (metric.starts_with("host_")
                || metric.starts_with("self_")
                || metric.starts_with("flight_") && metric.ends_with("_per_event"));
        assert_eq!(m.contains_key(d.name), ladder_metric, "{}", d.name);
    }
    for (name, v) in &m {
        if name.contains(".host_") {
            assert!(*v > 0.0, "{name} = {v}");
        }
    }
    let per_event = m["os.flight_sim_cycles_per_event"];
    assert!(
        (per_event - 25.0).abs() < 1e-6,
        "each recorded event charges 25 cycles: {per_event}"
    );
}
