//! Distributed-protocol conformance: the simulator-run protocols must
//! match their centralized references and survive adversarial
//! schedules and fault plans.

use wcds::core::election::{elect, ElectionNode};
use wcds::core::{algo1, algo2};
use wcds::geom::deploy;
use wcds::graph::{generators, traversal, UnitDiskGraph};
use wcds::sim::{FaultPlan, Schedule, Simulator};

#[test]
fn election_agrees_across_48_async_schedules() {
    let g = generators::connected_gnp(30, 0.12, 4);
    for seed in 0..48 {
        let out = elect(&g, Schedule::asynchronous(seed).with_max_delay(1 + seed % 7));
        assert_eq!(out.leader, 0, "seed {seed}");
        assert!(out.tree.spans(&g), "seed {seed}");
    }
}

#[test]
fn algo2_mis_is_schedule_independent() {
    // the lowest-ID MIS rule is confluent: any schedule yields the
    // lexicographically-first MIS
    let udg = UnitDiskGraph::build(deploy::uniform(60, 4.0, 4.0, 8), 1.0);
    if !traversal::is_connected(udg.graph()) {
        return;
    }
    let reference = algo2::distributed::run_synchronous(udg.graph());
    for seed in 0..20 {
        let run = algo2::distributed::run_asynchronous(udg.graph(), seed);
        assert_eq!(
            run.result.wcds.mis_dominators(),
            reference.result.wcds.mis_dominators(),
            "seed {seed}: MIS diverged under asynchrony"
        );
        assert!(run.result.wcds.is_valid(udg.graph()), "seed {seed}");
    }
}

#[test]
fn algo1_valid_under_varied_async_delays() {
    let g = generators::connected_gnp(40, 0.1, 6);
    for seed in 0..10 {
        let run = algo1::distributed::run_asynchronous(&g, seed);
        assert!(run.result.wcds.is_valid(&g), "seed {seed}");
        assert_eq!(run.leader, 0);
    }
}

#[test]
fn election_stalls_rather_than_misbehaves_under_a_crash() {
    // The paper's protocols assume a reliable network. A crashed
    // neighbor never acknowledges the winner's wave, so the election
    // must STALL (no leader declared anywhere) rather than elect
    // inconsistently — fail-safe, not fail-wrong.
    let g = generators::star(6); // center 0, leaves 1..=6
    let mut sim = Simulator::new(&g, ElectionNode::new);
    let schedule = Schedule::synchronous().with_fault_plan(FaultPlan::new(1).crash(3));
    sim.run(schedule).expect("quiesces (stalled, not livelocked)");
    for u in 0..7 {
        assert_eq!(sim.node(u).leader(), None, "node {u} must not declare a leader");
    }
}

#[test]
fn election_stalls_safely_when_messages_are_dropped() {
    // same fail-safe property under message loss: with every delivery
    // dropped nothing completes, and crucially nobody elects wrongly
    let g = generators::connected_gnp(12, 0.3, 2);
    let mut sim = Simulator::new(&g, ElectionNode::new);
    let schedule =
        Schedule::synchronous().with_fault_plan(FaultPlan::new(5).drop_probability(1.0));
    sim.run(schedule).expect("quiesces");
    for u in g.nodes() {
        // an isolated node (degree 0) would self-elect; connected_gnp
        // guarantees degree ≥ 1, so everyone waits forever
        assert_eq!(sim.node(u).leader(), None, "node {u} elected under total loss");
    }
}

#[test]
fn election_message_budget_matches_paper_assumption() {
    // the paper budgets O(n log n) messages for the election phase; on
    // random UDGs the echo-extinction election should stay within a
    // small multiple of n·log2(n)
    for &n in &[64usize, 256] {
        let side = (n as f64 * std::f64::consts::PI / 12.0).sqrt();
        let udg = (0..50)
            .find_map(|s| {
                let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, s), 1.0);
                traversal::is_connected(udg.graph()).then_some(udg)
            })
            .expect("connected deployment");
        let out = elect(udg.graph(), Schedule::synchronous());
        let budget = 12.0 * n as f64 * (n as f64).log2();
        assert!(
            (out.report.messages.total() as f64) < budget,
            "n = {n}: {} messages exceeds {budget}",
            out.report.messages.total()
        );
    }
}

#[test]
fn algo2_total_messages_scale_linearly() {
    let mut per_node = Vec::new();
    for &n in &[100usize, 400] {
        let side = (n as f64 * std::f64::consts::PI / 12.0).sqrt();
        let udg = (0..50)
            .find_map(|s| {
                let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, s), 1.0);
                traversal::is_connected(udg.graph()).then_some(udg)
            })
            .expect("connected deployment");
        let run = algo2::distributed::run_synchronous(udg.graph());
        per_node.push(run.report.messages.total() as f64 / n as f64);
    }
    // Theorem 12: O(n) messages ⇒ the per-node constant must not grow
    // appreciably when n quadruples
    assert!(
        per_node[1] < per_node[0] * 1.8 + 1.0,
        "per-node messages grew from {} to {}",
        per_node[0],
        per_node[1]
    );
}

#[test]
fn algo2_tolerates_duplicated_messages() {
    // every Algorithm II transition is idempotent (guarded inserts and
    // color checks), so duplicated deliveries must not change the MIS
    // or break validity
    let udg = UnitDiskGraph::build(deploy::uniform(70, 4.2, 4.2, 6), 1.0);
    if !traversal::is_connected(udg.graph()) {
        return;
    }
    let reference = algo2::distributed::run_synchronous(udg.graph());
    for seed in 0..5 {
        let schedule = Schedule::synchronous()
            .with_fault_plan(FaultPlan::new(seed).duplicate_probability(0.4));
        let run = algo2::distributed::run(udg.graph(), schedule);
        assert_eq!(
            run.result.wcds.mis_dominators(),
            reference.result.wcds.mis_dominators(),
            "seed {seed}: duplication changed the MIS"
        );
        assert!(run.result.wcds.is_valid(udg.graph()), "seed {seed}");
    }
}

#[test]
fn election_tolerates_duplicated_messages() {
    let g = generators::connected_gnp(25, 0.15, 3);
    for seed in 0..5 {
        let schedule = Schedule::synchronous()
            .with_fault_plan(FaultPlan::new(seed).duplicate_probability(0.5));
        let mut sim = Simulator::new(&g, ElectionNode::new);
        sim.run(schedule).expect("quiesces");
        for u in g.nodes() {
            assert_eq!(sim.node(u).leader(), Some(0), "seed {seed}, node {u}");
        }
    }
}

#[test]
fn protocols_are_confluent_under_adversarial_round_order() {
    // descending-id round processing must not change any outcome: the
    // MIS rule and the election are order-independent (confluent)
    let g = generators::connected_gnp(40, 0.1, 19);
    let normal = algo2::distributed::run(&g, Schedule::synchronous());
    let reversed = algo2::distributed::run(&g, Schedule::synchronous().with_descending_order());
    assert_eq!(
        normal.result.wcds.mis_dominators(),
        reversed.result.wcds.mis_dominators()
    );
    assert!(reversed.result.wcds.is_valid(&g));

    let out_n = elect(&g, Schedule::synchronous());
    let out_r = elect(&g, Schedule::synchronous().with_descending_order());
    assert_eq!(out_n.leader, out_r.leader);
    assert!(out_r.tree.spans(&g));
}

#[test]
fn algo2_independence_is_a_safety_invariant_not_just_a_postcondition() {
    // at NO point during the run may two adjacent nodes both be MIS
    // dominators — checked after every round / every event
    use wcds::core::algo2::distributed::{Algo2Node, NodeColor};

    let g = generators::connected_gnp(45, 0.1, 13);
    for schedule in [Schedule::synchronous(), Schedule::asynchronous(3)] {
        let mut sim = Simulator::new(&g, |_| Algo2Node::new());
        let g2 = g.clone();
        sim.run_inspected(schedule, move |time, nodes| {
            for u in g2.nodes() {
                if nodes[u].color() != NodeColor::MisDominator {
                    continue;
                }
                for v in g2.adj(u) {
                    if v > u && nodes[v].color() == NodeColor::MisDominator {
                        return Err(format!("adjacent dominators {u},{v} at time {time}"));
                    }
                }
            }
            Ok(())
        })
        .expect("independence must hold throughout the run");
    }
}

#[test]
fn election_never_has_two_leaders_at_any_instant() {
    let g = generators::connected_gnp(30, 0.12, 17);
    for seed in 0..6 {
        let mut sim = Simulator::new(&g, ElectionNode::new);
        sim.run_inspected(Schedule::asynchronous(seed), |time, nodes| {
            let leaders: Vec<u64> =
                nodes.iter().filter_map(|n| n.leader()).collect();
            if leaders.iter().any(|&l| l != 0) {
                return Err(format!("wrong leader believed at time {time}: {leaders:?}"));
            }
            Ok(())
        })
        .expect("agreement must hold throughout");
    }
}

#[test]
fn inspector_abort_is_reported() {
    use wcds::sim::SimError;
    let g = generators::path(4);
    let mut sim = Simulator::new(&g, ElectionNode::new);
    let err = sim
        .run_inspected(Schedule::synchronous(), |time, _| {
            if time >= 2 {
                Err("stop here".into())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
    assert!(matches!(err, SimError::InvariantViolated { time: 2, .. }), "{err:?}");
}

#[test]
fn marking_phase_is_exactly_one_message_per_node_at_scale() {
    let g = generators::connected_gnp(200, 0.025, 9);
    let run = algo1::distributed::run_synchronous(&g);
    assert_eq!(run.marking_report.messages.total(), 200);
    assert_eq!(run.marking_report.messages.max_per_node(), 1);
    assert_eq!(
        run.marking_report.messages.of_kind("BLACK") as usize,
        run.result.wcds.len()
    );
    assert_eq!(
        run.marking_report.messages.of_kind("GRAY") as usize,
        200 - run.result.wcds.len()
    );
}

// ---------------------------------------------------------------------
// golden digests: every `SimReport` field and every protocol's final
// output, pinned so a scheduler rewrite must replay the same runs

/// FNV-1a (64-bit) over the bytes fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usizes(&mut self, vs: impl IntoIterator<Item = usize>) {
        let mut len = 0u64;
        for v in vs {
            self.u64(v as u64);
            len += 1;
        }
        self.u64(len);
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Trace capacity that covers every golden run.
const GOLDEN_TRACE: usize = 1 << 22;

fn digest_report(h: &mut Fnv, report: &wcds::sim::SimReport, n: usize) {
    assert_eq!(report.trace.overflow(), 0, "golden trace capacity too small");
    h.u64(report.time);
    h.u64(report.rounds);
    h.u64(report.events);
    h.usizes((0..n).map(|u| report.messages.sent_by(u) as usize));
    for (kind, count) in report.messages.kinds() {
        h.str(kind);
        h.u64(count);
        h.u64(report.messages.payload_of_kind(kind));
    }
    h.u64(report.messages.deliveries());
    h.str(&report.trace.to_string());
}

fn digest_algo2_node(h: &mut Fnv, node: &algo2::distributed::Algo2Node) {
    h.u64(node.color() as u64);
    h.usizes(node.one_hop_doms());
    h.usizes(node.two_hop_doms().flat_map(|(d, v)| [d, v]));
    h.usizes(node.three_hop_doms().flat_map(|(d, (v, x))| [d, v, x]));
}

fn digest_algo2_run(g: &wcds::graph::Graph, schedule: Schedule) -> u64 {
    let run = algo2::distributed::run(g, schedule);
    let mut h = Fnv::new();
    digest_report(&mut h, &run.report, g.node_count());
    for (color, info) in run.colors.iter().zip(&run.node_infos) {
        h.u64(*color as u64);
        h.usizes(info.one_hop_doms.iter().copied());
        h.usizes(info.two_hop_doms.iter().flat_map(|&(d, v)| [d, v]));
        h.usizes(info.three_hop_doms.iter().flat_map(|&(d, v, x)| [d, v, x]));
    }
    h.0
}

/// `run` asserts that every node decided, which a lossy plan may
/// break, so the fault runs drive the simulator directly.
fn digest_algo2_faulty(g: &wcds::graph::Graph, schedule: Schedule) -> u64 {
    use wcds::core::algo2::distributed::Algo2Node;
    let mut sim = Simulator::new(g, |_| Algo2Node::new());
    let report = sim.run(schedule).expect("quiesces under faults");
    let mut h = Fnv::new();
    digest_report(&mut h, &report, g.node_count());
    for node in sim.nodes() {
        digest_algo2_node(&mut h, node);
    }
    h.0
}

fn digest_algo1(g: &wcds::graph::Graph, make: impl FnMut() -> Schedule) -> u64 {
    let run = algo1::distributed::run_with(g, make);
    let mut h = Fnv::new();
    for report in [&run.election_report, &run.level_report, &run.marking_report] {
        digest_report(&mut h, report, g.node_count());
    }
    h.u64(run.leader as u64);
    h.usizes(g.nodes().map(|u| run.tree.parent(u).map_or(usize::MAX, |p| p)));
    h.usizes(run.result.wcds.nodes().iter().copied());
    h.0
}

fn digest_election(g: &wcds::graph::Graph, schedule: Schedule) -> u64 {
    let out = elect(g, schedule);
    let mut h = Fnv::new();
    digest_report(&mut h, &out.report, g.node_count());
    h.u64(out.leader as u64);
    h.usizes(g.nodes().map(|u| out.tree.parent(u).map_or(usize::MAX, |p| p)));
    h.0
}

fn digest_routing(g: &wcds::graph::Graph, schedule: impl Fn() -> Schedule) -> u64 {
    use wcds::routing::RoutingStack;
    let run = algo2::distributed::run(g, schedule());
    let mut stack = RoutingStack::build(g, &run, &schedule);
    let n = g.node_count();
    let pairs: Vec<(usize, usize)> = (0..12).map(|i| ((i * 37) % n, (i * 101 + 7) % n)).collect();
    let (deliveries, report) = stack.send_packets(&pairs, schedule());
    let mut h = Fnv::new();
    for setup in &stack.setup_reports {
        digest_report(&mut h, setup, n);
    }
    digest_report(&mut h, &report, n);
    h.usizes(stack.lsa_counts().into_iter().flat_map(|(u, c)| [u, c]));
    h.usizes(deliveries.iter().flat_map(|d| [d.src, d.dst, d.hops as usize]));
    h.0
}

fn digest_broadcast(g: &wcds::graph::Graph, schedule: Schedule) -> u64 {
    use wcds::core::algo2::AlgorithmTwo;
    use wcds::core::WcdsConstruction;
    use wcds::routing::BroadcastPlan;
    let built = AlgorithmTwo::new().construct(g);
    let plan = BroadcastPlan::for_backbone(&built.spanner, &built.wcds);
    let (out, report) = plan.run_distributed(g, 3, schedule);
    let mut h = Fnv::new();
    digest_report(&mut h, &report, g.node_count());
    h.u64(u64::from(out.full_coverage));
    h.u64(out.transmissions as u64);
    h.usizes(out.uncovered.iter().copied());
    h.0
}

/// Three motion steps of the MIS maintenance protocol. `schedule`
/// `None` goes through `DynamicBackbone::apply_motion` (synchronous);
/// `Some` drives the same protocol on the simulator with that schedule.
fn digest_maintenance(schedule: Option<fn(u64) -> Schedule>) -> u64 {
    use wcds::core::maintenance::distributed::{DynamicBackbone, MaintNode};
    use wcds::core::mis::{greedy_mis, RankingMode};
    let start = deploy::uniform(90, 4.5, 4.5, 3);
    let step_moves = |step: u64| -> Vec<(usize, wcds::geom::Point)> {
        deploy::uniform(6, 4.5, 4.5, 100 + step)
            .into_iter()
            .enumerate()
            .map(|(i, p)| ((i * 13 + step as usize * 5) % 90, p))
            .collect()
    };
    let mut h = Fnv::new();
    match schedule {
        None => {
            let mut net = DynamicBackbone::new(start, 1.0);
            for step in 0..3 {
                let repair = net.apply_motion(&step_moves(step)).expect("repair quiesces");
                digest_report(&mut h, &repair.report, net.graph().node_count());
                h.usizes(repair.active_nodes.iter().copied());
                h.u64(repair.activity_radius.map_or(u64::MAX, u64::from));
                h.usizes(net.mis());
            }
        }
        Some(make) => {
            let mut points = start;
            let udg = UnitDiskGraph::build(points.clone(), 1.0);
            let g = udg.graph();
            let mis = g.membership(&greedy_mis(g, RankingMode::StaticId));
            let mut sim = Simulator::new(g, |u| {
                let adj_doms = g.adj(u).filter(|&v| mis[v]).collect();
                MaintNode::new(mis[u], adj_doms, g.adj(u).collect())
            });
            for step in 0..3 {
                for (u, p) in step_moves(step) {
                    points[u] = p;
                }
                let udg = UnitDiskGraph::build(points.clone(), 1.0);
                sim.set_topology(udg.graph());
                let report = sim.run(make(step)).expect("repair quiesces");
                digest_report(&mut h, &report, points.len());
                h.usizes((0..points.len()).filter(|&u| sim.node(u).is_dominator()));
            }
        }
    }
    h.0
}

/// The first `count` connected uniform deployments of `n` nodes on a
/// `side × side` field, by ascending seed.
fn connected_udgs(n: usize, side: f64, count: usize) -> Vec<UnitDiskGraph> {
    (0..)
        .map(|seed| UnitDiskGraph::build(deploy::uniform(n, side, side, seed), 1.0))
        .filter(|udg| traversal::is_connected(udg.graph()))
        .take(count)
        .collect()
}

#[test]
fn simulator_output_matches_golden_digests() {
    let mut got: Vec<(String, u64)> = Vec::new();
    let udgs = connected_udgs(300, 8.0, 2);
    for (i, udg) in udgs.iter().enumerate() {
        let g = udg.graph();
        let trace = |s: Schedule| s.with_trace(GOLDEN_TRACE);
        got.push((format!("algo2 g{i} sync"), digest_algo2_run(g, trace(Schedule::synchronous()))));
        got.push((
            format!("algo2 g{i} sync descending"),
            digest_algo2_run(g, trace(Schedule::synchronous().with_descending_order())),
        ));
        for seed in [1, 2, 3] {
            for max_delay in [1, 8] {
                let s = Schedule::asynchronous(seed).with_max_delay(max_delay);
                got.push((
                    format!("algo2 g{i} async seed {seed} delay {max_delay}"),
                    digest_algo2_run(g, trace(s)),
                ));
            }
        }
        let faults =
            || FaultPlan::new(11).drop_probability(0.1).duplicate_probability(0.1).crash(5);
        got.push((
            format!("algo2 g{i} faults sync"),
            digest_algo2_faulty(g, trace(Schedule::synchronous().with_fault_plan(faults()))),
        ));
        got.push((
            format!("algo2 g{i} faults async"),
            digest_algo2_faulty(g, trace(Schedule::asynchronous(4).with_fault_plan(faults()))),
        ));
    }

    let small = connected_udgs(120, 5.0, 1);
    let g = small[0].graph();
    let sync = || Schedule::synchronous().with_trace(GOLDEN_TRACE);
    let mut phase = 0;
    let mut async_phase = move || {
        phase += 1;
        Schedule::asynchronous(20 + phase).with_trace(GOLDEN_TRACE)
    };
    let async5 = || Schedule::asynchronous(5).with_trace(GOLDEN_TRACE);
    got.push(("algo1 sync".into(), digest_algo1(g, sync)));
    got.push(("algo1 async".into(), digest_algo1(g, &mut async_phase)));
    got.push(("election sync".into(), digest_election(g, sync())));
    got.push(("election async".into(), digest_election(g, async5())));
    got.push(("routing sync".into(), digest_routing(g, sync)));
    got.push(("routing async".into(), digest_routing(g, async5)));
    got.push(("broadcast sync".into(), digest_broadcast(g, sync())));
    got.push(("broadcast async".into(), digest_broadcast(g, async5())));
    got.push(("maintenance sync".into(), digest_maintenance(None)));
    got.push((
        "maintenance async".into(),
        digest_maintenance(Some(|step| {
            Schedule::asynchronous(30 + step).with_trace(GOLDEN_TRACE)
        })),
    ));

    let got: Vec<String> = got.iter().map(|(name, d)| format!("{name}: {d:#018x}")).collect();
    let expected: Vec<String> = GOLDEN.iter().map(|(name, d)| format!("{name}: {d:#018x}")).collect();
    assert_eq!(got, expected);
}

/// Digests recorded before the simulator's event calendar replaced its
/// heap and round scan; any change to a schedule's event order, a
/// report field or a protocol's output changes one of them.
const GOLDEN: [(&str, u64); 30] = [
    ("algo2 g0 sync", 0x84026e3f0213ab08),
    ("algo2 g0 sync descending", 0xd7374be3e13877bc),
    ("algo2 g0 async seed 1 delay 1", 0x4036a9b0968cdc2f),
    ("algo2 g0 async seed 1 delay 8", 0x99dd2797c681a1c0),
    ("algo2 g0 async seed 2 delay 1", 0x4036a9b0968cdc2f),
    ("algo2 g0 async seed 2 delay 8", 0xfef13a33a308cd7f),
    ("algo2 g0 async seed 3 delay 1", 0x4036a9b0968cdc2f),
    ("algo2 g0 async seed 3 delay 8", 0x6fe5bcd3413ccd0a),
    ("algo2 g0 faults sync", 0x217dbc62dcc8210c),
    ("algo2 g0 faults async", 0x161121c48cc93694),
    ("algo2 g1 sync", 0x8507135bbb40015e),
    ("algo2 g1 sync descending", 0x478652b08c4db04c),
    ("algo2 g1 async seed 1 delay 1", 0xb78b47b5b75bdb82),
    ("algo2 g1 async seed 1 delay 8", 0x85c1631fef612ab3),
    ("algo2 g1 async seed 2 delay 1", 0xb78b47b5b75bdb82),
    ("algo2 g1 async seed 2 delay 8", 0xd033ed2e8d0b2ea2),
    ("algo2 g1 async seed 3 delay 1", 0xb78b47b5b75bdb82),
    ("algo2 g1 async seed 3 delay 8", 0x45df4e623a15f67a),
    ("algo2 g1 faults sync", 0x5b8e199bc39b75a9),
    ("algo2 g1 faults async", 0xa3ffca798d466014),
    ("algo1 sync", 0xd6df1ffbd971812d),
    ("algo1 async", 0x343155043ddb315f),
    ("election sync", 0x126a751592b34574),
    ("election async", 0x75cefd9148995a3c),
    ("routing sync", 0x3df9290747fb0b80),
    ("routing async", 0x27ed20e933da39b8),
    ("broadcast sync", 0xd583724d05a5fece),
    ("broadcast async", 0x4e703d88ec257a08),
    ("maintenance sync", 0x4c500c09ef5264f6),
    ("maintenance async", 0xef9f977643765e69),
];
