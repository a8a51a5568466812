//! Seeded workload plans: the exact request stream each workload sends.
//!
//! A plan is a pool of distinct requests plus the order in which the
//! closed loop sends them. Everything here is a pure function of the
//! workload name and the seed, so the same seed renders byte-identical
//! request bytes (pinned by `tests/plan.rs`). The data — catalogs, the
//! `browse` shape pool, the simulated cohorts — is fixed (see
//! [`DATASET_SEED`]); the seed picks the traffic over it.

use std::collections::HashSet;

use coursenav_catalog::{
    CourseSet, InstitutionConfig, Semester, SyntheticCatalog, SyntheticConfig, SyntheticInstitution,
};
use coursenav_navigator::WhatIfRequest;
use coursenav_registrar::{brandeis_cs, write_registrar_file, RegistrarData};
use coursenav_transcript::policy::{
    GreedyCorePolicy, ProcrastinatorPolicy, RandomValidPolicy, SelectionPolicy,
    WorkloadAversePolicy,
};
use coursenav_transcript::TranscriptSimulator;

/// Every workload the benchmark knows, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["browse", "explore-engine", "advise-whatif"];

/// Bases (each asked in several modes) an `explore-engine` plan holds.
const MAX_ENGINE_BASES: usize = 48_000;

/// `explore-engine` bases per block of its fixed base order; the seed
/// reorders the bases within each block.
const BASE_BLOCK: usize = 32;

/// The department tenants `browse` spreads over (`D00`..`D07`).
const BROWSE_DEPARTMENTS: usize = 8;

/// The request kinds the benchmark sends, one per timed route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// `POST /v1/explore`, unpaged or paged.
    Explore,
    /// `POST /v1/explore/stream` (chunked NDJSON, closes the connection).
    Stream,
    /// `POST /v1/advise`.
    Advise,
    /// `POST /v1/whatif`.
    Whatif,
    /// `PUT /v1/catalogs/{tenant}`: a catalog hot swap.
    Swap,
}

impl Op {
    /// The route family the end-to-end medians are reported under.
    pub fn family(self) -> &'static str {
        match self {
            Op::Explore | Op::Stream => "explore",
            Op::Advise => "advise",
            Op::Whatif => "whatif",
            Op::Swap => "swap",
        }
    }
}

/// One interaction: a request, plus its follow-up pages when `paged`.
#[derive(Debug, Clone)]
pub struct Item {
    /// What the request asks.
    pub op: Op,
    /// Sent as the `x-tenant` header (or, for swaps, the path segment).
    pub tenant: Option<String>,
    /// The JSON request body, or the registrar text of a swap.
    pub body: String,
    /// Whether the client follows `next_cursor` until the last page.
    pub paged: bool,
}

/// A catalog the workload registers over `PUT /v1/catalogs/{name}`.
pub struct TenantFixture {
    /// Tenant name.
    pub name: String,
    /// The registrar text sent as the `PUT` body.
    pub text: String,
}

/// A workload's complete seeded input.
pub struct Plan {
    /// Workload name.
    pub workload: &'static str,
    /// The seed the plan was generated from.
    pub seed: u64,
    /// Tenants registered during set-up, in order.
    pub tenants: Vec<TenantFixture>,
    /// Distinct interactions.
    pub items: Vec<Item>,
    /// Send order, as indices into `items`.
    pub order: Vec<u32>,
    /// How many interactions the traced replay covers (a fixed prefix
    /// of `order`, so per-layer counts repeat exactly for a seed).
    pub trace_len: usize,
    /// Keep-alive connections the closed loop uses (capped at `nproc`).
    pub clients: usize,
    /// Interactions sent before the closed loop starts measuring: enough
    /// that the cold start (memo tables filling, DAG builds) is over.
    /// Counted in interactions rather than seconds, so that every run
    /// measures from the same point of the plan however fast the host.
    pub warmup: usize,
}

impl Plan {
    /// Generates the plan for `workload` from `seed`.
    pub fn generate(workload: &str, seed: u64) -> Result<Plan, String> {
        let gen = Gen::new(seed);
        let plan = match workload {
            "browse" => gen.browse(),
            "explore-engine" => gen.explore_engine(),
            "advise-whatif" => gen.advise_whatif(),
            other => {
                return Err(format!(
                    "unknown workload {other:?} (expected one of {WORKLOADS:?})"
                ))
            }
        };
        Ok(plan)
    }

    /// The interaction sent `n`-th.
    pub fn item(&self, n: usize) -> &Item {
        &self.items[self.order[n] as usize]
    }
}

/// The exact bytes of one HTTP/1.1 request for `item`, resuming from
/// `cursor` when following a paged session.
pub fn http_request(item: &Item, cursor: Option<&str>) -> Vec<u8> {
    let body = with_cursor(&item.body, cursor);
    let (method, path) = match item.op {
        Op::Explore => ("POST", "/v1/explore".to_string()),
        Op::Stream => ("POST", "/v1/explore/stream".to_string()),
        Op::Advise => ("POST", "/v1/advise".to_string()),
        Op::Whatif => ("POST", "/v1/whatif".to_string()),
        Op::Swap => (
            "PUT",
            format!(
                "/v1/catalogs/{}",
                item.tenant.as_deref().expect("a swap names its tenant")
            ),
        ),
    };
    let tenant = match (&item.tenant, item.op) {
        (Some(t), op) if op != Op::Swap => format!("x-tenant: {t}\r\n"),
        _ => String::new(),
    };
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\n{tenant}content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body.as_bytes());
    raw
}

/// `body` with a `"cursor"` field appended (a JSON object's last `}`).
fn with_cursor(body: &str, cursor: Option<&str>) -> String {
    match cursor {
        None => body.to_string(),
        Some(token) => {
            let open = body.trim_end().strip_suffix('}').expect("JSON object body");
            format!("{open},\"cursor\":\"{token}\"}}")
        }
    }
}

/// SplitMix64: a tiny, stable generator, so request streams never depend
/// on a library's sampling algorithm.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What an exploration produces.
#[derive(Clone, Copy)]
enum Output {
    Count,
    Collect(usize),
    TopK(usize, &'static str),
}

/// One exploration request, before spelling.
#[derive(Clone)]
struct Shape {
    start: Semester,
    completed: Vec<String>,
    deadline: Semester,
    m: usize,
    degree_goal: bool,
    output: Output,
    page_size: Option<usize>,
    workload_cap: Option<u32>,
}

/// Renders `shape` as an exploration request body. `scrambled` picks the
/// reordered-but-equivalent spelling (fields and course list reversed),
/// which canonicalizes to the same cache key.
fn explore_json(shape: &Shape, tenant_field: Option<&str>, scrambled: bool) -> String {
    let mut completed = shape.completed.clone();
    if scrambled {
        completed.reverse();
    }
    let mut fields = vec![
        format!("\"start-semester\":\"{}\"", shape.start),
        format!("\"deadline\":\"{}\"", shape.deadline),
        format!("\"max-per-semester\":{}", shape.m),
        format!("\"completed\":{}", json_strings(&completed)),
    ];
    if shape.degree_goal {
        fields.push("\"goal\":\"degree\"".into());
    }
    match shape.output {
        Output::Count => fields.push("\"output\":\"count\"".into()),
        Output::Collect(limit) => {
            fields.push(format!("\"output\":{{\"collect\":{{\"limit\":{limit}}}}}"))
        }
        Output::TopK(k, ranking) => {
            fields.push(format!("\"ranking\":\"{ranking}\""));
            fields.push(format!("\"output\":{{\"top-k\":{{\"k\":{k}}}}}"));
        }
    }
    if let Some(cap) = shape.workload_cap {
        fields.push(format!("\"max-semester-workload\":{cap}"));
    }
    if let Some(size) = shape.page_size {
        fields.push(format!("\"page-size\":{size}"));
    }
    if let Some(t) = tenant_field {
        fields.push(format!("\"tenant\":\"{t}\""));
    }
    if scrambled {
        fields.reverse();
    }
    format!("{{{}}}", fields.join(","))
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(","))
}

fn advise_json(
    start: Semester,
    selections: &[Vec<String>],
    deadline: Semester,
    k: usize,
) -> String {
    let semesters: Vec<String> = selections.iter().map(|s| json_strings(s)).collect();
    format!(
        "{{\"transcript\":{{\"start\":\"{start}\",\"selections\":[{}]}},\
         \"deadline\":\"{deadline}\",\"goal\":\"degree\",\"k\":{k}}}",
        semesters.join(",")
    )
}

/// A what-if delta: courses to avoid, courses to force, a workload cap.
#[derive(Clone, Default)]
struct Delta {
    avoid: Vec<String>,
    force: Vec<String>,
    cap: Option<u32>,
}

fn whatif_json(base: &Shape, delta: &Delta) -> String {
    let mut fields = Vec::new();
    if !delta.avoid.is_empty() {
        fields.push(format!("\"avoid\":{}", json_strings(&delta.avoid)));
    }
    if !delta.force.is_empty() {
        fields.push(format!("\"force\":{}", json_strings(&delta.force)));
    }
    if let Some(cap) = delta.cap {
        fields.push(format!("\"max-semester-workload\":{cap}"));
    }
    format!(
        "{{\"base\":{},\"delta\":{{{}}}}}",
        explore_json(base, None, false),
        fields.join(",")
    )
}

/// Course codes of a set, in catalog order.
fn codes(data: &RegistrarData, set: &CourseSet) -> Vec<String> {
    set.iter()
        .map(|id| data.catalog.course(id).code().to_string())
        .collect()
}

/// The code of the `i`-th course in catalog order.
fn course_at(data: &RegistrarData, i: usize) -> String {
    data.catalog
        .courses()
        .nth(i)
        .expect("index within the catalog")
        .code()
        .to_string()
}

/// A seeded student cohort over `data`: per-semester course codes.
fn cohort(data: &RegistrarData, students: usize, seed: u64) -> Vec<Vec<Vec<String>>> {
    let degree = data.degree.as_ref().expect("the catalog declares a degree");
    let sim = TranscriptSimulator::new(&data.catalog, degree, data.horizon.0, data.horizon.1, 3);
    let procrastinator = ProcrastinatorPolicy {
        skip_probability: 0.3,
        diligent: GreedyCorePolicy,
    };
    let averse = WorkloadAversePolicy { max_hours: 30.0 };
    let policies: [&dyn SelectionPolicy; 4] = [
        &GreedyCorePolicy,
        &RandomValidPolicy,
        &procrastinator,
        &averse,
    ];
    sim.simulate_cohort(&policies, students, seed)
        .iter()
        .map(|t| t.selections().iter().map(|s| codes(data, s)).collect())
        .collect()
}

/// The department catalogs: a fixed eight-department synthetic
/// institution, each department exported as registrar text.
fn department_tenants() -> Vec<TenantFixture> {
    let institution = SyntheticInstitution::generate(&InstitutionConfig {
        departments: BROWSE_DEPARTMENTS,
        courses_per_department: 40,
        ..InstitutionConfig::default()
    });
    institution
        .departments
        .iter()
        .map(|d| TenantFixture {
            name: d.name.clone(),
            text: write_registrar_file(&d.catalog, Some(&d.degree), (d.start, d.end)),
        })
        .collect()
}

/// The `advise-whatif` base catalog: a sparse paper-shaped synthetic
/// catalog, big enough that a path-DAG build over a six- or
/// seven-semester base costs tens of milliseconds to ~150 ms while each
/// apply over it stays near a millisecond.
fn whatif_tenant() -> TenantFixture {
    let synth = SyntheticCatalog::generate(&SyntheticConfig::sparse());
    TenantFixture {
        name: "synth".into(),
        text: write_registrar_file(
            &synth.catalog,
            Some(&synth.degree),
            (synth.start, synth.end),
        ),
    }
}

/// Parses a fixture the way the server's `PUT` handler does.
pub(crate) fn parse_fixture(t: &TenantFixture) -> RegistrarData {
    coursenav_registrar::parse_registrar_file(&t.text).expect("generated catalogs parse")
}

/// Seeds the fixed datasets: the browse shape pool and the simulated
/// cohorts. The workload seed picks the traffic over them (order, mix,
/// spellings, output parameters), so runs with different seeds stress
/// the same data in different sequences.
const DATASET_SEED: u64 = 0x00C0_FFEE;

struct Gen {
    /// Traffic decisions, from the workload seed.
    rng: Rng,
    /// Dataset decisions, from [`DATASET_SEED`].
    fixed: Rng,
    seed: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: Rng(seed ^ 0x5EED_C0DE_0B5E_55ED),
            fixed: Rng(DATASET_SEED),
            seed,
        }
    }

    fn finish(
        self,
        workload: &'static str,
        tenants: Vec<TenantFixture>,
        items: Vec<Item>,
        order: Vec<u32>,
        trace_len: usize,
        warmup: usize,
    ) -> Plan {
        Plan {
            workload,
            seed: self.seed,
            tenants,
            items,
            order,
            trace_len,
            // One student browsing: with two connections a cache hit that
            // lands next to a millisecond miss waits for a CPU on a 2-vCPU
            // host, and that wait, not the server, set the p99. Two
            // concurrent students elsewhere, whose engine work overlaps.
            clients: if workload == "browse" { 1 } else { 2 },
            warmup,
        }
    }

    /// Zipf-skewed reads over a fixed pool of shallow shapes across the
    /// brandeis default tenant and eight department tenants, in two
    /// spellings each, with a catalog hot swap every ~200 requests.
    fn browse(mut self) -> Plan {
        let departments = department_tenants();
        let mut catalogs: Vec<(Option<String>, RegistrarData)> = vec![(None, brandeis_cs())];
        for t in &departments {
            catalogs.push((Some(t.name.clone()), parse_fixture(t)));
        }
        // The shape pool: shallow explorations, about 1 ms of engine each.
        let mut shapes: Vec<(Option<String>, Shape)> = Vec::new();
        for (tenant, data) in &catalogs {
            let intro: Vec<String> = data
                .catalog
                .courses()
                .filter(|c| c.prereq_satisfied(&CourseSet::new()))
                .map(|c| c.code().to_string())
                .collect();
            for _ in 0..7 {
                let mut done = intro.clone();
                self.fixed.shuffle(&mut done);
                done.truncate(self.fixed.below(3.min(intro.len()) + 1));
                let output = match self.fixed.below(3) {
                    0 => Output::Count,
                    1 => Output::Collect(3 + self.fixed.below(6)),
                    _ => Output::TopK(1 + self.fixed.below(4), "time"),
                };
                // Top-k ranks goal paths, so it needs the degree goal; a
                // collect is goal-driven too, so its short listing is the
                // complete answer (a limit-capped listing is marked
                // truncated, and the server never caches those).
                let degree_goal = !matches!(output, Output::Count) || self.fixed.chance(0.5);
                shapes.push((
                    tenant.clone(),
                    Shape {
                        start: data.horizon.0,
                        completed: done,
                        deadline: data.horizon.0 + 2,
                        m: 2,
                        degree_goal,
                        output,
                        page_size: None,
                        workload_cap: None,
                    },
                ));
            }
        }
        self.fixed.shuffle(&mut shapes);
        // Zipf rank r owns items 2r and 2r+1: the canonical spelling
        // addressed by header, and a scrambled twin addressed in the body.
        let mut items = Vec::new();
        for (tenant, shape) in &shapes {
            items.push(explore(tenant.clone(), explore_json(shape, None, false)));
            let named = tenant.as_deref().unwrap_or("default");
            items.push(explore(None, explore_json(shape, Some(named), true)));
        }
        let zipf = Zipf::new(shapes.len(), 1.1);
        let swaps = items.len();
        for t in &departments {
            items.push(Item {
                op: Op::Swap,
                tenant: Some(t.name.clone()),
                body: t.text.clone(),
                paged: false,
            });
        }
        let side = items.len();
        items.extend(self.browse_side(&catalogs));
        let order = (0..1_000_000)
            .map(|_| {
                let roll = self.rng.unit();
                let idx = if roll < 1.0 / 200.0 {
                    swaps + self.rng.below(departments.len())
                } else if roll < 0.04 {
                    side + self.rng.below(items.len() - side)
                } else {
                    2 * zipf.sample(&mut self.rng) + self.rng.below(2)
                };
                idx as u32
            })
            .collect();
        // The first ~2 s of a run are faster than the rest on a 2-core
        // host: 20k interactions pass them.
        self.finish("browse", departments, items, order, 60_000, 20_000)
    }

    /// The fixed pages a browsing student revisits besides explorations:
    /// advice and what-ifs on department tenants, and paged and streamed
    /// listings on the default tenant (never swapped, so no cursor is
    /// ever orphaned by a swap between pages).
    fn browse_side(&mut self, catalogs: &[(Option<String>, RegistrarData)]) -> Vec<Item> {
        let mut items = Vec::new();
        for (i, (tenant, data)) in catalogs.iter().enumerate().skip(1).take(4) {
            let students = cohort(data, 1, DATASET_SEED + i as u64);
            items.push(Item {
                op: Op::Advise,
                tenant: tenant.clone(),
                body: advise_json(data.horizon.0, &students[0][..1], data.horizon.0 + 3, 3),
                paged: false,
            });
            let base = Shape {
                start: data.horizon.0,
                completed: Vec::new(),
                deadline: data.horizon.0 + 2,
                m: 2,
                degree_goal: true,
                output: Output::Count,
                page_size: None,
                workload_cap: None,
            };
            // Two deltas per base: one DAG build, then warm applies.
            for _ in 0..2 {
                let avoid = vec![course_at(data, self.fixed.below(data.catalog.len()))];
                items.push(Item {
                    op: Op::Whatif,
                    tenant: tenant.clone(),
                    body: whatif_json(
                        &base,
                        &Delta {
                            avoid,
                            ..Delta::default()
                        },
                    ),
                    paged: false,
                });
            }
        }
        let h0 = catalogs[0].1.horizon.0;
        for limit in [12, 20] {
            let listing = Shape {
                start: h0,
                completed: Vec::new(),
                deadline: h0 + 2,
                m: 2,
                degree_goal: false,
                output: Output::Collect(limit),
                page_size: Some(5),
                workload_cap: None,
            };
            items.push(Item {
                op: Op::Explore,
                tenant: None,
                body: explore_json(&listing, None, false),
                paged: true,
            });
            let streamed = Shape {
                page_size: None,
                ..listing
            };
            items.push(Item {
                op: Op::Stream,
                tenant: None,
                body: explore_json(&streamed, None, false),
                paged: false,
            });
        }
        items
    }

    /// Cache-busting engine work on brandeis: every request has its own
    /// cache key, and each exploration tree is asked in several output
    /// modes (plus paged and streamed listings, advice and what-ifs over
    /// the same bases).
    fn explore_engine(mut self) -> Plan {
        let data = brandeis_cs();
        let h0 = data.horizon.0;
        let bystander = department_tenants().swap_remove(0);
        // Distinct transcript prefixes of a simulated cohort, by semesters
        // taken (1–4).
        let mut prefixes: Vec<Vec<Vec<Vec<String>>>> = vec![Vec::new(); 5];
        let mut sets = HashSet::new();
        for selections in &cohort(&data, 24_000, DATASET_SEED) {
            for j in 1..=selections.len().min(4) {
                let mut set = selections[..j].concat();
                set.sort();
                if sets.insert(set) {
                    prefixes[j].push(selections[..j].to_vec());
                }
            }
        }
        // The trees (memo keys): deadline Fall 2014 or Spring 2015,
        // per-semester cap 2 or 3, no workload cap or one of five.
        let mut trees = Vec::new();
        for semesters in [4, 5] {
            for m in [2, 3] {
                for cap in [None, Some(38), Some(41), Some(44), Some(47), Some(50)] {
                    trees.push((semesters, m, cap));
                }
            }
        }
        // Per semesters taken, every (prefix, tree) pair that leaves at
        // least one semester. Each base step takes the next pair of the
        // next level round-robin, so every stretch of the plan weighs the
        // early (expensive) and late (cheap) students equally; a level
        // that runs out starts over with fresh output parameters. The
        // pairs' order is part of the fixed data, and the seed only
        // reorders them within blocks of [`BASE_BLOCK`]: a base's cost
        // ranges over two orders of magnitude, so with a seeded order a
        // run's figures would depend on which bases it happened to reach.
        let mut levels: Vec<Vec<(usize, usize)>> = (1..=4)
            .map(|j| {
                (0..prefixes[j].len())
                    .flat_map(|p| (0..trees.len()).map(move |t| (p, t)))
                    .filter(|&(_, t)| trees[t].0 > j as i32)
                    .collect()
            })
            .collect();
        for pairs in &mut levels {
            self.deal(pairs);
        }
        let mut cursor = vec![0usize; levels.len()];
        let mut seen = HashSet::new();
        let mut items = Vec::new();
        for step in 0..MAX_ENGINE_BASES {
            let level = step % levels.len();
            if cursor[level] == levels[level].len() {
                self.deal(&mut levels[level]);
                cursor[level] = 0;
            }
            let (p, t) = levels[level][cursor[level]];
            cursor[level] += 1;
            let transcript = &prefixes[level + 1][p];
            let (semesters, m, cap) = trees[t];
            // Sorted, so a course set is spelled the same whatever order
            // the transcript listed it in.
            let mut completed = transcript.concat();
            completed.sort();
            let base = Shape {
                start: h0 + transcript.len() as i32,
                completed,
                deadline: h0 + semesters,
                m,
                degree_goal: true,
                output: Output::Count,
                page_size: None,
                workload_cap: cap,
            };
            self.engine_batch(&data, &base, transcript, &mut seen, &mut items);
            if self.rng.chance(0.02) {
                items.push(Item {
                    op: Op::Swap,
                    tenant: Some(bystander.name.clone()),
                    body: bystander.text.clone(),
                    paged: false,
                });
            }
        }
        let order = (0..items.len() as u32).collect();
        // The trees' memo tables fill for ~20k interactions (~10 s on a
        // 2-core host), and the requests get cheaper until they have:
        // throughput rises from ~1.5k to ~3k requests per second.
        self.finish("explore-engine", vec![bystander], items, order, 400, 20_000)
    }

    /// Orders `pairs` for the next pass of the plan over them: a fixed
    /// shuffle, then a seeded one within each block of [`BASE_BLOCK`].
    fn deal(&mut self, pairs: &mut [(usize, usize)]) {
        self.fixed.shuffle(pairs);
        for block in pairs.chunks_mut(BASE_BLOCK) {
            self.rng.shuffle(block);
        }
    }

    /// One base asked in every output mode (in seeded order), plus a
    /// seeded share of paged and streamed listings, advice and what-ifs.
    /// Requests whose canonical form was asked before are skipped, so no
    /// request repeats a cache key.
    fn engine_batch(
        &mut self,
        data: &RegistrarData,
        base: &Shape,
        transcript: &[Vec<String>],
        seen: &mut HashSet<String>,
        items: &mut Vec<Item>,
    ) {
        let mut push = |key: String, item: Item| {
            if seen.insert(key) {
                items.push(item);
            }
        };
        let mut modes = vec![
            Output::Count,
            Output::Collect(10 + self.rng.below(50)),
            Output::TopK(1 + self.rng.below(10), "time"),
            Output::TopK(1 + self.rng.below(10), "reliability"),
        ];
        // The workload ranking is not suffix-decomposable, so its top-k
        // runs un-memoized best-first search: asked only where at most
        // three semesters remain, which keeps each request well under a
        // second.
        if base.deadline - base.start <= 3 {
            modes.push(Output::TopK(1 + self.rng.below(10), "workload"));
        }
        self.rng.shuffle(&mut modes);
        for output in modes {
            let shape = Shape {
                output,
                ..base.clone()
            };
            let body = explore_json(&shape, None, self.rng.chance(0.5));
            push(explore_json(&shape, None, false), explore(None, body));
        }
        let listing = Shape {
            output: Output::Collect(30),
            ..base.clone()
        };
        if self.rng.chance(0.3) {
            let paged = Shape {
                page_size: Some(10),
                ..listing.clone()
            };
            let body = explore_json(&paged, None, false);
            push(
                body.clone(),
                Item {
                    paged: true,
                    ..explore(None, body)
                },
            );
        }
        if self.rng.chance(0.3) {
            let key = format!("stream {}", explore_json(&listing, None, false));
            let body = explore_json(&listing, None, true);
            push(
                key,
                Item {
                    op: Op::Stream,
                    ..explore(None, body)
                },
            );
        }
        if self.rng.chance(0.2) {
            let k = 1 + self.rng.below(4);
            let body = advise_json(data.horizon.0, transcript, base.deadline, k);
            push(
                body.clone(),
                Item {
                    op: Op::Advise,
                    ..explore(None, body)
                },
            );
        }
        // What-ifs only where one semester remains: a path DAG over a
        // longer brandeis horizon costs ~150 MB of peak server memory,
        // which would make this workload's memory a what-if measurement.
        if base.deadline - base.start <= 1 && self.rng.chance(0.3) {
            // Two deltas on one base: a DAG build, then a warm apply.
            // Forces only: a what-if's merged request has no other memo
            // key than its base tree's, so the trees stay the only memo
            // tables (the registry keeps 32, least recently used first).
            for _ in 0..2 {
                let delta = Delta {
                    force: vec![course_at(data, self.rng.below(data.catalog.len()))],
                    ..Delta::default()
                };
                let body = whatif_json(base, &delta);
                push(
                    body.clone(),
                    Item {
                        op: Op::Whatif,
                        ..explore(None, body)
                    },
                );
            }
        }
    }

    /// Per-student advising on brandeis interleaved with what-if sweeps
    /// over a few base explorations of the synthetic `synth` tenant.
    fn advise_whatif(mut self) -> Plan {
        let data = brandeis_cs();
        let h0 = data.horizon.0;
        let synth_fixture = whatif_tenant();
        let synth = parse_fixture(&synth_fixture);
        let bystander = department_tenants().swap_remove(0);
        // The advising cohort, plus each student's own plan views (a
        // listing, a top-k, a paged and a streamed listing) that share
        // the advice's memo table.
        let mut advise = Vec::new();
        let mut views = Vec::new();
        let deadline = h0 + 5;
        for selections in &cohort(&data, 10_000, DATASET_SEED) {
            for j in 1..=selections.len().min(2) {
                let k = 1 + self.rng.below(4);
                advise.push(Item {
                    op: Op::Advise,
                    tenant: None,
                    body: advise_json(h0, &selections[..j], deadline, k),
                    paged: false,
                });
                let plan = Shape {
                    start: h0 + j as i32,
                    completed: selections[..j].iter().flatten().cloned().collect(),
                    deadline,
                    m: 3,
                    degree_goal: true,
                    output: Output::Collect(10),
                    page_size: None,
                    workload_cap: None,
                };
                let top = Shape {
                    output: Output::TopK(k, "time"),
                    ..plan.clone()
                };
                let paged = Shape {
                    page_size: Some(4),
                    ..plan.clone()
                };
                views.push(explore(None, explore_json(&plan, None, false)));
                views.push(explore(None, explore_json(&top, None, true)));
                views.push(Item {
                    paged: true,
                    ..explore(None, explore_json(&paged, None, false))
                });
                views.push(Item {
                    op: Op::Stream,
                    ..explore(None, explore_json(&top, None, false))
                });
            }
        }
        self.rng.shuffle(&mut advise);
        self.rng.shuffle(&mut views);
        // What-if bases: six- and seven-semester plans from a first
        // semester of one or more intro courses (as many as the catalog
        // has, up to four); each DAG build takes 15–150 ms.
        let intro: Vec<String> = synth
            .catalog
            .courses()
            .filter(|c| c.prereq_satisfied(&CourseSet::new()))
            .map(|c| c.code().to_string())
            .collect();
        let s0 = synth.horizon.0;
        let bases: Vec<Shape> = (1..=intro.len().min(4))
            .flat_map(|done| [6, 7].map(|semesters| (done, semesters)))
            .map(|(done, semesters)| Shape {
                start: s0,
                completed: intro[..done.min(intro.len())].to_vec(),
                deadline: s0 + semesters,
                m: 2,
                degree_goal: true,
                output: Output::Count,
                page_size: None,
                workload_cap: None,
            })
            .collect();
        let codes: Vec<String> = synth
            .catalog
            .courses()
            .map(|c| c.code().to_string())
            .collect();
        // The sweep over each base: every avoid single, pair and triple
        // (bare, and with a cap for every pair and two triples in three),
        // every cap, plus forced-course
        // deltas. A force folds `through` the DAG and costs ~2–3× an
        // avoid, so the what-if median sits inside the avoid cluster
        // rather than on the edge between the two. Many deltas merge into
        // the same request (an avoided course no path takes, a cap no
        // semester reaches), so each sweep keeps one delta per cache key:
        // otherwise the share of cache hits would grow as a run goes on,
        // and the figures would depend on how far a run got.
        let mut seen = HashSet::new();
        let sweeps: Vec<Vec<Delta>> = bases
            .iter()
            .map(|base| {
                let mut deltas = Vec::new();
                let avoid = |a: &[&String], cap| Delta {
                    avoid: a.iter().map(|c| c.to_string()).collect(),
                    cap,
                    ..Delta::default()
                };
                let force = |f: &String, a: &[&String], cap| Delta {
                    force: vec![f.clone()],
                    ..avoid(a, cap)
                };
                for (i, code) in codes.iter().enumerate() {
                    deltas.push(avoid(&[code], None));
                    deltas.push(force(code, &[], None));
                    for (j, other) in codes.iter().enumerate().skip(i + 1) {
                        deltas.push(avoid(&[code, other], None));
                        deltas.push(avoid(&[code, other], Some(20 + ((i + j) % 40) as u32)));
                        for (k, third) in codes.iter().enumerate().skip(j + 1) {
                            deltas.push(avoid(&[code, other, third], None));
                            if (i + j + k) % 3 != 0 {
                                let cap = Some(20 + ((i + j + k) % 40) as u32);
                                deltas.push(avoid(&[code, other, third], cap));
                            }
                        }
                        if j % 3 == 0 {
                            deltas.push(force(code, &[other], None));
                        }
                    }
                }
                for cap in 20..60 {
                    deltas.push(avoid(&[], Some(cap)));
                    for code in &codes {
                        deltas.push(avoid(&[code], Some(cap)));
                        if cap % 4 == 0 {
                            deltas.push(force(code, &[], Some(cap)));
                        }
                    }
                }
                self.rng.shuffle(&mut deltas);
                deltas.retain(|delta| {
                    let request = WhatIfRequest::from_json(&whatif_json(base, delta))
                        .expect("generated what-ifs decode");
                    seen.insert(request.cache_key())
                });
                deltas
            })
            .collect();
        // A fixed 200-slot cycle keeps the mix identical in every stretch
        // of the plan: 40 advice requests, 10 plan views, 2 base views,
        // 1 swap and 147 what-ifs dealt round-robin over the bases. The
        // seed shuffles the slots within each cycle.
        let mut slots: Vec<u8> = [(0u8, 40), (1, 10), (2, 2), (3, 1), (4, 147)]
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        let mut items = Vec::new();
        let mut next = vec![0usize; bases.len()];
        let (mut advised, mut viewed, mut turn) = (0, 0, 0);
        'plan: loop {
            self.rng.shuffle(&mut slots);
            for &slot in &slots {
                let item = match slot {
                    0 => advise.get(advised).cloned().inspect(|_| advised += 1),
                    1 => views.get(viewed).cloned().inspect(|_| viewed += 1),
                    2 => {
                        let b = self.rng.below(bases.len());
                        let body = explore_json(&bases[b], None, self.rng.chance(0.5));
                        Some(explore(Some("synth".into()), body))
                    }
                    3 => Some(Item {
                        op: Op::Swap,
                        tenant: Some(bystander.name.clone()),
                        body: bystander.text.clone(),
                        paged: false,
                    }),
                    _ => {
                        let b = turn % bases.len();
                        turn += 1;
                        sweeps[b].get(next[b]).map(|delta| {
                            next[b] += 1;
                            Item {
                                op: Op::Whatif,
                                tenant: Some("synth".into()),
                                body: whatif_json(&bases[b], delta),
                                paged: false,
                            }
                        })
                    }
                };
                // The plan ends when any stream runs dry, so the mix never
                // drifts.
                match item {
                    Some(item) => items.push(item),
                    None => break 'plan,
                }
            }
        }
        let order = (0..items.len() as u32).collect();
        self.finish(
            "advise-whatif",
            vec![synth_fixture, bystander],
            items,
            order,
            1500,
            // Past the four DAG builds and the first advice.
            3_000,
        )
    }
}

/// An unpaged exploration request.
fn explore(tenant: Option<String>, body: String) -> Item {
    Item {
        op: Op::Explore,
        tenant,
        body,
        paged: false,
    }
}

/// Inverse-CDF Zipf sampler over ranks `0..n` with exponent `s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}
