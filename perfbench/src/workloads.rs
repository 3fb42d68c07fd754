//! The benchmark's workloads: seed-pure open-loop request streams and the
//! engine each one is served by.
//!
//! Every request carries an `arrival_step`, so arrivals follow a schedule
//! in simulated steps whether or not the engine keeps up (an open loop),
//! and TTFT / inter-token deadlines in steps. The engine never sees the
//! workload seed: it receives only the generated requests.

use topick_accel::{
    AccelConfig, AccelMode, ClusterEngine, PolicyKind, PreemptionConfig, RetentionPolicy,
    RoutingKind, ServingConfig, ServingEngine, ServingRequest, TokenBackedBatch,
};
use topick_model::ModelSpec;

/// KV page size in tokens (`tokens-evict` uses a page of its own).
const PAGE: usize = 16;

/// Seed of the engines' synthetic KV draws and of the token-backed model:
/// part of the engine configuration, fixed for every workload seed.
const ENGINE_SEED: u64 = 0x70_91C4;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long prompts, many decode steps: the paper's long-context regime.
    LongDecode,
    /// Many short shared-prefix requests on a 2-shard cluster.
    ChatCluster,
    /// Real model tokens under preemption, retention and a host tier.
    TokensEvict,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Self; 3] = [Self::LongDecode, Self::ChatCluster, Self::TokensEvict];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::LongDecode => "long-decode",
            Self::ChatCluster => "chat-cluster",
            Self::TokensEvict => "tokens-evict",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The request stream: a pure function of `seed`.
    #[must_use]
    pub fn requests(self, seed: u64) -> Vec<ServingRequest> {
        match self {
            Self::LongDecode => long_decode(seed),
            Self::ChatCluster => shared_prefix_chat(seed, &CHAT_CLUSTER),
            Self::TokensEvict => shared_prefix_chat(seed, &TOKENS_EVICT),
        }
    }

    /// The per-engine configuration the workload is served under.
    #[must_use]
    pub fn serving_config(self) -> ServingConfig {
        let accel =
            AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("1e-3 is a valid threshold");
        let mut cfg = ServingConfig::new(accel);
        cfg.seed = ENGINE_SEED;
        cfg.admission.page_size = PAGE;
        // The chat workloads share the repository's chat-shaped sizing:
        // 4 heads, 10 MB of weights, prefix cache on, prefill priced.
        let chat = |cfg: &mut ServingConfig| {
            cfg.heads = 4;
            cfg.weight_bytes = 10_000_000;
            cfg.admission.prefix_cache = true;
            cfg.prefill_factor = 1.0;
            cfg.admission.max_batch = 6;
        };
        match self {
            Self::LongDecode => {
                // Paper-flavoured defaults (16 heads, 50 MB of weights);
                // eight slots, each with room for the longest request.
                cfg.admission.max_batch = 8;
                cfg.admission.max_batch_tokens = 8 * (2048_usize + 48).next_multiple_of(PAGE);
            }
            Self::ChatCluster => {
                chat(&mut cfg);
                cfg.admission.max_batch_tokens = 1600;
                cfg.ship_cost_factor = 0.25;
            }
            Self::TokensEvict => {
                // A tight KV budget, so bursts preempt: retention keeps
                // three quarters of a victim's pages, the host tier takes
                // part of the rest and the remainder is re-prefilled.
                chat(&mut cfg);
                cfg.admission.page_size = TOKENS_EVICT.page;
                cfg.admission.max_batch_tokens = 40 * TOKENS_EVICT.page;
                cfg.preemption =
                    PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.75));
                cfg.host_pages = 2;
            }
        }
        cfg
    }

    /// The scheduling policy of the workload's engines.
    #[must_use]
    pub fn policy(self) -> PolicyKind {
        match self {
            Self::LongDecode | Self::ChatCluster => PolicyKind::Fifo,
            Self::TokensEvict => PolicyKind::PriorityAging,
        }
    }

    /// A fresh single engine for the workload.
    #[must_use]
    pub fn engine(self) -> ServingEngine {
        let cfg = self.serving_config();
        ServingEngine::builder(cfg.accel.clone())
            .config(cfg)
            .policy(self.policy())
            .build()
    }

    /// A fresh 2-shard cluster for the workload: prefix-affinity routing,
    /// work stealing, shards stepped on the caller's thread.
    #[must_use]
    pub fn cluster(self) -> ClusterEngine {
        let cfg = self.serving_config();
        ClusterEngine::builder(cfg.accel.clone())
            .config(cfg)
            .policy(self.policy())
            .shards(2)
            .routing(RoutingKind::PrefixAffinity)
            .stealing(true)
            .threads(1)
            .build()
    }

    /// A fresh token-backed mirror serving the toy model, for the
    /// real-token workload.
    #[must_use]
    pub fn mirror(self, cfg: &ServingConfig) -> TokenBackedBatch {
        let mut spec = ModelSpec::toy();
        spec.max_context = 1024;
        TokenBackedBatch::new(spec, ENGINE_SEED, cfg)
    }
}

/// SplitMix64 over a counter: the workloads' only source of randomness.
#[derive(Debug)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % n as u64).expect("below n fits usize")
    }

    /// `n` values spread evenly over `lo..=hi`, in a seed-shuffled order.
    /// Stratified draws give every seed the same mix of sizes, so seeds
    /// differ in order, pairing and content but not in total work: the
    /// spread between seeds then measures the program, not the draw.
    fn stratified(&mut self, n: usize, lo: usize, hi: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).map(|i| lo + i * (hi - lo + 1) / n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }

    /// [`stratified`](Self::stratified) draws made block by block, so
    /// every block of `block` consecutive requests has the same mix.
    fn stratified_blocks(&mut self, n: usize, block: usize, lo: usize, hi: usize) -> Vec<usize> {
        (0..n)
            .step_by(block)
            .flat_map(|start| self.stratified(block.min(n - start), lo, hi))
            .collect()
    }
}

/// Requests of the long-decode workload.
const LONG_REQUESTS: usize = 40;
/// Steps between long-decode arrivals.
const LONG_GAP: u64 = 5;

fn long_decode(seed: u64) -> Vec<ServingRequest> {
    // Every seed serves the same 40 request shapes, an even grid of
    // prompts paired with token targets by a fixed stride, in a
    // seed-shuffled order: pairing long prompts with long targets by
    // chance would change the total attention work from seed to seed.
    let n = LONG_REQUESTS;
    let order = Rng::new(seed, 0x4C4F_4E47).stratified(n, 0, n - 1);
    order
        .into_iter()
        .enumerate()
        .map(|(i, shape)| {
            let prompt = 1024 + shape * 1025 / n;
            let new_tokens = 24 + (shape * 17 % n) * 25 / n;
            ServingRequest::new(i as u64, prompt, new_tokens)
                .arriving_at(i as u64 * LONG_GAP)
                .with_ttft_deadline(8)
                .with_itl_deadline(1)
        })
        .collect()
}

/// Shape of a shared-prefix chat stream.
#[derive(Debug)]
struct ChatShape {
    /// KV page size in tokens.
    page: usize,
    /// Tenant `t` has a system prompt of `first_prefix_pages + t` pages.
    tenants: usize,
    first_prefix_pages: usize,
    /// User turn length range, in tokens.
    turn: (usize, usize),
    new_tokens: (usize, usize),
    requests: usize,
    /// Requests arrive `burst` at a time, one burst every `period` steps.
    burst: usize,
    period: usize,
    ttft_deadline: u64,
    itl_deadline: u64,
}

/// Eight tenants with 96- to 208-token system prompts, one request per
/// step: below the cluster's capacity, so queues stay short.
const CHAT_CLUSTER: ChatShape = ChatShape {
    page: PAGE,
    tenants: 8,
    first_prefix_pages: 6,
    turn: (8, 64),
    new_tokens: (2, 8),
    requests: 320,
    burst: 1,
    period: 1,
    ttft_deadline: 6,
    itl_deadline: 2,
};

/// Four tenants with 2- to 5-page system prompts. Pages are 8 tokens, half
/// the cluster's, because every token here runs the model forward: the
/// schedule is decided in pages, the host cost is paid in tokens. Bursts of
/// 8 every 16 steps, 62 bursts, so tail latencies rest on many bursts.
const TOKENS_EVICT: ChatShape = ChatShape {
    page: 8,
    tenants: 4,
    first_prefix_pages: 2,
    turn: (4, 16),
    new_tokens: (4, 16),
    requests: 496,
    burst: 8,
    period: 16,
    ttft_deadline: 6,
    itl_deadline: 3,
};

/// Tenants with page-aligned system prompts, each request a user turn
/// behind its tenant's prompt, arriving in one interleaved stream on a
/// fixed schedule. Tenants, turns, token targets and priorities (0–3) are
/// stratified draws.
fn shared_prefix_chat(seed: u64, shape: &ChatShape) -> Vec<ServingRequest> {
    let mut rng = Rng::new(seed, 0x4348_4154);
    let tags: Vec<u64> = (0..shape.tenants).map(|_| rng.next()).collect();
    let n = shape.requests;
    // With bursts, every burst draws the same mix of tenants, turns,
    // targets and priorities, so each contends for the batch alike.
    let block = if shape.burst > 1 { shape.burst } else { n };
    let tenants = rng.stratified_blocks(n, block, 0, shape.tenants - 1);
    let turns = rng.stratified_blocks(n, block, shape.turn.0, shape.turn.1);
    let new_tokens = rng.stratified_blocks(n, block, shape.new_tokens.0, shape.new_tokens.1);
    let priorities = rng.stratified_blocks(n, block, 0, 3);
    (0..n)
        .map(|i| {
            let t = tenants[i];
            let prefix = shape.page * (shape.first_prefix_pages + t);
            ServingRequest::new(i as u64, prefix + turns[i], new_tokens[i])
                .with_client(t as u64)
                .with_priority(u8::try_from(priorities[i]).expect("priority below 4"))
                .with_shared_prefix(tags[t], prefix)
                .arriving_at((i / shape.burst * shape.period) as u64)
                .with_ttft_deadline(shape.ttft_deadline)
                .with_itl_deadline(shape.itl_deadline)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_in_the_seed() {
        for w in Workload::ALL {
            assert_eq!(w.requests(1), w.requests(1), "{}", w.name());
            assert_ne!(w.requests(1), w.requests(2), "{}", w.name());
        }
    }

    #[test]
    fn generators_keep_their_stated_shapes() {
        for r in Workload::LongDecode.requests(3) {
            assert!((1024..=2048).contains(&r.prompt_len));
            assert!((24..=48).contains(&r.max_new_tokens));
            assert_eq!(r.prefix_len, 0);
        }
        for w in [Workload::ChatCluster, Workload::TokensEvict] {
            let page = w.serving_config().admission.page_size;
            for r in w.requests(3) {
                assert!((16..=208).contains(&r.prefix_len) && r.prefix_len % page == 0);
                assert!((4..=64).contains(&(r.prompt_len - r.prefix_len)));
                assert!((2..=16).contains(&r.max_new_tokens));
                assert!(r.ttft_deadline.is_some() && r.itl_deadline.is_some());
            }
        }
    }

    #[test]
    fn every_request_fits_its_engine() {
        for w in Workload::ALL {
            let engine = w.engine();
            for r in w.requests(5) {
                engine
                    .validate_request(&r)
                    .expect("request fits the engine");
            }
        }
    }
}
