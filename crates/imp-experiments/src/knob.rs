//! The knob table: every sweepable configuration knob, declared once.
//!
//! A [`Knob`] is one value of one sweep axis. Each variant carries its
//! request-file key ([`Knob::key`]), its value parser ([`Knob::parse`])
//! and the [`Sim`] setter it applies ([`Knob::apply`]). `Sweep`'s axes,
//! the cell enumeration and the `imp-sweepd` request grammar all derive
//! from this one table, in its fixed order ([`Knob::KEYS`]): the order
//! is the sweep's nesting order, outermost first.

use crate::sim::Sim;
use imp_common::config::{
    PagePolicy, ParamValue, PartialMode, PrefetcherSpec, TranslationPolicy, WalkModel,
};

/// One value of one sweep axis; each variant's doc names its key, and
/// [`crate::SweepRequest::parse`] gives each key's value syntax.
#[derive(Clone, Debug, PartialEq)]
pub enum Knob {
    /// `workloads`: a workload name (`chain:` specs included).
    Workload(String),
    /// `cores`: the core count.
    Cores(u32),
    /// `prefetchers`: a prefetcher spec.
    Prefetcher(PrefetcherSpec),
    /// `depths`: the `depth` parameter set on the prefetcher spec.
    Depth(u32),
    /// `managers`: a manager spec; `None` runs unmanaged.
    Manager(Option<PrefetcherSpec>),
    /// `partials`: the partial cacheline accessing mode.
    Partial(PartialMode),
    /// `page_sizes`: the translation page size in bytes.
    PageSize(u64),
    /// `tlb_ways`: the dTLB associativity.
    TlbWays(u32),
    /// `translation_policies`: how prefetches translate on a dTLB miss.
    TranslationPolicy(TranslationPolicy),
    /// `l2_tlbs`: the shared L2-TLB geometry as `(sets, ways)`.
    L2Tlb(u32, u32),
    /// `tlb_prefetches`: translation prefetching on or off.
    TlbPrefetch(bool),
    /// `walk_models`: how page walks are timed.
    WalkModel(WalkModel),
    /// `page_policies`: one page-policy override set.
    PagePolicies(Vec<(String, PagePolicy)>),
}

impl Knob {
    /// Every knob's request key, in table order — the sweep's nesting
    /// order, outermost first.
    pub const KEYS: [&'static str; 13] = [
        "workloads",
        "cores",
        "prefetchers",
        "depths",
        "managers",
        "partials",
        "page_sizes",
        "tlb_ways",
        "translation_policies",
        "l2_tlbs",
        "tlb_prefetches",
        "walk_models",
        "page_policies",
    ];

    /// The request-file key of this knob's axis.
    pub fn key(&self) -> &'static str {
        Self::KEYS[match self {
            Knob::Workload(_) => 0,
            Knob::Cores(_) => 1,
            Knob::Prefetcher(_) => 2,
            Knob::Depth(_) => 3,
            Knob::Manager(_) => 4,
            Knob::Partial(_) => 5,
            Knob::PageSize(_) => 6,
            Knob::TlbWays(_) => 7,
            Knob::TranslationPolicy(_) => 8,
            Knob::L2Tlb(..) => 9,
            Knob::TlbPrefetch(_) => 10,
            Knob::WalkModel(_) => 11,
            Knob::PagePolicies(_) => 12,
        }]
    }

    /// The table position of the axis keyed `key`, if there is one.
    pub(crate) fn slot_of(key: &str) -> Option<usize> {
        Self::KEYS.iter().position(|k| *k == key)
    }

    /// Parses one value of the axis keyed `key`.
    ///
    /// # Errors
    ///
    /// A message naming the key for an unknown key or a value the knob
    /// does not accept.
    pub(crate) fn parse(key: &str, value: &str) -> Result<Knob, String> {
        let bad = |hint: &str| format!("`{value}` is not a valid {key} value ({hint})");
        let num = |hint: &str| value.parse::<u64>().map_err(|_| bad(hint));
        let small = |hint: &str| value.parse::<u32>().map_err(|_| bad(hint));
        let spec = || {
            value
                .parse::<PrefetcherSpec>()
                .map_err(|e| bad(&e.to_string()))
        };
        Ok(match key {
            "workloads" => Knob::Workload(value.to_string()),
            "cores" => Knob::Cores(small("a core count")?),
            "prefetchers" => Knob::Prefetcher(spec()?),
            "depths" => Knob::Depth(small("a chain depth")?),
            "managers" if value == "none" => Knob::Manager(None),
            "managers" => Knob::Manager(Some(spec()?)),
            "partials" => Knob::Partial(match value {
                "off" => PartialMode::Off,
                "noc" => PartialMode::NocOnly,
                "noc+dram" => PartialMode::NocAndDram,
                _ => return Err(bad("off / noc / noc+dram")),
            }),
            "page_sizes" => Knob::PageSize(num("bytes")?),
            "tlb_ways" => Knob::TlbWays(small("a way count")?),
            "translation_policies" => Knob::TranslationPolicy(
                [
                    TranslationPolicy::DropOnMiss,
                    TranslationPolicy::NonBlockingWalk,
                    TranslationPolicy::Ideal,
                ]
                .into_iter()
                .find(|p| p.name() == value)
                .ok_or_else(|| bad("drop / walk / ideal"))?,
            ),
            "l2_tlbs" => {
                let (sets, ways) = value
                    .split_once('x')
                    .and_then(|(s, w)| Some((s.parse().ok()?, w.parse().ok()?)))
                    .ok_or_else(|| bad("SETSxWAYS"))?;
                Knob::L2Tlb(sets, ways)
            }
            "tlb_prefetches" => Knob::TlbPrefetch(on_off(value).ok_or_else(|| bad("on / off"))?),
            "walk_models" => Knob::WalkModel(
                [WalkModel::Flat, WalkModel::Cached]
                    .into_iter()
                    .find(|m| m.name() == value)
                    .ok_or_else(|| bad("flat / cached"))?,
            ),
            "page_policies" if value == "none" => Knob::PagePolicies(Vec::new()),
            "page_policies" => Knob::PagePolicies(
                value
                    .split('+')
                    .map(|pair| {
                        let (region, policy) = pair.split_once('=')?;
                        Some((region.trim().to_string(), page_policy(policy.trim())?))
                    })
                    .collect::<Option<_>>()
                    .ok_or_else(|| bad("region=4k|2m|auto:<bytes> joined by +, or none"))?,
            ),
            other => return Err(format!("unknown key `{other}`")),
        })
    }

    /// Parses a comma-separated list of values of the axis keyed `key`.
    ///
    /// Spec parameters are comma-separated too, so in the spec-valued
    /// lists (`workloads`, `prefetchers`, `managers`) an item of the
    /// form `key=value` with no `:` continues the previous spec:
    /// `stream:distance=8,degree=2, imp` is two specs.
    ///
    /// # Errors
    ///
    /// Any [`Knob::parse`] error, or a spec list that opens with a
    /// parameter.
    pub(crate) fn parse_list(key: &str, value: &str) -> Result<Vec<Knob>, String> {
        let items = value.split(',').map(str::trim).filter(|s| !s.is_empty());
        let mut values: Vec<String> = Vec::new();
        let specs = matches!(key, "workloads" | "prefetchers" | "managers");
        for item in items {
            let continues = specs && item.contains('=') && !item.contains(':');
            match values.last_mut() {
                Some(spec) if continues => {
                    spec.push(',');
                    spec.push_str(item);
                }
                None if continues => {
                    return Err(format!("`{item}` continues no {key} spec"));
                }
                _ => values.push(item.to_string()),
            }
        }
        values.iter().map(|v| Knob::parse(key, v)).collect()
    }

    /// Applies this value to `sim` through its typed setter.
    #[must_use]
    pub(crate) fn apply(self, sim: Sim) -> Sim {
        match self {
            Knob::Workload(name) => sim.with_workload(name),
            Knob::Cores(n) => sim.cores(n),
            Knob::Prefetcher(spec) => sim.prefetcher(spec),
            Knob::Depth(depth) => {
                let mut spec = sim.cfg.prefetcher.clone();
                spec.params
                    .insert("depth".to_string(), ParamValue::Int(i64::from(depth)));
                sim.prefetcher(spec)
            }
            Knob::Manager(spec) => sim.set_manager(spec),
            Knob::Partial(mode) => sim.partial(mode),
            Knob::PageSize(bytes) => sim.page_size(bytes),
            Knob::TlbWays(ways) => sim.tlb_ways(ways),
            Knob::TranslationPolicy(policy) => sim.translation_policy(policy),
            Knob::L2Tlb(sets, ways) => sim.l2_tlb(sets, ways),
            Knob::TlbPrefetch(on) => sim.tlb_prefetch(on),
            Knob::WalkModel(model) => sim.walk_model(model),
            // Placement is translation-only, so a page-policy axis
            // enables the dTLB even for its empty set.
            Knob::PagePolicies(set) => {
                let tlb = sim.cfg.tlb.finite_or_self();
                sim.tlb(tlb).page_policies(set)
            }
        }
    }
}

/// A switch: `on` / `true` or `off` / `false`.
pub(crate) fn on_off(value: &str) -> Option<bool> {
    match value {
        "on" | "true" => Some(true),
        "off" | "false" => Some(false),
        _ => None,
    }
}

/// A page policy in its canonical spelling: `4k`, `2m` or
/// `auto:<bytes>`.
fn page_policy(s: &str) -> Option<PagePolicy> {
    match s {
        "4k" => Some(PagePolicy::Base4K),
        "2m" => Some(PagePolicy::Huge2M),
        _ => Some(PagePolicy::Auto {
            threshold_bytes: s.strip_prefix("auto:")?.parse().ok()?,
        }),
    }
}
