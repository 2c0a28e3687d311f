//! The unified experiment driver: one CLI over the `ch-scenarios`
//! registry.
//!
//! The artifact binaries are one-line shims into this module:
//! `experiment` is [`main_experiment`] (any id, `--list`, `--json`), and
//! `reproduce_all` is [`main_reproduce_all`]. Both share one flag
//! grammar ([`Cli`]), one [`FleetOptions`] assembly (worker width and
//! resumable manifest) and one output contract: fleet stats on stderr,
//! the artifact bytes on stdout.
//!
//! The one [`registry`] entry marked `external`, `city`, executes here
//! rather than in `ch-scenarios` because it wraps the driver's wall clock
//! around the run.

use std::path::PathBuf;
use std::sync::Arc;

use ch_fleet::{fingerprint, FleetOptions, Stopwatch};
use ch_scenarios::experiments as exp;
use ch_scenarios::registry::{self, Artifact, ExperimentSpec, RunParams, REGISTRY};
use ch_scenarios::{run_city, CampaignCtx, CityConfig, CityPlan};
use ch_sim::SimDuration;

/// Flags that take a value.
const VALUE_FLAGS: &[&str] = &[
    "--hours",
    "--minutes",
    "--jobs",
    "--manifest",
    "--replicas",
    "--slots",
    "--id",
    "--districts",
    "--shards",
];

/// Bare flags.
const BARE_FLAGS: &[&str] = &["--fresh", "--json", "--csv", "--list", "--quick"];

/// The parsed command line, shared by every binary.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Non-flag arguments, in order (experiment id and/or seed).
    pub positionals: Vec<String>,
    flags: Vec<String>,
    values: Vec<(String, String)>,
}

impl Cli {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Fails on an unknown `--flag` or a value flag without its value.
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            if VALUE_FLAGS.contains(&arg.as_str()) {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("flag `{arg}` needs a value"))?;
                cli.values.push((arg.clone(), value.clone()));
            } else if BARE_FLAGS.contains(&arg.as_str()) {
                cli.flags.push(arg.clone());
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag `{arg}` (see `experiment --list`)"));
            } else {
                cli.positionals.push(arg.clone());
            }
        }
        Ok(cli)
    }

    /// Parses the process arguments.
    ///
    /// # Errors
    ///
    /// As for [`Cli::parse`].
    pub fn from_env() -> Result<Cli, String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Cli::parse(&args)
    }

    /// `true` if the bare flag was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of a value flag, if present.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    /// A parsed positive number flag (`--jobs 4`); unparsable or zero
    /// values fall back to the default, as the legacy binaries did.
    fn positive(&self, name: &str) -> Option<usize> {
        self.value_of(name)
            .and_then(|v| v.parse().ok())
            .filter(|&v| v > 0)
    }

    /// The seed: first positional after the id offset, default 1.
    fn seed_at(&self, index: usize) -> u64 {
        self.positionals
            .get(index)
            .and_then(|s| s.parse().ok())
            .unwrap_or(1)
    }
}

/// Builds the [`RunParams`] for one run from the shared flag grammar.
fn run_params(cli: &Cli, seed: u64) -> RunParams {
    let mut params = RunParams::new(seed);
    if let Some(spec) = cli.value_of("--hours") {
        params.hours = spec.split(',').filter_map(|h| h.parse().ok()).collect();
    }
    if let Some(minutes) = cli.positive("--minutes") {
        params.minutes = minutes as u64;
    }
    params.replicas = cli.positive("--replicas");
    if let Some(slots) = cli.positive("--slots") {
        params.slots = slots;
    }
    params.machine = cli.flag("--json") || cli.flag("--csv");
    params.quick = cli.flag("--quick");
    params
}

/// Assembles the fleet options for one experiment: worker width from
/// `--jobs` (then `CH_JOBS`, then `available_parallelism`), a fingerprint
/// over everything that changes job identity, and the manifest: the
/// `--manifest` path, else the spec's default manifest when the run is
/// the seed-1 default one that file holds. Any other run of the campaign
/// would change the fingerprint, and opening the committed file with it
/// would rewrite that file, so such a run stays in memory.
fn fleet_options(spec: &ExperimentSpec, params: &RunParams, cli: &Cli) -> FleetOptions {
    let parts = spec.fingerprint_parts(params);
    let part_refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    let campaign = spec.campaign.unwrap_or(spec.id);
    let mut opts = FleetOptions::in_memory(campaign, fingerprint(&part_refs))
        .with_jobs(cli.positive("--jobs"));
    let manifest = match cli.value_of("--manifest") {
        Some(path) => Some(PathBuf::from(path)),
        None => spec.default_manifest.and_then(|path| {
            if parts == spec.fingerprint_parts(&RunParams::new(1)) {
                return Some(PathBuf::from(path));
            }
            eprintln!(
                "fleet: {path} holds the default seed-1 run, not this one; \
                 running in memory (pass --manifest to keep one)"
            );
            None
        }),
    };
    if let Some(path) = manifest {
        if cli.flag("--fresh") {
            let _ = std::fs::remove_file(&path);
        }
        opts.manifest = Some(path);
    }
    opts
}

/// Runs one registry entry end to end: fleet stats to stderr, the
/// artifact bytes to stdout.
fn run_spec(spec: &'static ExperimentSpec, cli: &Cli, seed: u64) -> Result<(), String> {
    let params = run_params(cli, seed);
    let opts = fleet_options(spec, &params, cli);
    // Build the campaign context once: every per-venue WiGLE scan and the
    // population pool are shared by all of this run's jobs.
    let ctx = CampaignCtx::from_arc(Arc::new(exp::standard_city()));
    let artifact = if spec.external {
        run_external(spec, &ctx, &params, cli)?
    } else {
        spec.run(&ctx, &params, &opts)?
    };
    if let Some(stats) = &artifact.stats {
        eprintln!("{}", stats.render_line());
    }
    print!("{}", artifact.text);
    Ok(())
}

/// Entry point for the unified `experiment` binary:
/// `experiment <id> [seed] [flags]`, `experiment --id <id> [seed]`, or
/// `experiment --list`.
///
/// # Errors
///
/// Fails on a missing/unknown id and propagates campaign errors.
pub fn main_experiment() -> Result<(), String> {
    let cli = Cli::from_env()?;
    if cli.flag("--list") {
        print!("{}", list_text());
        return Ok(());
    }
    let (id, seed) = match cli.value_of("--id") {
        Some(id) => (id.to_string(), cli.seed_at(0)),
        None => {
            let id = cli.positionals.first().cloned().ok_or_else(|| {
                "usage: experiment <id> [seed] [flags] — `experiment --list` shows the ids"
                    .to_string()
            })?;
            (id, cli.seed_at(1))
        }
    };
    let spec =
        registry::find(&id).ok_or_else(|| format!("unknown experiment `{id}`; try --list"))?;
    run_spec(spec, &cli, seed)
}

/// The `--list` table: one line per registry entry.
pub fn list_text() -> String {
    let mut out = String::from("experiments (run as: experiment <id> [seed] [flags]):\n\n");
    for spec in REGISTRY {
        out.push_str(&format!(
            "  {:<13} {:<7} {:<7} {}\n",
            spec.id,
            spec.output.label(),
            spec.paper_ref,
            spec.summary
        ));
    }
    out.push_str(
        "\nflags: --jobs N --manifest PATH --fresh\n       \
         --hours a,b,c --minutes N --replicas N --slots N --json / --csv --quick\n       \
         --districts N --shards N (city)\n",
    );
    out
}

/// Entry point for `reproduce_all`: every `in_reproduce_all` registry
/// entry into one consolidated report, building the city once and
/// rendering Fig. 5 and Fig. 6 from a single campaign.
///
/// # Errors
///
/// Propagates flag-grammar and campaign errors.
pub fn main_reproduce_all() -> Result<(), String> {
    let cli = Cli::from_env()?;
    let seed = cli.seed_at(0);
    let jobs = cli.positive("--jobs");
    let params = run_params(&cli, seed);
    eprintln!("building the standard city...");
    let ctx = CampaignCtx::from_arc(Arc::new(exp::standard_city()));

    let mut sections: Vec<(&str, String)> = Vec::new();
    for spec in REGISTRY.iter().filter(|s| s.in_reproduce_all) {
        if spec.shares_campaign_with.is_some() {
            continue; // Fig. 6 rides along with Fig. 5's campaign below.
        }
        if spec.id == "fig5" {
            eprintln!("Fig. 5 + Fig. 6 campaign (48 hour-long runs)...");
            let opts = FleetOptions::in_memory("fig5", 0).with_jobs(jobs);
            let (campaign, stats) = exp::campaign_fleet(
                &ctx,
                seed,
                &params.hours,
                SimDuration::from_mins(params.minutes),
                &opts,
            )?;
            eprintln!("{}", stats.render_line());
            sections.push(("Fig. 5", format!("{}\n", campaign.render_fig5())));
            sections.push(("Fig. 6", format!("{}\n", campaign.render_fig6())));
            continue;
        }
        if spec.id == "ablation" {
            eprintln!("ablation...");
        } else {
            eprintln!("{}...", spec.title);
        }
        let campaign = spec.campaign.unwrap_or(spec.id);
        let opts = FleetOptions::in_memory(campaign, 0).with_jobs(jobs);
        let artifact = spec.run(&ctx, &params, &opts)?;
        if spec.id == "ablation" {
            if let Some(stats) = &artifact.stats {
                eprintln!("{}", stats.render_line());
            }
        }
        sections.push((spec.title, artifact.text));
    }

    println!("# City-Hunter reproduction report (seed {seed})\n");
    for (title, body) in sections {
        println!("================================================================");
        println!("== {title}");
        println!("================================================================\n");
        print!("{body}");
    }
    Ok(())
}

/// Runs the registry's external entry: the city benchmark, which must
/// wrap a wall clock around the run.
fn run_external(
    spec: &'static ExperimentSpec,
    ctx: &CampaignCtx,
    params: &RunParams,
    cli: &Cli,
) -> Result<Artifact, String> {
    match spec.id {
        "city" => run_city_experiment(ctx, params, cli),
        other => Err(format!("experiment `{other}` is not an external study")),
    }
}

/// The `city` experiment: a whole sharded synthetic city day, with
/// wall-clock throughput (events/sec, not just sim-clock) reported on
/// stderr.
///
/// `--quick` runs the CI-sized slice; the full mode is the ~1M-device
/// 12-hour day. `--districts`, `--shards`, `--minutes` and `--jobs`
/// override the mode's defaults; none of them change the artifact bytes
/// except `--districts`/`--minutes` (which change the city itself).
fn run_city_experiment(
    ctx: &CampaignCtx,
    params: &RunParams,
    cli: &Cli,
) -> Result<Artifact, String> {
    let config = city_config(params, cli);
    let layout = CityPlan::build(&config).layout(config.jobs);

    let clock = Stopwatch::start();
    let outcome = run_city(ctx, &config);
    let elapsed_ms = clock.elapsed_ms();
    let events = outcome.events();
    let (handoffs_out, handoffs_in) = outcome.handoffs();
    let events_per_sec = events as f64 / (elapsed_ms / 1e3).max(1e-9);
    eprintln!(
        "city: {} districts x {} sim-min | {} devices, {} events, {} hits, {}/{} handoffs | \
         {:.0} ms wall ({} shards, {} jobs) — {:.0} events/sec (wall-clock)",
        layout.districts,
        config.epochs,
        outcome.devices(),
        events,
        outcome.hits(),
        handoffs_out,
        handoffs_in,
        elapsed_ms,
        layout.shards,
        layout.workers,
        events_per_sec,
    );

    Ok(Artifact {
        id: "city",
        text: outcome.render(),
        stats: None,
    })
}

/// The city run the flags ask for: the mode's defaults with `--districts`,
/// `--shards`, `--minutes` and `--jobs` overrides.
fn city_config(params: &RunParams, cli: &Cli) -> CityConfig {
    let mut config = if params.quick {
        CityConfig::quick(params.seed)
    } else {
        CityConfig::full(params.seed)
    };
    if let Some(districts) = cli.positive("--districts") {
        config.districts = districts;
    }
    if let Some(shards) = cli.positive("--shards") {
        config.shards = shards;
    }
    if let Some(minutes) = cli.positive("--minutes") {
        config.epochs = minutes as u64;
    }
    config.jobs = cli.positive("--jobs");
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        Cli::parse(&owned).expect("valid args")
    }

    #[test]
    fn defaults_without_flags() {
        let cli = cli(&[]);
        assert_eq!(cli.seed_at(0), 1);
        let params = run_params(&cli, cli.seed_at(0));
        assert_eq!(params.hours, (8..20).collect::<Vec<_>>());
        assert_eq!(params.minutes, 60);
        assert_eq!(params.slots, 4);
        assert_eq!(params.replicas, None);
        assert!(!params.machine);
    }

    #[test]
    fn flags_and_positionals_parse() {
        let cli = cli(&["7", "--jobs", "4", "--fresh", "--hours", "12,18"]);
        assert_eq!(cli.seed_at(0), 7);
        assert_eq!(cli.positive("--jobs"), Some(4));
        assert!(cli.flag("--fresh"));
        let params = run_params(&cli, 7);
        assert_eq!(params.hours, vec![12, 18]);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // `experiment` writes no timing file, so it takes no flag for one.
        for flag in ["--frobnicate", "--bench", "--bench-full", "--no-bench"] {
            let err = Cli::parse(&[flag.to_string()]).unwrap_err();
            assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        }
        let err = Cli::parse(&["--jobs".to_string()]).unwrap_err();
        assert!(err.contains("needs a value"));
    }

    #[test]
    fn list_covers_every_registry_entry() {
        let listing = list_text();
        for spec in REGISTRY {
            assert!(
                listing.contains(spec.id),
                "`--list` must mention `{}`",
                spec.id
            );
        }
    }

    #[test]
    fn city_reports_the_layout_that_runs() {
        let layout = |args: &[&str]| {
            let cli = cli(args);
            let config = city_config(&run_params(&cli, 1), &cli);
            CityPlan::build(&config).layout(config.jobs)
        };
        // One shard keeps one worker busy, whatever --jobs asks for.
        assert_eq!(
            layout(&["--quick", "--shards", "1", "--jobs", "2"]).workers,
            1
        );
        // 48 districts in chunks of ceil(48/32) = 2 make 24 shards.
        assert_eq!(layout(&["--districts", "48", "--shards", "32"]).shards, 24);
        // The plan lays out at most 256 districts.
        assert_eq!(layout(&["--districts", "300"]).districts, 256);
        // ci.sh's city gate: 16 districts on 16 shards.
        let gate = layout(&["--districts", "16", "--minutes", "60", "--jobs", "2"]);
        assert_eq!((gate.districts, gate.shards), (16, 16));
        assert_eq!(gate.workers, 2.min(ch_fleet::worker_cap()));
    }

    #[test]
    fn city_minutes_fall_back_to_the_mode_default() {
        let epochs = |args: &[&str]| {
            let cli = cli(args);
            city_config(&run_params(&cli, 1), &cli).epochs
        };
        // A zero or unparsable value is dropped like `--districts` and
        // `--shards` are, leaving the mode's default rather than 60.
        assert_eq!(epochs(&["--quick", "--minutes", "0"]), 20);
        assert_eq!(epochs(&["--minutes", "abc"]), 720);
        assert_eq!(epochs(&["--quick", "--minutes", "5"]), 5);
    }

    #[test]
    fn fleet_options_respect_spec_defaults() {
        let fig5 = registry::find("fig5").unwrap();
        let params = RunParams::new(1);
        let opts = fleet_options(fig5, &params, &cli(&[]));
        assert_eq!(
            opts.manifest,
            Some(PathBuf::from("results/fleet_fig5.jsonl"))
        );

        let table1 = registry::find("table1").unwrap();
        let opts = fleet_options(table1, &params, &cli(&[]));
        assert_eq!(opts.manifest, None);
        assert_eq!(opts.campaign, "table1");

        // The CLI override wins over the spec default.
        let opts = fleet_options(fig5, &params, &cli(&["--manifest", "m.jsonl"]));
        assert_eq!(opts.manifest, Some(PathBuf::from("m.jsonl")));

        // A run the committed manifest does not hold never opens it, so
        // cannot rewrite it.
        for (seed, args) in [
            (2, &[][..]),
            (1, &["--hours", "8"][..]),
            (1, &["--minutes", "5"][..]),
        ] {
            let cli = cli(args);
            let opts = fleet_options(fig5, &run_params(&cli, seed), &cli);
            assert_eq!(opts.manifest, None, "seed {seed}, {args:?}");
        }
        // The worker width is no part of a job's identity.
        let cli = cli(&["--jobs", "2"]);
        let opts = fleet_options(fig5, &run_params(&cli, 1), &cli);
        assert_eq!(
            opts.manifest,
            Some(PathBuf::from("results/fleet_fig5.jsonl"))
        );
    }
}
