//! Deterministic fault injection.
//!
//! The paper's attacker runs unattended for 12 h in hostile RF: bursty
//! channel loss, malformed frames in the air, clients wandering in and
//! out of range, and the rig itself occasionally dying. This module
//! models all four as a *seed-derived plan* — a [`FaultSpec`] describes
//! which faults are armed and a [`FaultPlan`] turns it into a stream of
//! deterministic injection decisions, keyed off the campaign seed the
//! same way `ch_fleet::derive_seed` keys job seeds. Two runs with the
//! same seed and spec inject byte-identical faults, so faulted
//! experiments stay bit-reproducible, resumable and parallelizable.
//!
//! The four fault classes:
//!
//! 1. **Bursty channel loss** — a two-state [`GilbertElliott`] chain
//!    layered on top of the distance-based [`crate::LossModel`]: the
//!    channel flips between a Good state (no extra loss) and a Bad
//!    state that eats most frames, with geometrically distributed
//!    dwell times. Classic burst-loss modelling, nothing exotic.
//! 2. **Frame corruption** — encoded management frames are bit-flipped
//!    or truncated *on the wire*, before decode. The receiver must
//!    reject them via `CodecError`, never panic.
//! 3. **Client churn** — a fraction of visits are truncated (the phone
//!    leaves early) or delayed (it arrives late), so population
//!    composition shifts mid-run.
//! 4. **Attacker crash/restart** — at scheduled sim times the attacker
//!    process "dies" and restarts either cold (state rebuilt from its
//!    offline seed) or warm (restored from its last checkpoint
//!    snapshot).
//!
//! Every decision draws from the plan's own forked RNG streams, so a
//! run with no plan (`None`, the one "off") or with an empty
//! [`FaultSpec`] consumes exactly the same randomness as a run built
//! before this module existed: an unarmed fault class draws nothing.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// The two states of a Gilbert–Elliott burst-loss channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// Low-loss steady state.
    Good,
    /// High-loss burst state.
    Bad,
}

/// A two-state Markov (Gilbert–Elliott) burst-loss channel.
///
/// Each [`step`](GilbertElliott::step) first applies the state
/// transition (enter/exit the burst with the configured probabilities),
/// then draws frame loss at the current state's loss rate. Expected
/// burst length is `1 / p_exit_bad` steps.
#[derive(Debug, Clone, PartialEq)]
pub struct GilbertElliott {
    p_enter_bad: f64,
    p_exit_bad: f64,
    loss_good: f64,
    loss_bad: f64,
    state: ChannelState,
}

impl GilbertElliott {
    /// Creates a channel starting in the Good state.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(p_enter_bad: f64, p_exit_bad: f64, loss_good: f64, loss_bad: f64) -> Self {
        for (name, p) in [
            ("p_enter_bad", p_enter_bad),
            ("p_exit_bad", p_exit_bad),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} {p} outside [0,1]");
        }
        GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good,
            loss_bad,
            state: ChannelState::Good,
        }
    }

    /// The current channel state.
    pub fn state(&self) -> ChannelState {
        self.state
    }

    /// Advances the chain by one frame and returns `true` if that frame
    /// is lost to the burst process.
    pub fn step(&mut self, rng: &mut SimRng) -> bool {
        let flip = match self.state {
            ChannelState::Good => self.p_enter_bad,
            ChannelState::Bad => self.p_exit_bad,
        };
        if rng.chance(flip) {
            self.state = match self.state {
                ChannelState::Good => ChannelState::Bad,
                ChannelState::Bad => ChannelState::Good,
            };
        }
        let loss = match self.state {
            ChannelState::Good => self.loss_good,
            ChannelState::Bad => self.loss_bad,
        };
        rng.chance(loss)
    }

    /// Returns the channel to the Good state (fresh-run reuse).
    pub fn reset(&mut self) {
        self.state = ChannelState::Good;
    }
}

/// Burst-loss parameters; the Good state adds no loss on top of the
/// distance model, the Bad state eats `loss_bad` of frames.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstLossSpec {
    /// Per-frame probability of entering a burst.
    pub p_enter_bad: f64,
    /// Per-frame probability of a burst ending (expected burst length
    /// is its reciprocal).
    pub p_exit_bad: f64,
    /// Loss rate while inside a burst.
    pub loss_bad: f64,
}

impl BurstLossSpec {
    /// Builds the Gilbert–Elliott chain this spec describes.
    pub fn chain(&self) -> GilbertElliott {
        GilbertElliott::new(self.p_enter_bad, self.p_exit_bad, 0.0, self.loss_bad)
    }
}

/// Frame-corruption parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptionSpec {
    /// Fraction of delivered frames whose bytes are mutated in flight.
    pub rate: f64,
}

/// Client-churn parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Fraction of visits that are churned (truncated or delayed).
    pub rate: f64,
}

/// How a crashed attacker comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Restart from the offline seed state (everything learned in-run
    /// is lost).
    Cold,
    /// Restore the last checkpoint snapshot (learned state survives up
    /// to the checkpoint).
    Warm,
}

/// Attacker crash schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashSpec {
    /// Crash instants, in seconds of sim time from run start.
    pub times_secs: Vec<u64>,
    /// Recovery mode applied at every crash in the schedule.
    pub recovery: CrashMode,
    /// Checkpoint cadence in seconds (warm recovery restores the last
    /// one taken); `None` means no checkpoints are ever taken.
    pub checkpoint_secs: Option<u64>,
}

/// Which faults are armed for a run. `None` in every slot (the
/// `Default` value) injects nothing and draws nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Bursty channel loss on top of the distance model.
    pub burst_loss: Option<BurstLossSpec>,
    /// In-flight frame corruption.
    pub corruption: Option<CorruptionSpec>,
    /// Mid-run client arrivals/departures.
    pub churn: Option<ChurnSpec>,
    /// Scheduled attacker crashes.
    pub crash: Option<CrashSpec>,
}

/// A scheduled attacker-lifecycle action, popped from
/// [`FaultPlan::next_action`] in time order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Take a snapshot the next warm restart can restore.
    Checkpoint,
    /// Kill and restart the attacker in the given mode.
    Crash(CrashMode),
}

/// A [`FaultSpec`] compiled against a seed: the deterministic stream of
/// injection decisions for one run.
///
/// Each fault class draws from its own forked RNG stream, so arming one
/// class never perturbs another's decisions, and nothing here ever
/// touches the run's simulation RNGs.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    channel: Option<GilbertElliott>,
    rng_channel: SimRng,
    rng_corrupt: SimRng,
    rng_churn: SimRng,
    crash_times: Vec<SimTime>,
    crash_idx: usize,
    next_checkpoint: Option<SimTime>,
    checkpoint_every: Option<SimDuration>,
}

impl FaultPlan {
    /// Compiles `spec` against `rng` (fork the run's root with a
    /// dedicated label; forking does not consume parent randomness).
    pub fn new(spec: FaultSpec, rng: &SimRng) -> Self {
        let channel = spec.burst_loss.as_ref().map(BurstLossSpec::chain);
        let mut crash_times: Vec<SimTime> = spec
            .crash
            .iter()
            .flat_map(|c| c.times_secs.iter().map(|&s| SimTime::from_secs(s)))
            .collect();
        crash_times.sort_unstable();
        crash_times.dedup();
        let checkpoint_every = spec
            .crash
            .as_ref()
            .and_then(|c| c.checkpoint_secs)
            .map(SimDuration::from_secs);
        FaultPlan {
            spec,
            channel,
            rng_channel: rng.fork("fault-channel"),
            rng_corrupt: rng.fork("fault-corrupt"),
            rng_churn: rng.fork("fault-churn"),
            crash_times,
            crash_idx: 0,
            next_checkpoint: checkpoint_every.map(|e| SimTime::ZERO.saturating_add(e)),
            checkpoint_every,
        }
    }

    /// The spec this plan was compiled from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Steps the burst channel for one frame; `true` means the frame is
    /// eaten by a loss burst. A plan without burst loss always returns
    /// `false` without drawing.
    pub fn channel_drops(&mut self) -> bool {
        match &mut self.channel {
            Some(chain) => chain.step(&mut self.rng_channel),
            None => false,
        }
    }

    /// `true` if this delivered frame should be corrupted in flight. A
    /// plan without corruption always returns `false` without drawing.
    pub fn corrupts(&mut self) -> bool {
        match &self.spec.corruption {
            Some(c) => {
                let rate = c.rate;
                self.rng_corrupt.chance(rate)
            }
            None => false,
        }
    }

    /// Mutates encoded frame bytes in place: roughly 30% truncations,
    /// otherwise 1–4 bit flips. Mutating an empty buffer is a no-op.
    pub fn mutate(&mut self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        if self.rng_corrupt.chance(0.3) {
            let keep = self.rng_corrupt.range_usize(0, bytes.len());
            bytes.truncate(keep);
        } else {
            let flips = self.rng_corrupt.range_usize(1, 5);
            for _ in 0..flips {
                let idx = self.rng_corrupt.range_usize(0, bytes.len());
                let bit = self.rng_corrupt.range_usize(0, 8);
                bytes[idx] ^= 1 << bit;
            }
        }
    }

    /// Applies churn to a visit window. Returns the (possibly shrunk)
    /// `(enter, exit)` pair; a churned visit either ends early (the
    /// phone departs mid-run) or starts late (it arrives mid-run),
    /// keeping 25–75% of its original dwell. A plan without churn
    /// returns the window unchanged without drawing.
    pub fn churn_visit(&mut self, enter: SimTime, exit: SimTime) -> (SimTime, SimTime) {
        let Some(churn) = &self.spec.churn else {
            return (enter, exit);
        };
        let rate = churn.rate;
        if !self.rng_churn.chance(rate) {
            return (enter, exit);
        }
        let dwell = exit.saturating_since(enter);
        if dwell.is_zero() {
            return (enter, exit);
        }
        let keep = dwell.mul_f64(self.rng_churn.range_f64(0.25, 0.75));
        if self.rng_churn.chance(0.5) {
            // Depart early: same arrival, truncated stay.
            (enter, enter.saturating_add(keep))
        } else {
            // Arrive late: same departure, delayed arrival.
            let start = SimTime::from_micros(exit.as_micros().saturating_sub(keep.as_micros()));
            (start.max(enter), exit)
        }
    }

    /// Pops the next scheduled lifecycle action due at or before `now`,
    /// earliest first (checkpoints win ties so a warm restart at the
    /// same instant restores fresh state). Call in a loop until `None`.
    pub fn next_action(&mut self, now: SimTime) -> Option<FaultAction> {
        let checkpoint_due = self.next_checkpoint.filter(|&t| t <= now);
        let crash_due = self
            .crash_times
            .get(self.crash_idx)
            .copied()
            .filter(|&t| t <= now);
        match (checkpoint_due, crash_due) {
            (Some(cp), Some(cr)) if cp <= cr => self.pop_checkpoint(cp),
            (Some(cp), None) => self.pop_checkpoint(cp),
            (_, Some(_)) => {
                self.crash_idx += 1;
                let mode = self
                    .spec
                    .crash
                    .as_ref()
                    .map_or(CrashMode::Cold, |c| c.recovery);
                Some(FaultAction::Crash(mode))
            }
            (None, None) => None,
        }
    }

    fn pop_checkpoint(&mut self, at: SimTime) -> Option<FaultAction> {
        self.next_checkpoint = self
            .checkpoint_every
            .and_then(|every| at.checked_add(every));
        Some(FaultAction::Checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(0xFA_017)
    }

    fn bursty() -> FaultSpec {
        FaultSpec {
            burst_loss: Some(BurstLossSpec {
                p_enter_bad: 0.05,
                p_exit_bad: 0.2,
                loss_bad: 0.9,
            }),
            ..FaultSpec::default()
        }
    }

    #[test]
    fn disabled_spec_is_disabled() {
        // The empty spec's plan answers every query with "no fault".
        let mut plan = FaultPlan::new(FaultSpec::default(), &rng());
        for i in 0..500 {
            assert!(!plan.channel_drops(), "frame {i}");
            assert!(!plan.corrupts(), "frame {i}");
            let (e, x) = plan.churn_visit(SimTime::ZERO, SimTime::from_secs(60));
            assert_eq!((e, x), (SimTime::ZERO, SimTime::from_secs(60)));
            assert_eq!(plan.next_action(SimTime::from_secs(i)), None);
        }
    }

    #[test]
    fn gilbert_elliott_bursts_and_recovers() {
        let mut chain = GilbertElliott::new(0.1, 0.3, 0.0, 1.0);
        let mut r = rng();
        let mut saw_bad = false;
        let mut saw_good_after_bad = false;
        let mut lost = 0usize;
        for _ in 0..10_000 {
            if chain.step(&mut r) {
                lost += 1;
            }
            match chain.state() {
                ChannelState::Bad => saw_bad = true,
                ChannelState::Good if saw_bad => saw_good_after_bad = true,
                ChannelState::Good => {}
            }
        }
        assert!(saw_bad && saw_good_after_bad, "chain never cycled");
        // Stationary bad fraction is p_enter/(p_enter+p_exit) = 0.25;
        // with loss_bad = 1.0, loss rate tracks it.
        assert!((1_500..3_500).contains(&lost), "lost={lost}");
        chain.reset();
        assert_eq!(chain.state(), ChannelState::Good);
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let spec = FaultSpec {
            corruption: Some(CorruptionSpec { rate: 0.5 }),
            ..bursty()
        };
        let mut a = FaultPlan::new(spec.clone(), &rng());
        let mut b = FaultPlan::new(spec, &rng());
        for _ in 0..1_000 {
            assert_eq!(a.channel_drops(), b.channel_drops());
            assert_eq!(a.corrupts(), b.corrupts());
        }
        let mut frame_a = vec![0xAAu8; 64];
        let mut frame_b = frame_a.clone();
        a.mutate(&mut frame_a);
        b.mutate(&mut frame_b);
        assert_eq!(frame_a, frame_b);
    }

    #[test]
    fn unarmed_classes_draw_nothing() {
        // A burst-only plan must answer corruption/churn queries without
        // consuming randomness: interleaving them cannot change the
        // channel stream.
        let mut pure = FaultPlan::new(bursty(), &rng());
        let mut mixed = FaultPlan::new(bursty(), &rng());
        for i in 0..500 {
            assert!(!mixed.corrupts());
            let (e, x) = mixed.churn_visit(SimTime::ZERO, SimTime::from_secs(60));
            assert_eq!((e, x), (SimTime::ZERO, SimTime::from_secs(60)));
            assert_eq!(pure.channel_drops(), mixed.channel_drops(), "frame {i}");
        }
    }

    #[test]
    fn mutate_changes_bytes_or_length() {
        let mut plan = FaultPlan::new(
            FaultSpec {
                corruption: Some(CorruptionSpec { rate: 1.0 }),
                ..FaultSpec::default()
            },
            &rng(),
        );
        let original = vec![0x5Au8; 40];
        let mut saw_truncation = false;
        let mut saw_flip = false;
        for _ in 0..200 {
            let mut frame = original.clone();
            plan.mutate(&mut frame);
            if frame.len() < original.len() {
                saw_truncation = true;
            } else if frame != original {
                saw_flip = true;
            }
            assert!(
                frame.len() < original.len() || frame != original,
                "mutation left the frame intact"
            );
        }
        assert!(saw_truncation && saw_flip);
        let mut empty = Vec::new();
        plan.mutate(&mut empty); // must not panic
        assert!(empty.is_empty());
    }

    #[test]
    fn churn_shrinks_but_never_extends_visits() {
        let mut plan = FaultPlan::new(
            FaultSpec {
                churn: Some(ChurnSpec { rate: 1.0 }),
                ..FaultSpec::default()
            },
            &rng(),
        );
        let enter = SimTime::from_secs(100);
        let exit = SimTime::from_secs(700);
        let dwell = exit.since(enter);
        for _ in 0..300 {
            let (e, x) = plan.churn_visit(enter, exit);
            assert!(e >= enter && x <= exit && e <= x, "window {e:?}..{x:?}");
            let kept = x.since(e);
            assert!(kept < dwell, "churned visit was not shortened");
            let frac = kept.as_secs_f64() / dwell.as_secs_f64();
            assert!((0.2..0.8).contains(&frac), "kept fraction {frac}");
        }
        // Zero-length visits pass through untouched.
        assert_eq!(plan.churn_visit(enter, enter), (enter, enter));
    }

    #[test]
    fn crash_schedule_pops_in_order_with_checkpoints() {
        let mut plan = FaultPlan::new(
            FaultSpec {
                crash: Some(CrashSpec {
                    times_secs: vec![300, 150, 300], // unsorted + duplicate
                    recovery: CrashMode::Warm,
                    checkpoint_secs: Some(100),
                }),
                ..FaultSpec::default()
            },
            &rng(),
        );
        let mut actions = Vec::new();
        let mut now = SimTime::ZERO;
        while now <= SimTime::from_secs(360) {
            while let Some(action) = plan.next_action(now) {
                actions.push((now.as_secs(), action));
            }
            now = now.saturating_add(SimDuration::from_secs(30));
        }
        use FaultAction::{Checkpoint, Crash};
        assert_eq!(
            actions,
            vec![
                (120, Checkpoint),
                (150, Crash(CrashMode::Warm)),
                (210, Checkpoint),
                (300, Checkpoint), // tie: checkpoint lands before the crash
                (300, Crash(CrashMode::Warm)),
            ]
        );
        assert_eq!(plan.next_action(SimTime::from_secs(360)), None);
    }

    #[test]
    fn crash_without_checkpoints_only_crashes() {
        let mut plan = FaultPlan::new(
            FaultSpec {
                crash: Some(CrashSpec {
                    times_secs: vec![60],
                    recovery: CrashMode::Cold,
                    checkpoint_secs: None,
                }),
                ..FaultSpec::default()
            },
            &rng(),
        );
        assert_eq!(plan.next_action(SimTime::from_secs(59)), None);
        assert_eq!(
            plan.next_action(SimTime::from_secs(61)),
            Some(FaultAction::Crash(CrashMode::Cold))
        );
        assert_eq!(plan.next_action(SimTime::from_secs(10_000)), None);
    }
}
