//! Scan-timing arithmetic — the quantitative heart of §III-A.
//!
//! After sending a probe request, a client listens ~10 ms for the first
//! probe response and then at most another ~10 ms; transmitting one probe
//! response takes ~0.25 ms at management rates. An AP on one channel can
//! therefore land only about **40** probe responses per scan — which is why
//! MANA's strategy of replaying its whole database achieves nothing beyond
//! the first 40 SSIDs, and why City-Hunter invests so much in *choosing*
//! those 40.

use ch_sim::{SimDuration, SimTime};

/// How long a client waits for the *first* probe response.
pub const INITIAL_WAIT: SimDuration = SimDuration::from_millis(10);

/// How long the client keeps listening once responses are flowing.
pub const EXTENDED_WAIT: SimDuration = SimDuration::from_millis(10);

/// Airtime of one probe response at management (1 Mb/s) rates, per the
/// measurement cited by the paper (Castignani et al.): ~0.25 ms.
pub const PROBE_RESPONSE_AIRTIME: SimDuration = SimDuration::from_micros(250);

/// Airtime of a (short) probe request.
pub const PROBE_REQUEST_AIRTIME: SimDuration = SimDuration::from_micros(120);

/// The per-scan response budget: how many probe responses fit in the
/// client's listen window.
pub fn responses_per_scan() -> usize {
    (EXTENDED_WAIT / PROBE_RESPONSE_AIRTIME) as usize
}

/// The instant a client that probed at `probe_at` stops listening, assuming
/// the first probe response starts immediately: the first response occupies
/// its own airtime, then the client waits [`EXTENDED_WAIT`] more — "a
/// client can only wait at most 10 ms after receiving a first probe
/// response" (§III-A), which is what caps reception near 40 frames.
pub fn listen_deadline(probe_at: SimTime) -> SimTime {
    probe_at + PROBE_RESPONSE_AIRTIME + EXTENDED_WAIT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_forty() {
        // The paper's headline constant.
        assert_eq!(responses_per_scan(), 40);
    }

    #[test]
    fn listen_deadline_caps_reception_near_forty() {
        let t0 = SimTime::from_secs(5);
        let deadline = listen_deadline(t0);
        assert_eq!(deadline, t0 + SimDuration::from_micros(10_250));
        // Frames that fit back-to-back inside the window:
        let frames = deadline.since(t0) / PROBE_RESPONSE_AIRTIME;
        assert_eq!(frames, 41, "one in-flight + the 40-frame budget");
    }
}
