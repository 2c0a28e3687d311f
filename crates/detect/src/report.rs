//! Ground-truth evaluation of a detector run.
//!
//! The sim knows which MACs the rogue actually transmitted from (evasion
//! may rotate through several) and which APs were legitimate; scoring a
//! [`Detector`] against that ground truth yields the
//! precision / recall / time-to-detect numbers the `arms_race` experiment
//! tabulates.

use ch_sim::{DetHashSet, SimTime};
use ch_wifi::mac::MacAddr;

use crate::detector::Detector;

/// Integer-only summary of a detector run against known ground truth.
/// All fields are exact counts so fleet manifests round-trip the record
/// byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectionReport {
    /// Frames the detector observed.
    pub frames_observed: u64,
    /// Distinct MACs the rogue transmitted from.
    pub rogue_macs: u64,
    /// Legitimate APs present.
    pub legit_aps: u64,
    /// Verdicts emitted in total.
    pub verdicts: u64,
    /// Verdicts naming a rogue MAC.
    pub rogue_verdicts: u64,
    /// Distinct flagged APs in total.
    pub flagged: u64,
    /// Distinct rogue MACs flagged (true positives).
    pub flagged_rogue: u64,
    /// Distinct legitimate APs flagged (false positives).
    pub flagged_legit: u64,
    /// First time any rogue MAC was flagged, in microseconds.
    pub time_to_detect_us: Option<u64>,
}

impl DetectionReport {
    /// Scores `detector` against the known rogue and legitimate MAC sets.
    pub fn evaluate(
        detector: &Detector,
        rogue: &DetHashSet<MacAddr>,
        legit: &DetHashSet<MacAddr>,
    ) -> Self {
        let mut report = DetectionReport {
            frames_observed: detector.frames_observed(),
            rogue_macs: rogue.len() as u64,
            legit_aps: legit.len() as u64,
            verdicts: detector.verdicts().len() as u64,
            ..DetectionReport::default()
        };
        for verdict in detector.verdicts() {
            if rogue.contains(&verdict.bssid) {
                report.rogue_verdicts += 1;
            }
        }
        let mut first: Option<SimTime> = None;
        for (bssid, at) in detector.flagged() {
            report.flagged += 1;
            if rogue.contains(&bssid) {
                report.flagged_rogue += 1;
                first = Some(match first {
                    Some(t) => t.min(at),
                    None => at,
                });
            } else if legit.contains(&bssid) {
                report.flagged_legit += 1;
            }
        }
        report.time_to_detect_us = first.map(SimTime::as_micros);
        report
    }

    /// `true` if the rogue was caught at least once.
    pub fn detected(&self) -> bool {
        self.flagged_rogue > 0
    }

    /// Flagged-AP precision: rogue MACs flagged over all APs flagged.
    /// `None` when nothing was flagged.
    pub fn precision(&self) -> Option<f64> {
        if self.flagged == 0 {
            None
        } else {
            Some(self.flagged_rogue as f64 / self.flagged as f64)
        }
    }

    /// Time to first detection, if the rogue was caught.
    pub fn time_to_detect(&self) -> Option<SimTime> {
        self.time_to_detect_us.map(SimTime::from_micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectorSpec, Strictness};
    use ch_sim::det_hash_set;
    use ch_wifi::channel::Channel;
    use ch_wifi::mgmt::{MgmtFrame, ProbeRequest, ProbeResponse};
    use ch_wifi::ssid::Ssid;

    #[test]
    fn report_scores_ground_truth() {
        let rogue_mac = MacAddr::from_index([0x0a, 0xbc, 0xde], 1);
        let legit_mac = MacAddr::from_index([0x00, 0x90, 0x4c], 9);
        let client = MacAddr::from_index([0xac, 0x37, 0x43], 7);
        let other = MacAddr::from_index([0xac, 0x37, 0x43], 8);

        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        // Rogue: broadcast bait burst.
        detector.observe(
            SimTime::from_secs(1),
            &MgmtFrame::ProbeRequest(ProbeRequest::broadcast(client)),
        );
        for i in 0..6 {
            detector.observe(
                SimTime::from_secs(1),
                &MgmtFrame::ProbeResponse(ProbeResponse::open_lure(
                    rogue_mac,
                    client,
                    Ssid::new(format!("bait-{i}")).unwrap(),
                    Channel::default(),
                )),
            );
        }
        // Legit AP tripped by PNL correlation at paranoid strictness.
        detector.observe(
            SimTime::from_secs(2),
            &MgmtFrame::ProbeRequest(ProbeRequest::direct(other, Ssid::new("CSL").unwrap())),
        );
        for _ in 0..4 {
            detector.observe(
                SimTime::from_secs(3),
                &MgmtFrame::ProbeResponse(ProbeResponse::open_lure(
                    legit_mac,
                    client,
                    Ssid::new("CSL").unwrap(),
                    Channel::default(),
                )),
            );
        }

        let mut rogue = det_hash_set();
        rogue.insert(rogue_mac);
        let mut legit = det_hash_set();
        legit.insert(legit_mac);
        let report = DetectionReport::evaluate(&detector, &rogue, &legit);

        assert!(report.detected());
        assert_eq!(report.rogue_macs, 1);
        assert_eq!(report.legit_aps, 1);
        assert_eq!(report.flagged, 2);
        assert_eq!(report.flagged_rogue, 1);
        assert_eq!(report.flagged_legit, 1);
        assert_eq!(report.precision(), Some(0.5));
        assert_eq!(report.time_to_detect(), Some(SimTime::from_secs(1)));
        assert!(report.rogue_verdicts >= 1);
    }

    #[test]
    fn empty_run_has_no_precision() {
        let detector = Detector::new(DetectorSpec::standard());
        let report = DetectionReport::evaluate(&detector, &det_hash_set(), &det_hash_set());
        assert!(!report.detected());
        assert_eq!(report.precision(), None);
        assert_eq!(report.time_to_detect(), None);
    }
}
