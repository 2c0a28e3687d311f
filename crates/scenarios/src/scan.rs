//! The scan kernel: the one probe → lures → join exchange that the
//! single-venue runner ([`crate::runner`]) and the sharded city
//! ([`crate::city`]) both run at every scan instant (DESIGN §14).
//!
//! In order: the range gate (an out-of-range phone still burns its
//! scan); §V-B deauth of a locally-connected client; the probes across
//! the lossy uplink and `respond_to_probe_into`; the lure burst
//! serialized against the client's listen window (§III-A) and the lossy
//! downlink; offer evaluation and the codec join handshake. The optional
//! [`Planes`] add fault injection, the detector tap and a frame
//! observer. Callers fold the returned [`ScanReport`] into their own
//! records and keep `Attacker::on_hit` outside. [`exchange`] is a
//! `ch-lint` `[hot-path]` root: with warm scratch a scan allocates
//! nothing, and its `.clone()`s copy frames whose only variable part, the
//! `Ssid`, is stored inline: fixed-size copies with no heap.

use ch_attack::ext::DeauthScheduler;
use ch_attack::{Attacker, Lure};
use ch_mobility::path::Visit;
use ch_phone::{JoinDecision, Phone};
use ch_sim::fault::FaultPlan;
use ch_sim::{LossModel, Position, SimRng, SimTime};
use ch_wifi::codec;
use ch_wifi::mgmt::{
    AssocRequest, AssocResponse, Authentication, CapabilityInfo, MgmtFrame, ProbeRequest,
    ProbeResponse, StatusCode,
};
use ch_wifi::timing;
use ch_wifi::{Channel, MacAddr};

use crate::detect::DetectionHarness;
use crate::metrics::RunnerStats;
use crate::runner::FrameObserver;

/// The attacker's side of the air at one deployment: where its radio
/// sits, the lossy medium around it, what it sends per probe, and its
/// per-victim deauth cooldowns.
pub(crate) struct Radio {
    /// Where the attacker's radio sits.
    pub pos: Position,
    /// Range and per-frame delivery probability.
    pub loss: LossModel,
    /// The medium's loss draws, in air order.
    pub rng: SimRng,
    /// The channel lures go out on.
    pub channel: Channel,
    /// Lures sent per probe; past the listen window they never land.
    pub budget: usize,
    /// Rate limit of the §V-B deauth extension.
    pub deauth: DeauthScheduler,
}

/// Per-scan buffers, reused across every scan (and, caller-owned, across
/// runs and districts): once warm, a scan touches no allocator. The call
/// that fills a buffer clears it first, so stale contents never leak.
#[derive(Default)]
pub(crate) struct ScanScratch {
    probes: Vec<ProbeRequest>,
    lures: Vec<Lure>,
    frame_buf: Vec<u8>,
}

impl ScanScratch {
    /// The lure at `index` of the last burst (see [`ScanReport::join`]).
    pub(crate) fn lure(&self, index: usize) -> &Lure {
        &self.lures[index]
    }
}

/// The optional planes of a run: deterministic fault injection with its
/// degradation counters, the rogue-AP detector's tap, and a frame
/// observer. The runner decides once per job whether any is armed.
pub(crate) struct Planes<'a> {
    /// Burst loss and corruption of delivered frames.
    pub fault: Option<&'a mut FaultPlan>,
    /// The passive monitor tapping delivered frames.
    pub detection: Option<&'a mut DetectionHarness>,
    /// Sees every delivered frame, join handshakes included.
    pub observer: Option<&'a mut dyn FrameObserver>,
    /// Where the fault plane counts what it ate.
    pub stats: &'a mut RunnerStats,
}

impl Planes<'_> {
    /// Runs a frame that crossed the medium through the fault plane and,
    /// if it lands, hands it to the observer and then the detector.
    /// `false` when a loss burst ate it or corruption left bytes that no
    /// longer decode to the frame that was sent (counted, never a panic).
    fn lands(&mut self, at: SimTime, frame: &MgmtFrame, frame_buf: &mut Vec<u8>) -> bool {
        if let Some(plan) = self.fault.as_deref_mut() {
            if plan.channel_drops() {
                self.stats.frames_burst_dropped += 1;
                return false;
            }
            if plan.corrupts() {
                self.stats.frames_corrupted += 1;
                codec::encode_into(frame, frame_buf);
                plan.mutate(frame_buf);
                if !matches!(codec::parse(frame_buf), Ok(parsed) if parsed == *frame) {
                    self.stats.frames_rejected += 1;
                    return false;
                }
            }
        }
        if let Some(observer) = self.observer.as_deref_mut() {
            observer.observe(at, frame);
        }
        if let Some(det) = self.detection.as_deref_mut() {
            det.observe(at, frame);
        }
        true
    }
}

/// How far a scan instant got.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Reach {
    /// The phone has left the venue.
    #[default]
    Gone,
    /// Out of attacker range: probes spent into the void.
    OutOfRange,
    /// The attacker deauthenticated the locally-connected client instead
    /// (`true` when the spoofed frame landed).
    Deauth(bool),
    /// In range but radio-silent (connected, or Wi-Fi idle).
    Silent,
    /// The phone probed.
    Probed,
}

/// What one scan instant did, for the caller's own records.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScanReport {
    /// How far the scan got.
    pub reach: Reach,
    /// Broadcast probes the attacker heard.
    pub heard_broadcast: u64,
    /// Direct probes the attacker heard.
    pub heard_direct: u64,
    /// Lures offered to broadcast probes.
    pub offered: u64,
    /// Lures that landed inside the listen window.
    pub delivered: u64,
    /// The association: the winning lure's index in the scratch
    /// ([`ScanScratch::lure`]) and when it landed.
    pub join: Option<(usize, SimTime)>,
}

impl ScanReport {
    fn reached(reach: Reach) -> ScanReport {
        ScanReport {
            reach,
            ..ScanReport::default()
        }
    }
}

/// Runs one scan instant of `phone` (walking `visit`) against `attacker`.
pub(crate) fn exchange(
    now: SimTime,
    phone: &mut Phone,
    visit: &Visit,
    attacker: &mut dyn Attacker,
    radio: &mut Radio,
    scratch: &mut ScanScratch,
    mut planes: Option<Planes<'_>>,
) -> ScanReport {
    let Some(position) = visit.position_at(now) else {
        return ScanReport::reached(Reach::Gone);
    };
    let distance = position.distance_to(radio.pos);
    let frame_buf = &mut scratch.frame_buf;
    if distance >= radio.loss.max_range_m() {
        phone.probes_for_scan_into(&mut scratch.probes);
        return ScanReport::reached(Reach::OutOfRange);
    }
    let delivery = radio.loss.delivery_prob(distance);
    if phone.connected_locally && attacker.deauth_enabled() {
        // §V-B: the attacker saw this client's data traffic and spoofs its
        // AP, at most once per cooldown, and the frame must survive the
        // medium. The client sends no probe in this scan either way.
        let fake_ap = MacAddr::from_index([0x00, 0x90, 0x4c], 77);
        let landed = radio
            .deauth
            .try_deauth(now, phone.mac, fake_ap)
            .is_some_and(|frame| {
                let frame = MgmtFrame::Deauthentication(frame);
                radio.rng.chance(delivery)
                    && planes
                        .as_mut()
                        .is_none_or(|p| p.lands(now, &frame, frame_buf))
            });
        if landed {
            phone.handle_deauth();
        }
        return ScanReport::reached(Reach::Deauth(landed));
    }
    if !phone.is_probing() {
        return ScanReport::reached(Reach::Silent);
    }
    let mut report = ScanReport::reached(Reach::Probed);
    phone.probes_for_scan_into(&mut scratch.probes);
    let client = phone.mac; // post-rotation address
    for probe in &scratch.probes {
        if !radio.rng.chance(delivery) {
            continue; // lost on the uplink
        }
        if let Some(planes) = planes.as_mut() {
            // ch-lint: allow(hot-path-alloc) — fixed-size copy, inline Ssid, no heap.
            let frame = MgmtFrame::ProbeRequest(probe.clone());
            // A mangled probe is rejected: the attacker never learns
            // this client probed at all.
            if !planes.lands(now, &frame, frame_buf) {
                continue;
            }
        }
        if probe.is_broadcast() {
            report.heard_broadcast += 1;
        } else {
            report.heard_direct += 1;
        }
        let lures = &mut scratch.lures;
        attacker.respond_to_probe_into(now, probe, radio.budget, lures);
        if lures.is_empty() {
            continue;
        }
        // Re-read the transmit BSSID per burst: MAC-rotation evasion
        // moves it mid-run (a plain attacker returns a constant).
        let bssid = attacker.bssid();
        if let Some(det) = planes.as_mut().and_then(|p| p.detection.as_deref_mut()) {
            det.note_rogue(bssid);
        }
        if probe.is_broadcast() {
            report.offered += lures.len() as u64;
        }
        let deadline = timing::listen_deadline(now);
        let mut elapsed = now;
        for (index, lure) in lures.iter().enumerate() {
            elapsed += timing::PROBE_RESPONSE_AIRTIME;
            if elapsed > deadline {
                break; // window closed; the rest of the burst is wasted
            }
            if !radio.rng.chance(delivery) {
                continue; // lost on the downlink
            }
            let response = ProbeResponse::open_lure(
                bssid,
                client,
                // ch-lint: allow(hot-path-alloc) — inline Ssid copy, no heap.
                lure.ssid.clone(),
                radio.channel,
            );
            if let Some(planes) = planes.as_mut() {
                // ch-lint: allow(hot-path-alloc) — fixed-size copy, inline Ssid, no heap.
                let frame = MgmtFrame::ProbeResponse(response.clone());
                // A mangled lure is rejected; the phone keeps listening.
                if !planes.lands(elapsed, &frame, frame_buf) {
                    continue;
                }
            }
            report.delivered += 1;
            if phone.evaluate_offer(&response) == JoinDecision::Join {
                if join(phone, bssid, response, elapsed, frame_buf, planes.as_mut()) {
                    report.join = Some((index, elapsed));
                    return report;
                }
                break;
            }
        }
    }
    report
}

/// Runs the open-system join through the byte-level codec: auth request →
/// auth response → association request → association response. Returns
/// `true` (and connects the phone) on success; any codec failure would
/// surface here exactly as it would against real hardware.
fn join(
    phone: &mut Phone,
    bssid: MacAddr,
    offer: ProbeResponse,
    at: SimTime,
    frame_buf: &mut Vec<u8>,
    mut planes: Option<&mut Planes<'_>>,
) -> bool {
    let legs = [
        MgmtFrame::Authentication(Authentication::request(phone.mac, bssid)),
        MgmtFrame::Authentication(Authentication::response(
            bssid,
            phone.mac,
            StatusCode::Success,
        )),
        MgmtFrame::AssocRequest(AssocRequest {
            source: phone.mac,
            bssid,
            // ch-lint: allow(hot-path-alloc) — inline Ssid copy, no heap.
            ssid: offer.ssid.clone(),
            capabilities: CapabilityInfo::open_ap(),
        }),
        MgmtFrame::AssocResponse(AssocResponse {
            bssid,
            destination: phone.mac,
            status: StatusCode::Success,
            association_id: 1,
        }),
    ];
    for frame in &legs {
        codec::encode_into(frame, frame_buf);
        match codec::parse(frame_buf) {
            Ok(parsed) if &parsed == frame => {}
            _ => return false,
        }
        if let Some(observer) = planes.as_mut().and_then(|p| p.observer.as_deref_mut()) {
            observer.observe(at, frame); // the detector taps no handshake
        }
    }
    phone.connect_to(offer.ssid);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::CampaignCtx;
    use crate::world::CityData;
    use ch_attack::{AttackerSpec, CityHunterConfig};
    use ch_mobility::arrival::GroupArrival;
    use ch_mobility::path::visits_for_group;
    use ch_mobility::VenueKind;
    use ch_sim::SimDuration;

    /// A canteen visitor with Wi-Fi on, a deauth-capable City-Hunter,
    /// and a lossless radio that covers the whole venue.
    fn lossless_canteen() -> (Phone, Visit, Box<dyn Attacker>, Radio) {
        let ctx = CampaignCtx::build(&CityData::standard(99));
        let plan = ctx.plan(VenueKind::Canteen);
        let venue = VenueKind::Canteen.template();
        let mut rng = SimRng::seed_from(5);
        let group = GroupArrival {
            group_id: 0,
            arrive_at: SimTime::from_secs(10),
            size: 1,
        };
        let visit = visits_for_group(&venue, &group, &mut rng).pop().unwrap();
        let mut phone = ctx
            .population_builder(plan.population.clone())
            .phones_for_group(0, 1, &mut rng)
            .pop()
            .unwrap();
        phone.wifi_active = true;
        let attacker = AttackerSpec::CityHunter(CityHunterConfig {
            deauth: true,
            ..CityHunterConfig::default()
        })
        .build_from_plan(AttackerSpec::default_bssid(), &plan.attack);
        let radio = Radio {
            pos: venue.attacker,
            loss: LossModel::new(1_000.0, 2_000.0, 1.0),
            rng: rng.fork("medium"),
            channel: Channel::default_attack_channel(),
            budget: timing::responses_per_scan(),
            deauth: DeauthScheduler::default_30s(),
        };
        (phone, visit, attacker, radio)
    }

    #[test]
    fn deauth_spends_the_scan_and_keeps_its_cooldown() {
        let (mut phone, visit, mut attacker, mut radio) = lossless_canteen();
        let mut scratch = ScanScratch::default();
        let t0 = visit.enter_at;
        assert!(visit.exit_at > t0 + SimDuration::from_secs(60), "{visit:?}");
        let mut scan = |phone: &mut Phone, after_secs: u64| {
            let at = t0 + SimDuration::from_secs(after_secs);
            exchange(
                at,
                phone,
                &visit,
                attacker.as_mut(),
                &mut radio,
                &mut scratch,
                None,
            )
        };

        // The spoofed frame lands; the phone drops its AP and sends no
        // probe in this scan.
        phone.connected_locally = true;
        let report = scan(&mut phone, 0);
        assert_eq!(report.reach, Reach::Deauth(true));
        assert_eq!(report.heard_broadcast + report.heard_direct, 0);
        assert!(!phone.connected_locally && phone.is_probing());

        // Reconnected inside the 30 s cooldown: no second frame, and the
        // scan is spent all the same.
        phone.connected_locally = true;
        let report = scan(&mut phone, 10);
        assert_eq!(report.reach, Reach::Deauth(false));
        assert!(phone.connected_locally);

        // Past the cooldown the attacker deauths again, and the freed
        // phone probes at its next scan.
        assert_eq!(scan(&mut phone, 31).reach, Reach::Deauth(true));
        let report = scan(&mut phone, 40);
        assert_eq!(report.reach, Reach::Probed);
        assert!(report.heard_broadcast >= 1, "{report:?}");
    }

    #[test]
    fn out_of_range_phones_burn_their_scan_unheard() {
        let (mut phone, visit, mut attacker, mut radio) = lossless_canteen();
        phone.connected_locally = false;
        radio.loss = LossModel::new(0.001, 0.001, 1.0);
        let mut scratch = ScanScratch::default();
        let before = radio.rng.clone();
        let report = exchange(
            visit.enter_at,
            &mut phone,
            &visit,
            attacker.as_mut(),
            &mut radio,
            &mut scratch,
            None,
        );
        assert_eq!(report.reach, Reach::OutOfRange);
        assert_eq!(report.heard_broadcast + report.heard_direct, 0);
        // The phone emitted its probes into the void, and the medium drew
        // nothing for them.
        assert!(!scratch.probes.is_empty());
        assert_eq!(radio.rng.next_u64(), before.clone().next_u64());
    }
}
