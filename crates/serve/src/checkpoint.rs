//! Checkpoint codec: full service state to/from one JSON object.
//!
//! A checkpoint captures everything [`crate::Service`] needs to resume a
//! stream mid-flight and replay the remainder **byte-identically**: the
//! acked input offset, the output stream's committed byte length, the
//! virtual clock and ingest ring, the offered-lure map, the counters and
//! latency histogram, and the attacker's learned state as one
//! [`AttackerState`] (databases, trackers, buffers, RNG words, evasion
//! state — recursively for evasive wrappers).
//!
//! Values that can exceed 2⁵³ (RNG words, fingerprints, rotation slots)
//! are carried as decimal strings by the fleet's `u64` [`ManifestCodec`],
//! because the fleet's `Json` numbers ride on `f64`. `SsidId`s are
//! interner indices with no unchecked constructor, so the codec
//! serializes the database in dense interner-id order and, on restore,
//! replays [`SsidDatabase::restore_entry`] in that order — collecting the
//! freshly assigned ids so every stored index list can be remapped
//! through them (a fresh interner fed the same names in the same order
//! assigns the same dense ids).
//!
//! Saves are atomic (stage to `.tmp`, rename); loads distinguish
//! "no checkpoint" from "unusable checkpoint" so the caller can count a
//! cold-start fallback instead of silently losing state.

use std::path::Path;

use ch_attack::{
    buffers::AdaptiveBuffers, AttackerState, CityHunterState, ClientTracker, DbEntry, EvasionState,
    Lure, ManaState, PrelimState, SsidDatabase,
};
use ch_fleet::{Json, ManifestCodec};
use ch_sim::{Cadence, SimDuration, SimRng, SimTime};
use ch_wifi::{MacAddr, Ssid, SsidId};

use crate::protocol::{lane_name, parse_lane, parse_source, source_name, PROTOCOL_VERSION};
use crate::service::Service;

/// Where a restored run resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestorePoint {
    /// Input events already consumed (replay starts at this index).
    pub acked: u64,
    /// Committed output bytes — the recovery path truncates the output
    /// stream back to this length before appending.
    pub out_bytes: u64,
}

fn field<'a>(value: &'a Json, name: &'static str) -> Result<&'a Json, String> {
    value
        .get(name)
        .ok_or_else(|| format!("checkpoint missing field `{name}`"))
}

fn field_u64(value: &Json, name: &'static str) -> Result<u64, String> {
    u64::from_json(field(value, name)?).ok_or_else(|| format!("checkpoint bad field `{name}`"))
}

fn parse_mac(value: &Json, what: &str) -> Result<MacAddr, String> {
    value
        .as_str()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("checkpoint bad {what}"))
}

fn parse_ssid(value: &Json, what: &str) -> Result<Ssid, String> {
    value
        .as_str()
        .and_then(|s| Ssid::new(s).ok())
        .ok_or_else(|| format!("checkpoint bad {what}"))
}

// --- database codec -------------------------------------------------------

/// The database as rows in dense interner-id order:
/// `[ssid, weight, source, hits, last_hit_us|null, added_at_us]`.
fn db_to_json(db: &SsidDatabase) -> Result<Json, String> {
    let mut rows = Vec::with_capacity(db.interner().len());
    for ssid in db.interner().names() {
        let id = db
            .id_of(ssid)
            .ok_or_else(|| format!("interned ssid `{}` has no db entry", ssid.as_str()))?;
        let entry = db
            .entry_by_id(id)
            .ok_or_else(|| format!("db id for `{}` has no entry", ssid.as_str()))?;
        rows.push(Json::Arr(vec![
            Json::str(ssid.as_str()),
            Json::Num(entry.weight),
            Json::str(source_name(entry.source)),
            Json::from_u64(u64::from(entry.hits)),
            match entry.last_hit {
                Some(at) => at.as_micros().to_json(),
                None => Json::Null,
            },
            entry.added_at.as_micros().to_json(),
        ]));
    }
    Ok(Json::Arr(rows))
}

/// Rebuilds a database from [`db_to_json`] rows. Returns the database
/// plus the id assigned to each row, in row order — `ids[i]` is the new
/// [`SsidId`] for what was interner index `i` at export time.
fn db_from_json(value: &Json) -> Result<(SsidDatabase, Vec<SsidId>), String> {
    let rows = value.as_arr().ok_or("checkpoint db is not an array")?;
    let mut db = SsidDatabase::default();
    let mut ids = Vec::with_capacity(rows.len());
    for row in rows {
        let row = row.as_arr().ok_or("checkpoint db row is not an array")?;
        let [ssid, weight, source, hits, last_hit, added_at] = row else {
            return Err("checkpoint db row has wrong arity".to_string());
        };
        let ssid = parse_ssid(ssid, "db ssid")?;
        let entry = DbEntry {
            weight: weight.as_f64().ok_or("checkpoint bad db weight")?,
            source: source
                .as_str()
                .and_then(parse_source)
                .ok_or("checkpoint bad db source")?,
            hits: u32::try_from(u64::from_json(hits).ok_or("checkpoint bad db hits")?)
                .map_err(|_| "checkpoint db hits out of range")?,
            last_hit: match last_hit {
                Json::Null => None,
                other => Some(SimTime::from_micros(
                    u64::from_json(other).ok_or("checkpoint bad db last_hit")?,
                )),
            },
            added_at: SimTime::from_micros(
                u64::from_json(added_at).ok_or("checkpoint bad db added_at")?,
            ),
        };
        ids.push(db.restore_entry(&ssid, entry));
    }
    Ok((db, ids))
}

fn id_list_to_json(ids: &[SsidId]) -> Json {
    Json::Arr(ids.iter().map(|id| Json::from_usize(id.index())).collect())
}

/// Remaps a stored index list through the freshly assigned ids.
fn id_list_from_json(value: &Json, ids: &[SsidId], what: &str) -> Result<Vec<SsidId>, String> {
    let items = value
        .as_arr()
        .ok_or_else(|| format!("checkpoint {what} is not an array"))?;
    items
        .iter()
        .map(|item| {
            item.as_usize()
                .and_then(|index| ids.get(index).copied())
                .ok_or_else(|| format!("checkpoint {what} index out of range"))
        })
        .collect()
}

fn mac_id_pairs_to_json<'a>(
    pairs: impl IntoIterator<Item = (&'a MacAddr, &'a Vec<SsidId>)>,
) -> Json {
    Json::Arr(
        pairs
            .into_iter()
            .map(|(mac, ids)| Json::Arr(vec![Json::str(mac.to_string()), id_list_to_json(ids)]))
            .collect(),
    )
}

fn mac_id_pairs_from_json(
    value: &Json,
    ids: &[SsidId],
    what: &str,
) -> Result<Vec<(MacAddr, Vec<SsidId>)>, String> {
    let items = value
        .as_arr()
        .ok_or_else(|| format!("checkpoint {what} is not an array"))?;
    items
        .iter()
        .map(|item| {
            let pair = item
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("checkpoint {what} pair malformed"))?;
            Ok((
                parse_mac(&pair[0], what)?,
                id_list_from_json(&pair[1], ids, what)?,
            ))
        })
        .collect()
}

fn tracker_to_json(tracker: &ClientTracker, db: &SsidDatabase) -> Json {
    let sent = tracker.export_sorted(db.interner());
    mac_id_pairs_to_json(sent.iter().map(|(mac, ids)| (mac, ids)))
}

fn tracker_from_json(value: &Json, ids: &[SsidId]) -> Result<ClientTracker, String> {
    let mut tracker = ClientTracker::new();
    tracker.restore(mac_id_pairs_from_json(value, ids, "tracker")?);
    Ok(tracker)
}

// --- attacker codec -------------------------------------------------------

/// The attacker's learned state, recursing into evasive wrappers.
fn state_to_json(state: &AttackerState) -> Result<Json, String> {
    let fields = match state {
        AttackerState::Karma(mimicked) => vec![
            ("kind", Json::str("karma")),
            (
                "mimicked",
                Json::Arr(
                    mimicked
                        .iter()
                        .map(|ssid| Json::str(ssid.as_str()))
                        .collect(),
                ),
            ),
        ],
        AttackerState::Mana(mana) => vec![
            ("kind", Json::str("mana")),
            ("db", db_to_json(&mana.db)?),
            ("harvest_order", id_list_to_json(&mana.harvest_order)),
        ],
        AttackerState::Prelim(prelim) => vec![
            ("kind", Json::str("prelim")),
            ("db", db_to_json(&prelim.db)?),
            ("reply_order", id_list_to_json(&prelim.reply_order)),
            ("tracker", tracker_to_json(&prelim.tracker, &prelim.db)),
        ],
        AttackerState::CityHunter(hunter) => {
            let (p, f) = hunter.buffers.sizes();
            vec![
                ("kind", Json::str("cityhunter")),
                ("db", db_to_json(&hunter.db)?),
                (
                    "buffers",
                    Json::Arr(vec![
                        Json::from_usize(p),
                        Json::from_usize(f),
                        Json::from_usize(hunter.buffers.total()),
                        Json::Bool(hunter.buffers.is_adaptive()),
                    ]),
                ),
                ("tracker", tracker_to_json(&hunter.tracker, &hunter.db)),
                (
                    "rng",
                    Json::Arr(hunter.rng.save_state().iter().map(u64::to_json).collect()),
                ),
                ("restarts", Json::from_u64(u64::from(hunter.restarts))),
            ]
        }
        AttackerState::Evasive(evasion, inner) => vec![
            ("kind", Json::str("evasive")),
            (
                "state",
                Json::Arr(vec![
                    evasion.rotation_slot.to_json(),
                    Json::str(evasion.current_bssid.to_string()),
                    evasion.throttle_window.to_json(),
                    Json::from_u64(u64::from(evasion.sent_in_window)),
                    evasion.beacons.next_at().as_micros().to_json(),
                    evasion.beacons.period().as_micros().to_json(),
                ]),
            ),
            ("inner", state_to_json(inner)?),
        ],
    };
    Ok(Json::Obj(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    ))
}

/// Reads [`state_to_json`] output back.
fn state_from_json(value: &Json) -> Result<AttackerState, String> {
    let kind = field(value, "kind")?
        .as_str()
        .ok_or("checkpoint attacker kind missing")?;
    match kind {
        "karma" => {
            let mimicked = field(value, "mimicked")?
                .as_arr()
                .ok_or("checkpoint mimicked is not an array")?
                .iter()
                .map(|item| parse_ssid(item, "mimicked ssid"))
                .collect::<Result<Vec<Ssid>, String>>()?;
            Ok(AttackerState::Karma(mimicked))
        }
        "mana" => {
            let (db, ids) = db_from_json(field(value, "db")?)?;
            Ok(AttackerState::Mana(ManaState {
                db,
                harvest_order: id_list_from_json(
                    field(value, "harvest_order")?,
                    &ids,
                    "harvest_order",
                )?,
            }))
        }
        "prelim" => {
            let (db, ids) = db_from_json(field(value, "db")?)?;
            Ok(AttackerState::Prelim(PrelimState {
                db,
                reply_order: id_list_from_json(field(value, "reply_order")?, &ids, "reply_order")?,
                tracker: tracker_from_json(field(value, "tracker")?, &ids)?,
            }))
        }
        "cityhunter" => {
            let (db, ids) = db_from_json(field(value, "db")?)?;
            let tracker = tracker_from_json(field(value, "tracker")?, &ids)?;
            let raw = field(value, "buffers")?
                .as_arr()
                .filter(|b| b.len() == 4)
                .ok_or("checkpoint buffers malformed")?;
            let buffers = AdaptiveBuffers::from_parts(
                raw[0].as_usize().ok_or("checkpoint bad buffer p")?,
                raw[1].as_usize().ok_or("checkpoint bad buffer f")?,
                raw[2].as_usize().ok_or("checkpoint bad buffer total")?,
                raw[3].as_bool().ok_or("checkpoint bad buffer mode")?,
            )
            .ok_or("checkpoint buffer sizes inconsistent")?;
            let rng_words = field(value, "rng")?
                .as_arr()
                .filter(|w| w.len() == 5)
                .ok_or("checkpoint rng malformed")?;
            let mut rng = [0u64; 5];
            for (slot, word) in rng.iter_mut().zip(rng_words) {
                *slot = u64::from_json(word).ok_or("checkpoint bad rng word")?;
            }
            let restarts = u32::try_from(field_u64(value, "restarts")?)
                .map_err(|_| "checkpoint restarts out of range")?;
            Ok(AttackerState::CityHunter(CityHunterState {
                db,
                buffers,
                tracker,
                rng: SimRng::from_state(rng),
                restarts,
            }))
        }
        "evasive" => {
            let raw = field(value, "state")?
                .as_arr()
                .filter(|s| s.len() == 6)
                .ok_or("checkpoint evasion state malformed")?;
            let word = |i: usize, what: &str| {
                u64::from_json(&raw[i]).ok_or_else(|| format!("checkpoint bad {what}"))
            };
            let state = EvasionState {
                rotation_slot: word(0, "rotation slot")?,
                current_bssid: parse_mac(&raw[1], "evasion bssid")?,
                throttle_window: word(2, "throttle window")?,
                sent_in_window: u32::try_from(word(3, "throttle count")?)
                    .map_err(|_| "checkpoint throttle count out of range")?,
                beacons: Cadence::new(
                    SimDuration::from_micros(word(5, "beacon period")?),
                    SimTime::from_micros(word(4, "beacon next")?),
                ),
            };
            let inner = state_from_json(field(value, "inner")?)?;
            Ok(AttackerState::Evasive(state, Box::new(inner)))
        }
        other => Err(format!("checkpoint attacker kind `{other}` is unknown")),
    }
}

// --- service codec --------------------------------------------------------

fn offered_to_json(service: &Service) -> Json {
    let mut pairs: Vec<(&MacAddr, &Vec<Lure>)> = service.offered.iter().collect();
    pairs.sort_unstable_by_key(|(mac, _)| mac.octets());
    Json::Arr(
        pairs
            .into_iter()
            .map(|(mac, burst)| {
                Json::Arr(vec![
                    Json::str(mac.to_string()),
                    Json::Arr(
                        burst
                            .iter()
                            .map(|lure| {
                                Json::Arr(vec![
                                    Json::str(lure.ssid.as_str()),
                                    Json::str(source_name(lure.source)),
                                    Json::str(lane_name(lure.lane)),
                                ])
                            })
                            .collect(),
                    ),
                ])
            })
            .collect(),
    )
}

fn offered_from_json(service: &mut Service, value: &Json) -> Result<(), String> {
    let pairs = value.as_arr().ok_or("checkpoint offered is not an array")?;
    service.offered.clear();
    for pair in pairs {
        let pair = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or("checkpoint offered pair malformed")?;
        let mac = parse_mac(&pair[0], "offered client")?;
        let burst = pair[1]
            .as_arr()
            .ok_or("checkpoint offered burst is not an array")?
            .iter()
            .map(|lure| {
                let lure = lure
                    .as_arr()
                    .filter(|l| l.len() == 3)
                    .ok_or("checkpoint offered lure malformed")?;
                Ok(Lure {
                    ssid: parse_ssid(&lure[0], "offered ssid")?,
                    source: lure[1]
                        .as_str()
                        .and_then(parse_source)
                        .ok_or("checkpoint bad offered source")?,
                    lane: lure[2]
                        .as_str()
                        .and_then(parse_lane)
                        .ok_or("checkpoint bad offered lane")?,
                })
            })
            .collect::<Result<Vec<Lure>, String>>()?;
        service.offered.insert(mac, burst);
    }
    Ok(())
}

/// Renders the full checkpoint for `service` with `out_bytes` output
/// bytes committed so far.
pub fn to_json(service: &Service, out_bytes: u64) -> Json {
    let attacker = AttackerState::save(service.attacker.as_ref())
        .ok_or_else(|| {
            format!(
                "the live `{}` attacker has no saveable state",
                service.attacker.name()
            )
        })
        .and_then(|state| state_to_json(&state))
        .unwrap_or_else(|reason| Json::Obj(vec![("error".to_string(), Json::str(reason))]));
    Json::Obj(vec![
        ("v".to_string(), Json::str(PROTOCOL_VERSION)),
        ("kind".to_string(), Json::str("checkpoint")),
        (
            "fingerprint".to_string(),
            Json::str(service.fingerprint.to_string()),
        ),
        ("acked".to_string(), Json::from_u64(service.acked())),
        ("out_bytes".to_string(), out_bytes.to_json()),
        ("clock_us".to_string(), service.clock_us.to_json()),
        ("stats".to_string(), service.stats.to_json()),
        (
            "hist".to_string(),
            Json::Arr(service.hist.iter().map(u64::to_json).collect()),
        ),
        (
            "inflight".to_string(),
            Json::Arr(service.inflight.iter().map(u64::to_json).collect()),
        ),
        ("offered".to_string(), offered_to_json(service)),
        ("attacker".to_string(), attacker),
    ])
}

/// Loads a checkpoint file.
///
/// # Errors
///
/// `Ok(None)` when no checkpoint exists; `Err` when one exists but is
/// unreadable or not JSON (the caller counts a cold start).
pub fn load(path: &Path) -> Result<Option<Json>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read checkpoint `{}`: {e}", path.display())),
    };
    Json::parse(text.trim())
        .map(Some)
        .map_err(|e| format!("parse checkpoint `{}`: {e}", path.display()))
}

/// Applies a loaded checkpoint to a freshly built service.
///
/// # Errors
///
/// A rendered reason when the checkpoint is malformed, truncated, or was
/// written by a different configuration (fingerprint mismatch). The
/// service may be left half-restored on error — the caller must rebuild
/// it cold.
pub fn restore(service: &mut Service, checkpoint: &Json) -> Result<RestorePoint, String> {
    match field(checkpoint, "v")?.as_str() {
        Some(v) if v == PROTOCOL_VERSION => {}
        _ => return Err("checkpoint protocol version mismatch".to_string()),
    }
    let fingerprint = field(checkpoint, "fingerprint")?
        .as_str()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or("checkpoint fingerprint malformed")?;
    if fingerprint != service.fingerprint {
        return Err(format!(
            "checkpoint fingerprint {fingerprint} does not match configuration {}",
            service.fingerprint
        ));
    }
    let acked = field_u64(checkpoint, "acked")?;
    let out_bytes = field_u64(checkpoint, "out_bytes")?;
    service.clock_us = field_u64(checkpoint, "clock_us")?;
    service.stats = crate::protocol::ServiceStats::from_json(field(checkpoint, "stats")?)
        .map_err(|e| format!("checkpoint stats: {e}"))?;
    if service.stats.events != acked {
        return Err("checkpoint acked/stats disagreement".to_string());
    }
    let hist = field(checkpoint, "hist")?
        .as_arr()
        .filter(|h| h.len() == service.hist.len())
        .ok_or("checkpoint hist malformed")?;
    for (slot, bucket) in service.hist.iter_mut().zip(hist) {
        *slot = u64::from_json(bucket).ok_or("checkpoint bad hist bucket")?;
    }
    let inflight = field(checkpoint, "inflight")?
        .as_arr()
        .ok_or("checkpoint inflight is not an array")?;
    service.inflight.clear();
    for t in inflight {
        service
            .inflight
            .push_back(u64::from_json(t).ok_or("checkpoint bad inflight time")?);
    }
    offered_from_json(service, field(checkpoint, "offered")?)?;
    state_from_json(field(checkpoint, "attacker")?)?.load(service.attacker.as_mut())?;
    Ok(RestorePoint { acked, out_bytes })
}
