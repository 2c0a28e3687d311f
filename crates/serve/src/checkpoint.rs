//! Checkpoint codec: full service state to/from one JSON object.
//!
//! A checkpoint captures everything [`crate::Service`] needs to resume a
//! stream mid-flight and replay the remainder **byte-identically**: the
//! acked input offset, the output stream's committed byte length, the
//! virtual clock and ingest ring, the offered-lure map, the counters and
//! latency histogram, and the complete attacker state reached through the
//! typed export APIs (`ch-attack` databases, trackers, buffers, RNG
//! words, evasion state — recursively for [`EvasiveAttacker`] wrappers).
//!
//! Values that can exceed 2⁵³ (RNG words, fingerprints, rotation slots)
//! are carried as decimal strings because the fleet's `Json` numbers ride
//! on `f64`. `SsidId`s are interner indices with no unchecked constructor,
//! so the codec serializes the database in dense interner-id order and,
//! on restore, replays [`SsidDatabase::restore_entry`] in that order —
//! collecting the freshly assigned ids so every stored index list can be
//! remapped through them (a fresh interner fed the same names in the same
//! order assigns the same dense ids).
//!
//! Saves are atomic (stage to `.tmp`, rename); loads distinguish
//! "no checkpoint" from "unusable checkpoint" so the caller can count a
//! cold-start fallback instead of silently losing state.

use std::path::Path;

use ch_attack::{
    buffers::AdaptiveBuffers, Attacker, AttackerSpec, CityHunter, ClientTracker, DbEntry,
    EvasiveAttacker, KarmaAttacker, Lure, ManaAttacker, PrelimCityHunter, SsidDatabase,
};
use ch_fleet::Json;
use ch_sim::SimTime;
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

/// A `u64` as JSON that survives the `f64`-backed number type: plain
/// number when exact, decimal string otherwise.
fn u64_json(n: u64) -> Json {
    const EXACT: u64 = 1 << 53;
    if n <= EXACT {
        Json::from_u64(n)
    } else {
        Json::str(n.to_string())
    }
}

/// Reads a [`u64_json`] value back (number or decimal string).
fn json_u64(value: &Json) -> Option<u64> {
    match value {
        Json::Str(s) => s.parse().ok(),
        _ => value.as_u64(),
    }
}

fn field<'a>(value: &'a Json, name: &'static str) -> Result<&'a Json, String> {
    value
        .get(name)
        .ok_or_else(|| format!("checkpoint missing field `{name}`"))
}

fn field_u64(value: &Json, name: &'static str) -> Result<u64, String> {
    json_u64(field(value, name)?).ok_or_else(|| format!("checkpoint bad field `{name}`"))
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
                Some(at) => u64_json(at.as_micros()),
                None => Json::Null,
            },
            u64_json(entry.added_at.as_micros()),
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
            hits: u32::try_from(json_u64(hits).ok_or("checkpoint bad db hits")?)
                .map_err(|_| "checkpoint db hits out of range")?,
            last_hit: match last_hit {
                Json::Null => None,
                other => Some(SimTime::from_micros(
                    json_u64(other).ok_or("checkpoint bad db last_hit")?,
                )),
            },
            added_at: SimTime::from_micros(json_u64(added_at).ok_or("checkpoint bad db added_at")?),
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

fn mac_id_pairs_to_json(pairs: &[(MacAddr, Vec<SsidId>)]) -> Json {
    Json::Arr(
        pairs
            .iter()
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

fn tracker_from_json(value: &Json, ids: &[SsidId]) -> Result<ClientTracker, String> {
    let mut tracker = ClientTracker::new();
    tracker.restore(mac_id_pairs_from_json(value, ids, "tracker")?);
    Ok(tracker)
}

// --- attacker codec -------------------------------------------------------

fn downcast_err(kind: &str) -> String {
    format!("checkpoint spec says `{kind}` but the live attacker is a different type")
}

/// The attacker's full state, shaped by (and recursive over) its spec.
fn attacker_to_json(attacker: &dyn Attacker, spec: &AttackerSpec) -> Result<Json, String> {
    match spec {
        AttackerSpec::Karma => {
            let karma = attacker
                .as_any()
                .downcast_ref::<KarmaAttacker>()
                .ok_or_else(|| downcast_err("karma"))?;
            Ok(Json::Obj(vec![
                ("kind".to_string(), Json::str("karma")),
                (
                    "mimicked".to_string(),
                    Json::Arr(
                        karma
                            .mimicked()
                            .iter()
                            .map(|ssid| Json::str(ssid.as_str()))
                            .collect(),
                    ),
                ),
            ]))
        }
        AttackerSpec::Mana => {
            let mana = attacker
                .as_any()
                .downcast_ref::<ManaAttacker>()
                .ok_or_else(|| downcast_err("mana"))?;
            Ok(Json::Obj(vec![
                ("kind".to_string(), Json::str("mana")),
                ("db".to_string(), db_to_json(mana.database())?),
                (
                    "harvest_order".to_string(),
                    id_list_to_json(mana.harvest_order()),
                ),
                (
                    "per_device".to_string(),
                    mac_id_pairs_to_json(&mana.per_device_sorted()),
                ),
            ]))
        }
        AttackerSpec::Prelim => {
            let prelim = attacker
                .as_any()
                .downcast_ref::<PrelimCityHunter>()
                .ok_or_else(|| downcast_err("prelim"))?;
            Ok(Json::Obj(vec![
                ("kind".to_string(), Json::str("prelim")),
                ("db".to_string(), db_to_json(prelim.database())?),
                (
                    "reply_order".to_string(),
                    id_list_to_json(prelim.reply_order()),
                ),
                (
                    "tracker".to_string(),
                    mac_id_pairs_to_json(
                        &prelim.tracker().export_sorted(prelim.database().interner()),
                    ),
                ),
            ]))
        }
        AttackerSpec::CityHunter(_) => {
            let ch = attacker
                .as_any()
                .downcast_ref::<CityHunter>()
                .ok_or_else(|| downcast_err("cityhunter"))?;
            let (p, f) = ch.buffers().sizes();
            Ok(Json::Obj(vec![
                ("kind".to_string(), Json::str("cityhunter")),
                ("db".to_string(), db_to_json(ch.database())?),
                (
                    "buffers".to_string(),
                    Json::Arr(vec![
                        Json::from_usize(p),
                        Json::from_usize(f),
                        Json::from_usize(ch.buffers().total()),
                        Json::Bool(ch.buffers().is_adaptive()),
                    ]),
                ),
                (
                    "tracker".to_string(),
                    mac_id_pairs_to_json(&ch.tracker().export_sorted(ch.database().interner())),
                ),
                (
                    "rng".to_string(),
                    Json::Arr(ch.rng_state().iter().map(|&w| u64_json(w)).collect()),
                ),
                (
                    "restarts".to_string(),
                    Json::from_u64(u64::from(ch.restarts())),
                ),
            ]))
        }
        AttackerSpec::Evasive { base, .. } => {
            let evasive = attacker
                .as_any()
                .downcast_ref::<EvasiveAttacker>()
                .ok_or_else(|| downcast_err("evasive"))?;
            let (slot, bssid, window, sent, next_us, period_us) = evasive.export_state();
            Ok(Json::Obj(vec![
                ("kind".to_string(), Json::str("evasive")),
                (
                    "state".to_string(),
                    Json::Arr(vec![
                        u64_json(slot),
                        Json::str(bssid.to_string()),
                        u64_json(window),
                        Json::from_u64(u64::from(sent)),
                        u64_json(next_us),
                        u64_json(period_us),
                    ]),
                ),
                (
                    "inner".to_string(),
                    attacker_to_json(evasive.inner(), base)?,
                ),
            ]))
        }
    }
}

fn expect_kind(value: &Json, want: &str) -> Result<(), String> {
    match field(value, "kind")?.as_str() {
        Some(kind) if kind == want => Ok(()),
        Some(kind) => Err(format!(
            "checkpoint attacker kind `{kind}` does not match configured `{want}`"
        )),
        None => Err("checkpoint attacker kind missing".to_string()),
    }
}

/// Restores attacker state in place, recursively, shape-checked against
/// the configured spec at every level.
fn attacker_from_json(
    attacker: &mut dyn Attacker,
    spec: &AttackerSpec,
    value: &Json,
) -> Result<(), String> {
    match spec {
        AttackerSpec::Karma => {
            expect_kind(value, "karma")?;
            let karma = attacker
                .as_any_mut()
                .downcast_mut::<KarmaAttacker>()
                .ok_or_else(|| downcast_err("karma"))?;
            let mimicked = field(value, "mimicked")?
                .as_arr()
                .ok_or("checkpoint mimicked is not an array")?
                .iter()
                .map(|item| parse_ssid(item, "mimicked ssid"))
                .collect::<Result<Vec<Ssid>, String>>()?;
            karma.restore_mimicked(mimicked);
            Ok(())
        }
        AttackerSpec::Mana => {
            expect_kind(value, "mana")?;
            let mana = attacker
                .as_any_mut()
                .downcast_mut::<ManaAttacker>()
                .ok_or_else(|| downcast_err("mana"))?;
            let (db, ids) = db_from_json(field(value, "db")?)?;
            let harvest = id_list_from_json(field(value, "harvest_order")?, &ids, "harvest_order")?;
            let per_device =
                mac_id_pairs_from_json(field(value, "per_device")?, &ids, "per_device")?;
            mana.restore_state(db, harvest, per_device);
            Ok(())
        }
        AttackerSpec::Prelim => {
            expect_kind(value, "prelim")?;
            let prelim = attacker
                .as_any_mut()
                .downcast_mut::<PrelimCityHunter>()
                .ok_or_else(|| downcast_err("prelim"))?;
            let (db, ids) = db_from_json(field(value, "db")?)?;
            let reply = id_list_from_json(field(value, "reply_order")?, &ids, "reply_order")?;
            let tracker = tracker_from_json(field(value, "tracker")?, &ids)?;
            prelim.restore_state(db, reply, tracker);
            Ok(())
        }
        AttackerSpec::CityHunter(_) => {
            expect_kind(value, "cityhunter")?;
            let ch = attacker
                .as_any_mut()
                .downcast_mut::<CityHunter>()
                .ok_or_else(|| downcast_err("cityhunter"))?;
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
                *slot = json_u64(word).ok_or("checkpoint bad rng word")?;
            }
            let restarts = u32::try_from(field_u64(value, "restarts")?)
                .map_err(|_| "checkpoint restarts out of range")?;
            ch.restore_state(db, buffers, tracker, rng, restarts);
            Ok(())
        }
        AttackerSpec::Evasive { base, .. } => {
            expect_kind(value, "evasive")?;
            let inner_json = field(value, "inner")?.clone();
            let state = field(value, "state")?
                .as_arr()
                .filter(|s| s.len() == 6)
                .ok_or("checkpoint evasion state malformed")?
                .to_vec();
            let evasive = attacker
                .as_any_mut()
                .downcast_mut::<EvasiveAttacker>()
                .ok_or_else(|| downcast_err("evasive"))?;
            evasive.import_state((
                json_u64(&state[0]).ok_or("checkpoint bad rotation slot")?,
                parse_mac(&state[1], "evasion bssid")?,
                json_u64(&state[2]).ok_or("checkpoint bad throttle window")?,
                u32::try_from(json_u64(&state[3]).ok_or("checkpoint bad throttle count")?)
                    .map_err(|_| "checkpoint throttle count out of range")?,
                json_u64(&state[4]).ok_or("checkpoint bad beacon next")?,
                json_u64(&state[5]).ok_or("checkpoint bad beacon period")?,
            ));
            attacker_from_json(evasive.inner_mut(), base, &inner_json)
        }
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
    let spec = service.config.spec.clone();
    let attacker = attacker_to_json(service.attacker.as_ref(), &spec)
        .unwrap_or_else(|reason| Json::Obj(vec![("error".to_string(), Json::str(reason))]));
    Json::Obj(vec![
        ("v".to_string(), Json::str(PROTOCOL_VERSION)),
        ("kind".to_string(), Json::str("checkpoint")),
        (
            "fingerprint".to_string(),
            Json::str(service.fingerprint.to_string()),
        ),
        ("acked".to_string(), Json::from_u64(service.acked())),
        ("out_bytes".to_string(), u64_json(out_bytes)),
        ("clock_us".to_string(), u64_json(service.clock_us)),
        ("stats".to_string(), service.stats.to_json()),
        (
            "hist".to_string(),
            Json::Arr(service.hist.iter().map(|&n| u64_json(n)).collect()),
        ),
        (
            "inflight".to_string(),
            Json::Arr(service.inflight.iter().map(|&t| u64_json(t)).collect()),
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
        *slot = json_u64(bucket).ok_or("checkpoint bad hist bucket")?;
    }
    let inflight = field(checkpoint, "inflight")?
        .as_arr()
        .ok_or("checkpoint inflight is not an array")?;
    service.inflight.clear();
    for t in inflight {
        service
            .inflight
            .push_back(json_u64(t).ok_or("checkpoint bad inflight time")?);
    }
    offered_from_json(service, field(checkpoint, "offered")?)?;
    let spec = service.config.spec.clone();
    attacker_from_json(
        service.attacker.as_mut(),
        &spec,
        field(checkpoint, "attacker")?,
    )?;
    Ok(RestorePoint { acked, out_bytes })
}
