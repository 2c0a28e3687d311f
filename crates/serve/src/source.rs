//! Pluggable, replayable input sources for the service.
//!
//! Every source materializes to an indexed event list, because recovery
//! needs **replay by offset**: a checkpoint records how many input events
//! were acked, and a restarted service must re-consume the identical
//! stream from exactly that index. Three sources exist:
//!
//! * **sim** — re-runs a deterministic `ch-scenarios` experiment with a
//!   [`ch_scenarios::CollectingObserver`] and keeps the client-side air
//!   traffic (probe requests, association requests). Same seed, same
//!   stream, every time — the chaos smoke's source.
//! * **pcap** — replays a capture through
//!   [`ch_wifi::pcap::read_capture_lenient`], the count-and-skip decode
//!   path shared with the `capture_pcap` example.
//! * **ndjson** — reads `ch-serve-v1` wire lines from a file; malformed
//!   lines are counted and skipped, never fatal.

use std::path::Path;

use ch_scenarios::{run_experiment_observed, CityData, CollectingObserver, RunConfig};
use ch_wifi::mgmt::MgmtFrame;
use ch_wifi::pcap::read_capture_lenient;

use crate::protocol::{decode_input, InputEvent};

/// A fully materialized, index-replayable input stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventSource {
    events: Vec<InputEvent>,
    /// Records/lines that failed to decode — counted and skipped.
    pub malformed: u64,
    /// `true` if the underlying file ended mid-record (torn tail).
    pub truncated: bool,
}

impl EventSource {
    /// A source over the given events (tests, synthetic overload).
    pub fn from_events(events: Vec<InputEvent>) -> EventSource {
        EventSource {
            events,
            malformed: 0,
            truncated: false,
        }
    }

    /// Generates the stream by running one deterministic experiment and
    /// collecting the client-side air traffic: every delivered probe
    /// request and association request, with delivery timestamps.
    pub fn from_sim(data: &CityData, config: &RunConfig) -> EventSource {
        let mut observer = CollectingObserver::new(|frame| {
            matches!(
                frame,
                MgmtFrame::ProbeRequest(_) | MgmtFrame::AssocRequest(_)
            )
        });
        run_experiment_observed(data, config, &mut observer);
        let events = observer
            .into_frames()
            .into_iter()
            .filter_map(|(at, frame)| convert_frame(at.as_micros(), &frame))
            .collect();
        EventSource::from_events(events)
    }

    /// Replays a pcap capture through the lenient (count-and-skip) reader.
    ///
    /// # Errors
    ///
    /// A rendered [`ch_wifi::pcap::PcapReadError`] when the file cannot be
    /// opened or is not an 802.11 capture at all; per-record corruption is
    /// counted in [`EventSource::malformed`] instead.
    pub fn from_pcap(path: &Path) -> Result<EventSource, String> {
        let file = std::fs::File::open(path)
            .map_err(|e| format!("open pcap `{}`: {e}", path.display()))?;
        let capture = read_capture_lenient(std::io::BufReader::new(file))
            .map_err(|e| format!("read pcap `{}`: {e}", path.display()))?;
        let events = capture
            .frames
            .iter()
            .filter_map(|cf| convert_frame(cf.at.as_micros(), &cf.frame))
            .collect();
        Ok(EventSource {
            events,
            malformed: capture.skipped,
            truncated: capture.truncated,
        })
    }

    /// Reads `ch-serve-v1` wire lines from a file; blank lines are
    /// ignored and malformed lines are counted and skipped.
    ///
    /// # Errors
    ///
    /// Only on file-level I/O failure.
    pub fn from_ndjson(path: &Path) -> Result<EventSource, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read ndjson `{}`: {e}", path.display()))?;
        let mut source = EventSource::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match decode_input(line) {
                Ok(event) => source.events.push(event),
                Err(_) => source.malformed += 1,
            }
        }
        Ok(source)
    }

    /// The events, in stream order.
    pub fn events(&self) -> &[InputEvent] {
        &self.events
    }

    /// Number of events in the stream.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the stream carries no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The same stream with every timestamp divided by `factor` — the
    /// open-loop overload knob: arrivals compress, offered load
    /// multiplies, and the service's bounded ring starts shedding. A
    /// factor of 0 is treated as 1.
    #[must_use]
    pub fn with_time_compressed(mut self, factor: u64) -> EventSource {
        let factor = factor.max(1);
        for event in &mut self.events {
            match event {
                InputEvent::Probe { t_us, .. } | InputEvent::Assoc { t_us, .. } => {
                    *t_us /= factor;
                }
            }
        }
        self
    }
}

/// Maps an observed air frame to a wire event; frames that are not
/// client-side traffic map to `None`.
fn convert_frame(t_us: u64, frame: &MgmtFrame) -> Option<InputEvent> {
    match frame {
        MgmtFrame::ProbeRequest(probe) => Some(InputEvent::Probe {
            t_us,
            client: probe.source,
            ssid: if probe.is_broadcast() {
                None
            } else {
                // ch-lint: allow(ssid-clone) — stream materialization is a
                // fixed-size inline copy per frame (no heap), off the probe
                // hot path.
                Some(probe.ssid.clone())
            },
        }),
        MgmtFrame::AssocRequest(assoc) => Some(InputEvent::Assoc {
            t_us,
            client: assoc.source,
            // ch-lint: allow(ssid-clone) — stream materialization, as above.
            ssid: assoc.ssid.clone(),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_wifi::MacAddr;

    fn mac(i: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, i])
    }

    #[test]
    fn ndjson_counts_and_skips_garbage() {
        let dir = std::env::temp_dir().join("ch-serve-src-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("in.ndjson");
        let good = crate::protocol::encode_input(&InputEvent::Probe {
            t_us: 5,
            client: mac(1),
            ssid: None,
        });
        std::fs::write(&path, format!("{good}\nnot json at all\n\n{good}\n")).unwrap();
        let source = EventSource::from_ndjson(&path).unwrap();
        assert_eq!(source.len(), 2);
        assert_eq!(source.malformed, 1);
    }

    #[test]
    fn time_compression_divides_timestamps() {
        let source = EventSource::from_events(vec![InputEvent::Probe {
            t_us: 1000,
            client: mac(1),
            ssid: None,
        }])
        .with_time_compressed(10);
        assert_eq!(source.events()[0].t_us(), 100);
    }
}
