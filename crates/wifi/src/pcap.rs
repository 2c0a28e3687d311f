//! Pcap capture export.
//!
//! Writes simulated frame exchanges as standard libpcap files with
//! `LINKTYPE_IEEE802_11` (105), so a City-Hunter run can be opened in
//! Wireshark/tcpdump and inspected frame by frame — probe requests, the
//! 40-lure response bursts, the open-system join, spoofed deauths.
//!
//! [`read_capture_lenient`] reads such a capture back, count-and-skip:
//! it is the one reader, used by `ch-serve`'s pcap replay source, the
//! `capture_pcap` example and the round-trip tests.

use std::io::{self, Read, Write};

use ch_sim::SimTime;

use crate::codec;
use crate::mgmt::MgmtFrame;

/// Classic pcap magic (microsecond timestamps, native byte order).
const MAGIC: u32 = 0xa1b2_c3d4;
/// `LINKTYPE_IEEE802_11`: 802.11 frames without radiotap.
const LINKTYPE_802_11: u32 = 105;
/// Snapshot length: management frames are tiny; 4 KiB is generous.
const SNAPLEN: u32 = 4096;

/// One captured frame: capture instant plus the frame itself.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedFrame {
    /// Capture timestamp (simulation time doubles as epoch offset).
    pub at: SimTime,
    /// The frame.
    pub frame: MgmtFrame,
}

/// Streaming pcap writer over any [`Write`] sink (a `&mut Vec<u8>` works).
#[derive(Debug)]
pub struct PcapWriter<W> {
    sink: W,
    frames_written: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Creates the writer and emits the pcap global header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(mut sink: W) -> io::Result<Self> {
        sink.write_all(&MAGIC.to_le_bytes())?;
        sink.write_all(&2u16.to_le_bytes())?; // version major
        sink.write_all(&4u16.to_le_bytes())?; // version minor
        sink.write_all(&0i32.to_le_bytes())?; // thiszone
        sink.write_all(&0u32.to_le_bytes())?; // sigfigs
        sink.write_all(&SNAPLEN.to_le_bytes())?;
        sink.write_all(&LINKTYPE_802_11.to_le_bytes())?;
        Ok(PcapWriter {
            sink,
            frames_written: 0,
        })
    }

    /// Appends one frame at simulation time `at`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn write_frame(&mut self, at: SimTime, frame: &MgmtFrame) -> io::Result<()> {
        let bytes = codec::encode(frame);
        let ts_sec = at.as_secs() as u32;
        let ts_usec = (at.as_micros() % 1_000_000) as u32;
        self.sink.write_all(&ts_sec.to_le_bytes())?;
        self.sink.write_all(&ts_usec.to_le_bytes())?;
        self.sink.write_all(&(bytes.len() as u32).to_le_bytes())?;
        self.sink.write_all(&(bytes.len() as u32).to_le_bytes())?;
        self.sink.write_all(&bytes)?;
        self.frames_written += 1;
        Ok(())
    }

    /// Number of frames written so far.
    pub fn frames_written(&self) -> u64 {
        self.frames_written
    }

    /// Finishes the capture and returns the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

/// Error reading a pcap capture.
#[derive(Debug)]
pub enum PcapReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the expected magic/linktype.
    BadHeader {
        /// What was wrong.
        reason: &'static str,
    },
}

impl std::fmt::Display for PcapReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapReadError::Io(e) => write!(f, "i/o error reading capture: {e}"),
            PcapReadError::BadHeader { reason } => {
                write!(f, "not a city-hunter pcap capture: {reason}")
            }
        }
    }
}

impl std::error::Error for PcapReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PcapReadError::Io(e) => Some(e),
            PcapReadError::BadHeader { .. } => None,
        }
    }
}

impl From<io::Error> for PcapReadError {
    fn from(e: io::Error) -> Self {
        PcapReadError::Io(e)
    }
}

/// A capture read with per-record fault tolerance: the frames that
/// parsed, plus counts of what did not.
#[derive(Debug, Clone, PartialEq)]
pub struct LenientCapture {
    /// Frames whose bytes parsed as 802.11 management frames, in file
    /// order.
    pub frames: Vec<CapturedFrame>,
    /// Records whose payload failed to parse — counted and skipped.
    pub skipped: u64,
    /// `true` if the file ended mid-record (a capture torn by a crash);
    /// the partial record is dropped and the read still succeeds.
    pub truncated: bool,
}

/// Reads an entire capture produced by [`PcapWriter`], **count-and-skip**:
/// a record whose payload fails to parse is tallied in
/// [`LenientCapture::skipped`] instead of failing the whole read, and a
/// torn trailing record (crash mid-write) or a record header claiming
/// more than the snaplen is treated as end-of-stream, so no record
/// header sizes an allocation beyond it.
///
/// A single mangled frame in a real capture must not discard the
/// thousands of good frames around it. The global header must still be
/// valid: a wrong magic or linktype means the file is not an 802.11
/// capture at all, which no amount of skipping repairs.
///
/// # Errors
///
/// [`PcapReadError::Io`] on read failures other than a torn tail and
/// [`PcapReadError::BadHeader`] on a foreign global header.
pub fn read_capture_lenient<R: Read>(mut source: R) -> Result<LenientCapture, PcapReadError> {
    let mut header = [0u8; 24];
    source.read_exact(&mut header)?;
    if le_u32_at(&header, 0) != MAGIC {
        return Err(PcapReadError::BadHeader {
            reason: "wrong magic",
        });
    }
    if le_u32_at(&header, 20) != LINKTYPE_802_11 {
        return Err(PcapReadError::BadHeader {
            reason: "wrong linktype",
        });
    }
    let mut capture = LenientCapture {
        frames: Vec::new(),
        skipped: 0,
        truncated: false,
    };
    loop {
        let mut record = [0u8; 16];
        match source.read_exact(&mut record) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let ts_sec = le_u32_at(&record, 0);
        let ts_usec = le_u32_at(&record, 4);
        let incl_len = le_u32_at(&record, 8) as usize;
        if incl_len > SNAPLEN as usize {
            // A length beyond the writer's snaplen means the record
            // header itself is garbage; resynchronizing is hopeless.
            capture.truncated = true;
            break;
        }
        let mut bytes = vec![0u8; incl_len];
        match source.read_exact(&mut bytes) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                capture.truncated = true;
                break;
            }
            Err(e) => return Err(e.into()),
        }
        match codec::parse(&bytes) {
            Ok(frame) => capture.frames.push(CapturedFrame {
                at: SimTime::from_micros(ts_sec as u64 * 1_000_000 + ts_usec as u64),
                frame,
            }),
            Err(_) => capture.skipped += 1,
        }
    }
    Ok(capture)
}

/// Little-endian u32 at `offset` of a buffer whose callers size it
/// statically; short reads yield zero-padded words instead of a panic.
fn le_u32_at(buf: &[u8], offset: usize) -> u32 {
    let mut word = [0u8; 4];
    for (dst, src) in word.iter_mut().zip(buf.iter().skip(offset)) {
        *dst = *src;
    }
    u32::from_le_bytes(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mgmt::{ProbeRequest, ProbeResponse};
    use crate::{Channel, MacAddr, Ssid};

    fn mac(i: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, i])
    }

    fn sample_exchange() -> Vec<CapturedFrame> {
        vec![
            CapturedFrame {
                at: SimTime::from_millis(1_500),
                frame: MgmtFrame::ProbeRequest(ProbeRequest::broadcast(mac(1))),
            },
            CapturedFrame {
                at: SimTime::from_millis(1_510),
                frame: MgmtFrame::ProbeResponse(ProbeResponse::open_lure(
                    mac(9),
                    mac(1),
                    Ssid::new("Free Public WiFi").unwrap(),
                    Channel::new(1).unwrap(),
                )),
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let mut writer = PcapWriter::new(Vec::new()).unwrap();
        for cf in sample_exchange() {
            writer.write_frame(cf.at, &cf.frame).unwrap();
        }
        assert_eq!(writer.frames_written(), 2);
        let bytes = writer.into_inner();
        let read = read_capture_lenient(&bytes[..]).unwrap();
        assert_eq!(read.frames, sample_exchange());
        assert_eq!(read.skipped, 0);
        assert!(!read.truncated);
    }

    #[test]
    fn header_is_standard_pcap() {
        let writer = PcapWriter::new(Vec::new()).unwrap();
        let bytes = writer.into_inner();
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[0..4], &MAGIC.to_le_bytes());
        assert_eq!(&bytes[20..24], &105u32.to_le_bytes());
    }

    #[test]
    fn empty_capture_reads_empty() {
        let writer = PcapWriter::new(Vec::new()).unwrap();
        let bytes = writer.into_inner();
        let read = read_capture_lenient(&bytes[..]).unwrap();
        assert!(read.frames.is_empty());
        assert_eq!(read.skipped, 0);
        assert!(!read.truncated);
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut bytes = PcapWriter::new(Vec::new()).unwrap().into_inner();
        bytes[0] ^= 0xff;
        match read_capture_lenient(&bytes[..]) {
            Err(PcapReadError::BadHeader { reason }) => {
                assert_eq!(reason, "wrong magic")
            }
            other => panic!("expected BadHeader, got {other:?}"),
        }
    }

    #[test]
    fn wrong_linktype_rejected() {
        let mut bytes = PcapWriter::new(Vec::new()).unwrap().into_inner();
        bytes[20] = 1; // LINKTYPE_ETHERNET
        assert!(matches!(
            read_capture_lenient(&bytes[..]),
            Err(PcapReadError::BadHeader {
                reason: "wrong linktype"
            })
        ));
    }

    #[test]
    fn lenient_counts_and_skips_corrupt_frame() {
        let mut writer = PcapWriter::new(Vec::new()).unwrap();
        for cf in sample_exchange() {
            writer.write_frame(cf.at, &cf.frame).unwrap();
        }
        let mut bytes = writer.into_inner();
        // Flip the first record's frame-control type bits to data.
        bytes[24 + 16] = 0b0000_1000;
        let lenient = read_capture_lenient(&bytes[..]).unwrap();
        assert_eq!(lenient.skipped, 1);
        assert_eq!(lenient.frames.len(), 1);
        assert_eq!(lenient.frames[0], sample_exchange()[1]);
        assert!(!lenient.truncated);
    }

    #[test]
    fn lenient_tolerates_torn_tail() {
        let mut writer = PcapWriter::new(Vec::new()).unwrap();
        for cf in sample_exchange() {
            writer.write_frame(cf.at, &cf.frame).unwrap();
        }
        let bytes = writer.into_inner();
        let torn = &bytes[..bytes.len() - 3];
        let lenient = read_capture_lenient(torn).unwrap();
        assert_eq!(lenient.frames.len(), 1);
        assert!(lenient.truncated);
    }

    #[test]
    fn record_beyond_snaplen_ends_the_read() {
        // A record header claiming more than the snaplen is garbage: the
        // read stops there and keeps what came before, even when the
        // claimed bytes are present, and sizes no buffer from the claim.
        for claimed in [SNAPLEN + 1, u32::MAX] {
            let mut writer = PcapWriter::new(Vec::new()).unwrap();
            let mut frames = sample_exchange();
            frames.truncate(1);
            writer.write_frame(frames[0].at, &frames[0].frame).unwrap();
            let mut bytes = writer.into_inner();
            bytes.extend_from_slice(&[0u8; 8]);
            bytes.extend_from_slice(&claimed.to_le_bytes());
            bytes.extend_from_slice(&claimed.to_le_bytes());
            bytes.resize(bytes.len() + SNAPLEN as usize + 1, 0);
            let lenient = read_capture_lenient(&bytes[..]).unwrap();
            assert_eq!(lenient.frames, frames, "claimed {claimed}");
            assert_eq!(lenient.skipped, 0, "claimed {claimed}");
            assert!(lenient.truncated, "claimed {claimed}");
        }
    }

    #[test]
    fn lenient_still_rejects_foreign_header() {
        let mut bytes = PcapWriter::new(Vec::new()).unwrap().into_inner();
        bytes[0] ^= 0xff;
        assert!(matches!(
            read_capture_lenient(&bytes[..]),
            Err(PcapReadError::BadHeader { .. })
        ));
    }

    #[test]
    fn timestamps_preserved_to_the_microsecond() {
        let at = SimTime::from_micros(3_661_000_042);
        let mut writer = PcapWriter::new(Vec::new()).unwrap();
        writer
            .write_frame(
                at,
                &MgmtFrame::ProbeRequest(ProbeRequest::broadcast(mac(1))),
            )
            .unwrap();
        let read = read_capture_lenient(&writer.into_inner()[..]).unwrap();
        assert_eq!(read.frames[0].at, at);
    }
}
