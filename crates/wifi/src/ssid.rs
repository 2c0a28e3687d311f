//! Service Set Identifiers: the validated boundary type ([`Ssid`]) and the
//! interned hot-path representation ([`SsidId`] / [`SsidInterner`]).

use ch_sim::DetHashMap;
use std::borrow::Borrow;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

/// Maximum SSID length in bytes, per IEEE 802.11.
pub const MAX_SSID_LEN: usize = 32;

/// A validated SSID: 0–32 bytes.
///
/// SSIDs are the currency of the whole attack — the paper's SSID database,
/// buffers and probe responses all traffic in them — so the type enforces
/// the 802.11 length bound once, at the boundary, and everything downstream
/// can rely on it.
///
/// The empty SSID (the *wildcard*) is what a broadcast probe request
/// carries; [`Ssid::is_wildcard`] tests for it.
///
/// The name is stored behind an `Arc<str>`, so `Ssid::clone` is a
/// reference-count bump, not a heap copy — the per-probe hot path can hand
/// SSIDs around by value without allocating. For the places that compare or
/// dedup SSIDs in bulk (the attacker database and lure buffers), use
/// [`SsidInterner`] and compare [`SsidId`]s instead.
///
/// ```
/// use ch_wifi::Ssid;
/// let ssid: Ssid = "7-Eleven Free WiFi".parse()?;
/// assert_eq!(ssid.as_str(), "7-Eleven Free WiFi");
/// assert!(!ssid.is_wildcard());
/// # Ok::<(), ch_wifi::SsidError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ssid(Arc<str>);

/// Error constructing an [`Ssid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsidError {
    /// The SSID exceeds [`MAX_SSID_LEN`] bytes.
    TooLong {
        /// Actual byte length supplied.
        len: usize,
    },
}

impl fmt::Display for SsidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsidError::TooLong { len } => {
                write!(f, "ssid is {len} bytes, maximum is {MAX_SSID_LEN}")
            }
        }
    }
}

impl std::error::Error for SsidError {}

impl Ssid {
    /// The wildcard (zero-length) SSID carried by broadcast probe requests.
    ///
    /// The backing allocation is shared process-wide, so constructing
    /// wildcards in the probe loop is allocation-free.
    pub fn wildcard() -> Self {
        static WILDCARD: OnceLock<Arc<str>> = OnceLock::new();
        Ssid(Arc::clone(WILDCARD.get_or_init(|| Arc::from(""))))
    }

    /// Creates an SSID, validating the length bound.
    ///
    /// # Errors
    ///
    /// Returns [`SsidError::TooLong`] if `name` exceeds 32 bytes.
    pub fn new(name: impl Into<String>) -> Result<Self, SsidError> {
        let name = name.into();
        if name.len() > MAX_SSID_LEN {
            return Err(SsidError::TooLong { len: name.len() });
        }
        Ok(Ssid(Arc::from(name)))
    }

    /// Creates an SSID, truncating to the 32-byte bound on a UTF-8
    /// character boundary instead of failing. Handy for generated names.
    pub fn new_lossy(name: impl Into<String>) -> Self {
        let mut name = name.into();
        while name.len() > MAX_SSID_LEN {
            name.pop();
        }
        Ssid(Arc::from(name))
    }

    /// The SSID as text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The SSID bytes as they appear in the SSID information element.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }

    /// Byte length (what the IE length field carries).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the zero-length wildcard SSID.
    pub fn is_wildcard(&self) -> bool {
        self.0.is_empty()
    }

    /// Alias for [`Ssid::is_wildcard`], for collection-like call sites.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Ssid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_wildcard() {
            write!(f, "<wildcard>")
        } else {
            f.write_str(&self.0)
        }
    }
}

impl FromStr for Ssid {
    type Err = SsidError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ssid::new(s)
    }
}

impl TryFrom<&str> for Ssid {
    type Error = SsidError;

    fn try_from(s: &str) -> Result<Self, Self::Error> {
        Ssid::new(s)
    }
}

impl AsRef<str> for Ssid {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Ssid {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

/// A dense handle for an interned [`Ssid`].
///
/// Ids are assigned by first-intern order in a [`SsidInterner`], starting at
/// zero, so they double as indices into per-interner side tables (weights,
/// seen-sets, scratch buffers). Two ids from the *same* interner compare
/// equal iff their SSIDs do; ids from different interners are meaningless to
/// compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SsidId(u32);

impl SsidId {
    /// The id as a dense index (for side tables sized by interner length).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw u32 value.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SsidId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s#{}", self.0)
    }
}

/// A deterministic SSID interner: maps each distinct [`Ssid`] to a dense
/// [`SsidId`] assigned in first-intern order.
///
/// Built on [`DetHashMap`], so the id assignment depends only on the
/// *sequence* of interned SSIDs — the same corpus interned in the same order
/// yields the same ids on every run, every machine, and every worker count.
/// That property is what lets the attacker database key its entries and
/// caches by id while keeping golden artifacts byte-identical.
///
/// ```
/// use ch_wifi::{Ssid, SsidInterner};
/// let mut interner = SsidInterner::new();
/// let a = interner.intern(&Ssid::new("CSL").unwrap());
/// let b = interner.intern(&Ssid::new("PCCW1x").unwrap());
/// assert_eq!(interner.intern(&Ssid::new("CSL").unwrap()), a);
/// assert_ne!(a, b);
/// assert_eq!(interner.resolve(a).as_str(), "CSL");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SsidInterner {
    ids: DetHashMap<Ssid, SsidId>,
    names: Vec<Ssid>,
}

impl SsidInterner {
    /// An empty interner.
    pub fn new() -> Self {
        SsidInterner::default()
    }

    /// Number of distinct SSIDs interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns `ssid`, returning its id. The first intern of a given SSID
    /// clones it (a reference-count bump) and assigns the next dense id;
    /// repeat interns are a single hash lookup.
    pub fn intern(&mut self, ssid: &Ssid) -> SsidId {
        if let Some(&id) = self.ids.get(ssid) {
            return id;
        }
        let id = SsidId(self.names.len() as u32);
        // Both clones are `Arc<str>` refcount bumps, and first-intern is
        // the sanctioned once-per-SSID slow path (map/vec growth included).
        self.ids.insert(ssid.clone(), id); // ch-lint: allow(hot-path-alloc)
        self.names.push(ssid.clone()); // ch-lint: allow(hot-path-alloc)
        id
    }

    /// The id of an already-interned SSID, if any. Never allocates.
    pub fn get(&self, ssid: &Ssid) -> Option<SsidId> {
        self.ids.get(ssid).copied()
    }

    /// Resolves an id back to its SSID, if the id came from this interner.
    pub fn try_resolve(&self, id: SsidId) -> Option<&Ssid> {
        self.names.get(id.index())
    }

    /// Resolves an id back to its SSID. Unknown ids (from another interner)
    /// resolve to the wildcard SSID rather than panicking — `ch-wifi` is a
    /// panic-free crate and a stale id is a caller bug, not a crash.
    pub fn resolve(&self, id: SsidId) -> &Ssid {
        static FALLBACK: OnceLock<Ssid> = OnceLock::new();
        self.names
            .get(id.index())
            .unwrap_or_else(|| FALLBACK.get_or_init(Ssid::wildcard))
    }

    /// The id at dense index `index`, if this interner has assigned it —
    /// the checked way back from an index-keyed side table to an id.
    pub fn id_at(&self, index: usize) -> Option<SsidId> {
        u32::try_from(index)
            .ok()
            .filter(|_| index < self.names.len())
            .map(SsidId)
    }

    /// All interned SSIDs, in id order (`names[id.index()]`).
    pub fn names(&self) -> &[Ssid] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn wildcard_is_empty() {
        let w = Ssid::wildcard();
        assert!(w.is_wildcard());
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.to_string(), "<wildcard>");
    }

    #[test]
    fn length_bound_enforced() {
        assert!(Ssid::new("x".repeat(32)).is_ok());
        let err = Ssid::new("x".repeat(33)).unwrap_err();
        assert_eq!(err, SsidError::TooLong { len: 33 });
        assert!(err.to_string().contains("33"));
    }

    #[test]
    fn lossy_truncates_on_char_boundary() {
        // 17 × '日' = 51 bytes; truncation must not split a code point.
        let s = Ssid::new_lossy("日".repeat(17));
        assert!(s.len() <= 32);
        assert_eq!(s.as_str().chars().count(), 10);
    }

    #[test]
    fn borrow_enables_str_lookup() {
        let mut set: HashSet<Ssid> = HashSet::new();
        set.insert(Ssid::new("CSL").unwrap());
        assert!(set.contains("CSL"));
        assert!(!set.contains("CMCC-WEB"));
    }

    #[test]
    fn parse_paper_ssids() {
        for name in [
            "7-Eleven Free WiFi",
            "#HKAirport Free WiFi",
            "-Free HKBN Wi-Fi-",
            "Free Public WiFi",
            "CMCC-WEB",
            "PCCW1x",
        ] {
            let ssid: Ssid = name.parse().unwrap();
            assert_eq!(ssid.as_str(), name);
        }
    }

    #[test]
    fn clone_shares_the_allocation() {
        let a = Ssid::new("7-Eleven Free WiFi").unwrap();
        let b = a.clone();
        assert!(std::sync::Arc::ptr_eq(&a.0, &b.0));
    }

    #[test]
    fn interner_assigns_dense_first_seen_ids() {
        let mut interner = SsidInterner::new();
        let csl = Ssid::new("CSL").unwrap();
        let pccw = Ssid::new("PCCW1x").unwrap();
        let a = interner.intern(&csl);
        let b = interner.intern(&pccw);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(interner.intern(&csl), a);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.get(&pccw), Some(b));
        assert_eq!(interner.get(&Ssid::new("CMCC-WEB").unwrap()), None);
        assert_eq!(interner.resolve(a), &csl);
        assert_eq!(interner.names(), &[csl, pccw]);
        assert_eq!((interner.id_at(0), interner.id_at(1)), (Some(a), Some(b)));
        assert_eq!(interner.id_at(2), None);
    }

    #[test]
    fn unknown_id_resolves_to_wildcard_not_panic() {
        let mut a = SsidInterner::new();
        let mut b = SsidInterner::new();
        a.intern(&Ssid::new("CSL").unwrap());
        let stale = a.intern(&Ssid::new("PCCW1x").unwrap());
        b.intern(&Ssid::new("CSL").unwrap());
        assert_eq!(b.try_resolve(stale), None);
        assert!(b.resolve(stale).is_wildcard());
    }

    proptest! {
        #[test]
        fn prop_new_lossy_always_valid(name in ".{0,64}") {
            let ssid = Ssid::new_lossy(name);
            prop_assert!(ssid.len() <= MAX_SSID_LEN);
        }

        #[test]
        fn prop_roundtrip_via_str(name in "[ -~]{0,32}") {
            let ssid = Ssid::new(name.clone()).unwrap();
            prop_assert_eq!(ssid.as_str(), name.as_str());
        }
    }
}
