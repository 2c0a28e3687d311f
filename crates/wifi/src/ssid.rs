//! Service Set Identifiers: the validated boundary type ([`Ssid`]) and the
//! interned hot-path representation ([`SsidId`] / [`SsidInterner`]).

use ch_sim::DetHashMap;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

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
/// The name is stored inline — a length byte and a zero-padded
/// `[u8; MAX_SSID_LEN]`, 33 bytes in all — so an `Ssid` owns no heap memory
/// and `Ssid::clone` is a fixed-size copy: the per-probe hot path can hand
/// SSIDs around by value without allocating or chasing a pointer.
/// Equality, ordering, hashing and `Debug` are exactly those of the
/// [`str`] it holds, so `Borrow<str>` lookups work. For the places that
/// compare or dedup SSIDs in bulk (the attacker database and lure buffers),
/// use [`SsidInterner`] and compare [`SsidId`]s instead.
///
/// ```
/// use ch_wifi::Ssid;
/// let ssid: Ssid = "7-Eleven Free WiFi".parse()?;
/// assert_eq!(ssid.as_str(), "7-Eleven Free WiFi");
/// assert!(!ssid.is_wildcard());
/// # Ok::<(), ch_wifi::SsidError>(())
/// ```
#[derive(Clone)]
pub struct Ssid {
    /// Byte length, at most [`MAX_SSID_LEN`].
    len: u8,
    /// The name in `bytes[..len]` (always UTF-8, cut on a char boundary);
    /// every byte past it is zero.
    bytes: [u8; MAX_SSID_LEN],
}

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
    pub const fn wildcard() -> Self {
        Ssid {
            len: 0,
            bytes: [0; MAX_SSID_LEN],
        }
    }

    /// Creates an SSID, validating the length bound. Copies the name
    /// straight from the `&str` — no intermediate `String`.
    ///
    /// # Errors
    ///
    /// Returns [`SsidError::TooLong`] if `name` exceeds 32 bytes.
    pub fn new(name: impl AsRef<str>) -> Result<Self, SsidError> {
        let name = name.as_ref();
        if name.len() > MAX_SSID_LEN {
            return Err(SsidError::TooLong { len: name.len() });
        }
        Ok(Ssid::inline(name))
    }

    /// Creates an SSID, truncating to the 32-byte bound on a UTF-8
    /// character boundary instead of failing. Handy for generated names.
    pub fn new_lossy(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        let mut end = name.len().min(MAX_SSID_LEN);
        while !name.is_char_boundary(end) {
            end -= 1;
        }
        Ssid::inline(name.get(..end).unwrap_or_default())
    }

    /// Copies `name` (at most [`MAX_SSID_LEN`] bytes, checked by the
    /// callers) into a zero-padded inline array.
    fn inline(name: &str) -> Self {
        let mut ssid = Ssid::wildcard();
        let len = name.len().min(MAX_SSID_LEN);
        if let (Some(dst), Some(src)) = (ssid.bytes.get_mut(..len), name.as_bytes().get(..len)) {
            dst.copy_from_slice(src);
        }
        ssid.len = len as u8;
        ssid
    }

    /// The SSID as text.
    pub fn as_str(&self) -> &str {
        // Every constructor copies a `&str` cut on a char boundary, so the
        // bytes are always UTF-8 and the empty fallback is never taken.
        std::str::from_utf8(self.as_bytes()).unwrap_or_default()
    }

    /// The SSID bytes as they appear in the SSID information element.
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.get(..self.len()).unwrap_or_default()
    }

    /// Byte length (what the IE length field carries).
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// `true` for the zero-length wildcard SSID.
    pub fn is_wildcard(&self) -> bool {
        self.len == 0
    }

    /// Alias for [`Ssid::is_wildcard`], for collection-like call sites.
    pub fn is_empty(&self) -> bool {
        self.is_wildcard()
    }
}

// Equality, ordering and hashing are the `str`'s own, as `Borrow<str>`
// requires. Padding bytes are always zero, so comparing the whole fixed
// array is the same as comparing the names.
impl PartialEq for Ssid {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.bytes == other.bytes
    }
}

impl Eq for Ssid {}

impl PartialOrd for Ssid {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ssid {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Ssid {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // What `str::hash` feeds a stable `Hasher` (`write_str`'s default:
        // the bytes, then `0xff`), minus `as_str`'s UTF-8 re-check.
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for Ssid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Ssid").field(&self.as_str()).finish()
    }
}

impl fmt::Display for Ssid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_wildcard() {
            write!(f, "<wildcard>")
        } else {
            f.write_str(self.as_str())
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
    /// copies it (a fixed-size inline copy) and assigns the next dense id;
    /// repeat interns are a single hash lookup.
    pub fn intern(&mut self, ssid: &Ssid) -> SsidId {
        if let Some(&id) = self.ids.get(ssid) {
            return id;
        }
        let id = SsidId(self.names.len() as u32);
        // Both clones are fixed-size inline copies with no heap, and
        // first-intern is the sanctioned once-per-SSID slow path (map/vec
        // growth included).
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
        static FALLBACK: Ssid = Ssid::wildcard();
        self.names.get(id.index()).unwrap_or(&FALLBACK)
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
        assert_eq!(Ssid::new("").unwrap(), Ssid::wildcard());
        let full = Ssid::new("x".repeat(32)).unwrap();
        assert_eq!((full.len(), full.as_str()), (32, "x".repeat(32).as_str()));
        let err = Ssid::new("x".repeat(33)).unwrap_err();
        assert_eq!(err, SsidError::TooLong { len: 33 });
        assert!(err.to_string().contains("33"));
        // The bound is in bytes, not chars: 11 × '日' is 33 bytes.
        assert_eq!(
            Ssid::new("日".repeat(11)).unwrap_err(),
            SsidError::TooLong { len: 33 }
        );
        assert!(Ssid::try_from("y".repeat(33).as_str()).is_err());
        assert!("z".repeat(33).parse::<Ssid>().is_err());
    }

    #[test]
    fn lossy_truncates_on_char_boundary() {
        // 17 × '日' = 51 bytes; truncation must not split a code point.
        let s = Ssid::new_lossy("日".repeat(17));
        assert!(s.len() <= 32);
        assert_eq!(s.as_str().chars().count(), 10);
        // "a" + 11 × '日' is 34 bytes: byte 32 falls inside the eleventh
        // '日', so the cut lands at 31.
        let s = Ssid::new_lossy(format!("a{}", "日".repeat(11)));
        assert_eq!(s.as_str(), format!("a{}", "日".repeat(10)));
        assert_eq!(s.len(), 31);
        // Names within the bound pass through untouched.
        assert_eq!(Ssid::new_lossy("x".repeat(32)).len(), 32);
        assert_eq!(Ssid::new_lossy(""), Ssid::wildcard());
    }

    #[test]
    fn borrow_enables_str_lookup() {
        let mut set: HashSet<Ssid> = HashSet::new();
        set.insert(Ssid::new("CSL").unwrap());
        assert!(set.contains("CSL"));
        assert!(!set.contains("CMCC-WEB"));
        let mut det: DetHashMap<Ssid, u32> = DetHashMap::default();
        det.insert(Ssid::new("café-hotspot").unwrap(), 7);
        det.insert(Ssid::wildcard(), 0);
        assert_eq!(det.get("café-hotspot"), Some(&7));
        assert_eq!(det.get(""), Some(&0));
        assert_eq!(det.get("cafe-hotspot"), None);
        let tree: std::collections::BTreeSet<Ssid> = ["b", "a", "日"]
            .into_iter()
            .map(|n| Ssid::new(n).unwrap())
            .collect();
        assert!(tree.contains("日") && !tree.contains("c"));
    }

    /// The `str`'s hash of `name`, and the `Ssid`'s, under hasher `H`.
    fn both_hashes<H: Hasher>(name: &str, mut new: impl FnMut() -> H) -> (u64, u64) {
        let mut want = new();
        name.hash(&mut want);
        let mut got = new();
        Ssid::new(name).unwrap().hash(&mut got);
        (want.finish(), got.finish())
    }

    #[test]
    fn hash_equals_the_str_hash() {
        for name in [
            "",
            "CSL",
            "7-Eleven Free WiFi",
            "café",
            "日本",
            &"x".repeat(32),
        ] {
            let (want, got) = both_hashes(name, ch_sim::FxHasher::default);
            assert_eq!(want, got, "FxHasher, {name:?}");
            let (want, got) = both_hashes(name, std::collections::hash_map::DefaultHasher::new);
            assert_eq!(want, got, "DefaultHasher, {name:?}");
        }
    }

    #[test]
    fn debug_text_is_the_str_in_a_tuple() {
        assert_eq!(format!("{:?}", Ssid::new("CSL").unwrap()), "Ssid(\"CSL\")");
        assert_eq!(format!("{:?}", Ssid::wildcard()), "Ssid(\"\")");
        let quoted = Ssid::new("a\"b\tc").unwrap();
        assert_eq!(format!("{quoted:?}"), format!("Ssid({:?})", "a\"b\tc"));
        assert_eq!(
            format!("{:#?}", Ssid::new("日").unwrap()),
            "Ssid(\n    \"日\",\n)"
        );
    }

    #[test]
    fn clone_is_a_fixed_size_inline_copy() {
        // A length byte and the 32-byte array: no pointer, no heap.
        assert_eq!(std::mem::size_of::<Ssid>(), 1 + MAX_SSID_LEN);
        let a = Ssid::new("7-Eleven Free WiFi").unwrap();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a.as_bytes().as_ptr(), b.as_bytes().as_ptr());
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

        /// Order, equality and hash agree with the `str`'s on multibyte
        /// names (at most 8 chars of at most 4 bytes: always valid).
        #[test]
        fn prop_ord_eq_hash_match_str(
            a in "[a-cAé日🦀 ]{0,8}",
            b in "[a-cAé日🦀 ]{0,8}",
        ) {
            let (sa, sb) = (Ssid::new(&a).unwrap(), Ssid::new(&b).unwrap());
            prop_assert_eq!(sa.cmp(&sb), a.as_str().cmp(b.as_str()));
            prop_assert_eq!(sa.partial_cmp(&sb), a.as_str().partial_cmp(b.as_str()));
            prop_assert_eq!(sa == sb, a == b);
            let (want, got) = both_hashes(&a, ch_sim::FxHasher::default);
            prop_assert_eq!(want, got);
        }

        /// `new_lossy` keeps the longest char-boundary prefix within the
        /// bound, exactly as popping chars off a `String` would.
        #[test]
        fn prop_new_lossy_is_the_longest_valid_prefix(name in ".{0,48}") {
            let mut want = name.clone();
            while want.len() > MAX_SSID_LEN {
                want.pop();
            }
            let ssid = Ssid::new_lossy(&name);
            prop_assert_eq!(ssid.as_str(), want.as_str());
        }
    }
}
