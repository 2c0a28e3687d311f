//! R6 fixture — the root reaches its allocation only through a
//! `Self::helper(…)` call into its own impl.

pub struct Parser;

impl Parser {
    pub fn parse(bytes: &[u8], out: &mut Vec<u8>) {
        out.clear();
        Self::copy_payload(bytes, out);
    }

    fn copy_payload(bytes: &[u8], out: &mut Vec<u8>) {
        let owned = bytes.to_vec();
        out.extend_from_slice(&owned);
    }
}

pub struct Printer;

impl Printer {
    // Same name on another type: `Self::` inside `Parser` never means it.
    pub fn copy_payload(bytes: &[u8]) -> String {
        format!("{bytes:?}")
    }
}
