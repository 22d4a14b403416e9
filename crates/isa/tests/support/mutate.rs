//! Byte-level mutation of assembler source, shared by the ISA property
//! tests and the allocation audit (`tests/alloc_audit.rs`).

/// Bytes the assembler gives meaning to: mnemonic and register letters,
/// digits, and every punctuation mark of the syntax.
pub const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFX0123456789_.,:;#@[]()+-*/% \t\n";

/// One edit: `(kind, position, alphabet index, span)`.
pub type Edit = (u8, usize, usize, usize);

/// Applies `edits` in order. Kind 0 replaces the byte at the position
/// (taken modulo the length) with `ALPHABET[index]`, 1 deletes it, 2
/// inserts the alphabet byte before it, 3 duplicates the `span` bytes
/// from it, and 4 truncates there. An edit that splits a multi-byte
/// character leaves U+FFFD in its place.
pub fn mutate(source: &str, edits: &[Edit]) -> String {
    let mut bytes = source.as_bytes().to_vec();
    for &(kind, at, index, span) in edits {
        let at = at % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = ALPHABET[index],
            1 if at < bytes.len() => _ = bytes.remove(at),
            2 => bytes.insert(at, ALPHABET[index]),
            3 => {
                let end = (at + span).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(end..end, copy);
            }
            4 => bytes.truncate(at),
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}
