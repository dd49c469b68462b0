//! Importing external allocation traces.
//!
//! The synthetic models substitute for the paper's five C programs, but
//! the laboratory is just as happy to replay a *real* program's
//! allocation behaviour. This module parses a simple line-oriented text
//! format that instrumented programs (or converters from formats like
//! those of Zorn & Grunwald's trace archives) can emit:
//!
//! ```text
//! # comment / blank lines ignored
//! a <id> <size> [site]    allocate <size> bytes as object <id>
//! f <id>                  free object <id>
//! t <id> <offset> <len> <r|w>   touch bytes of a live object
//! c <instrs>              non-memory compute instructions
//! s <words>               stack/static data references
//! ```
//!
//! The parser validates the same well-formedness invariants the
//! synthetic generator guarantees (unique ids, frees and touches name
//! live objects, touches stay in bounds), so the engine can run imported
//! traces without further checking.
//!
//! Ids in the file are free-form: any distinct `u64`s, in any order.
//! The engine's events name objects by allocation ordinal instead (see
//! [`AppEvent`]), so the parser renumbers them — the file's n-th `a`
//! record becomes object n, and its `f` and `t` records follow. Error
//! messages quote ids as written in the file. [`write_trace`] writes
//! the ordinals back out, so an exported stream re-imports unchanged.
//!
//! # Example
//!
//! ```
//! use workloads::import::parse_trace;
//!
//! let text = "a 0 24\n t 0 0 24 w\n f 0\n";
//! let events = parse_trace(text.as_bytes())?;
//! assert_eq!(events.len(), 3);
//! # Ok::<(), workloads::import::ImportError>(())
//! ```

use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Read};

use std::collections::HashMap;

use crate::AppEvent;

/// A parse or validation failure, with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportError {
    /// 1-based line of the offending record.
    pub line: u64,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl Error for ImportError {}

impl From<std::io::Error> for ImportError {
    fn from(e: std::io::Error) -> Self {
        ImportError { line: 0, message: format!("I/O error: {e}") }
    }
}

fn err(line: u64, message: impl Into<String>) -> ImportError {
    ImportError { line, message: message.into() }
}

/// One object named in a trace file, keyed by its id as written.
struct Object {
    /// Allocation ordinal: the engine-side id.
    ordinal: u64,
    /// Requested bytes.
    size: u32,
    /// Whether it has not been freed yet.
    live: bool,
}

/// Parses and validates a text allocation trace into engine events,
/// renumbering the file's object ids to allocation ordinals.
///
/// # Errors
///
/// Returns [`ImportError`] on the first malformed or inconsistent record
/// (unknown verb, duplicate id, free/touch of a dead object,
/// out-of-bounds touch).
pub fn parse_trace<R: Read>(input: R) -> Result<Vec<AppEvent>, ImportError> {
    let mut events = Vec::new();
    // Every id the file has allocated so far, dead ones included: an id
    // is never reused.
    let mut objects: HashMap<u64, Object> = HashMap::new();
    for (idx, line) in BufReader::new(input).lines().enumerate() {
        let lineno = idx as u64 + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let verb = parts.next().expect("non-empty line has a verb");
        let mut field =
            |name: &str| parts.next().ok_or_else(|| err(lineno, format!("missing field <{name}>")));
        match verb {
            "a" => {
                let id: u64 =
                    field("id")?.parse().map_err(|e| err(lineno, format!("bad id: {e}")))?;
                let size: u32 =
                    field("size")?.parse().map_err(|e| err(lineno, format!("bad size: {e}")))?;
                let site: u32 = match parts.next() {
                    Some(s) => s.parse().map_err(|e| err(lineno, format!("bad site: {e}")))?,
                    None => 0,
                };
                let ordinal = objects.len() as u64;
                if objects.insert(id, Object { ordinal, size, live: true }).is_some() {
                    return Err(err(lineno, format!("object id {id} reused")));
                }
                events.push(AppEvent::Malloc { id: ordinal, size, site });
            }
            "f" => {
                let id: u64 =
                    field("id")?.parse().map_err(|e| err(lineno, format!("bad id: {e}")))?;
                let Some(object) = objects.get_mut(&id).filter(|o| o.live) else {
                    return Err(err(lineno, format!("free of dead object {id}")));
                };
                object.live = false;
                events.push(AppEvent::Free { id: object.ordinal });
            }
            "t" => {
                let id: u64 =
                    field("id")?.parse().map_err(|e| err(lineno, format!("bad id: {e}")))?;
                let offset: u32 = field("offset")?
                    .parse()
                    .map_err(|e| err(lineno, format!("bad offset: {e}")))?;
                let len: u32 =
                    field("len")?.parse().map_err(|e| err(lineno, format!("bad len: {e}")))?;
                let write = match field("r|w")? {
                    "r" => false,
                    "w" => true,
                    other => return Err(err(lineno, format!("bad access kind {other:?}"))),
                };
                let Some(&Object { ordinal, size, .. }) = objects.get(&id).filter(|o| o.live)
                else {
                    return Err(err(lineno, format!("touch of dead object {id}")));
                };
                if len == 0 {
                    return Err(err(lineno, "zero-length touch"));
                }
                if u64::from(offset) + u64::from(len) > u64::from(size.max(4)) {
                    return Err(err(
                        lineno,
                        format!("touch {offset}+{len} outside {size}-byte object {id}"),
                    ));
                }
                events.push(AppEvent::Access { id: ordinal, offset, len, write });
            }
            "c" => {
                let instrs: u64 = field("instrs")?
                    .parse()
                    .map_err(|e| err(lineno, format!("bad instruction count: {e}")))?;
                events.push(AppEvent::Compute { instrs });
            }
            "s" => {
                let words: u64 = field("words")?
                    .parse()
                    .map_err(|e| err(lineno, format!("bad word count: {e}")))?;
                events.push(AppEvent::Stack { words });
            }
            other => return Err(err(lineno, format!("unknown verb {other:?}"))),
        }
        if let Some(extra) = parts.next() {
            return Err(err(lineno, format!("trailing field {extra:?}")));
        }
    }
    Ok(events)
}

/// Writes events back out in the text format (the inverse of
/// [`parse_trace`]); useful for exporting a synthetic workload so it can
/// be edited or shared.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: std::io::Write>(events: &[AppEvent], mut out: W) -> std::io::Result<()> {
    for e in events {
        match *e {
            AppEvent::Malloc { id, size, site } => writeln!(out, "a {id} {size} {site}")?,
            AppEvent::Free { id } => writeln!(out, "f {id}")?,
            AppEvent::Access { id, offset, len, write } => {
                writeln!(out, "t {id} {offset} {len} {}", if write { "w" } else { "r" })?
            }
            AppEvent::Compute { instrs } => writeln!(out, "c {instrs}")?,
            AppEvent::Stack { words } => writeln!(out, "s {words}")?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Program, Scale};

    #[test]
    fn well_formed_trace_parses() {
        let text = "# demo\n\na 0 24 3\nt 0 0 24 w\na 1 100\nt 1 96 4 r\nf 0\nc 500\ns 32\nf 1\n";
        let events = parse_trace(text.as_bytes()).unwrap();
        assert_eq!(events.len(), 8);
        assert_eq!(events[0], AppEvent::Malloc { id: 0, size: 24, site: 3 });
        assert_eq!(events[2], AppEvent::Malloc { id: 1, size: 100, site: 0 });
        assert_eq!(events[6], AppEvent::Stack { words: 32 });

        // Free-form ids in the file become allocation ordinals.
        let sparse = "a 900 24\na 5 8\nt 5 0 8 r\nf 900\nt 5 4 4 w\nf 5\n";
        let events = parse_trace(sparse.as_bytes()).unwrap();
        assert_eq!(
            events,
            [
                AppEvent::Malloc { id: 0, size: 24, site: 0 },
                AppEvent::Malloc { id: 1, size: 8, site: 0 },
                AppEvent::Access { id: 1, offset: 0, len: 8, write: false },
                AppEvent::Free { id: 0 },
                AppEvent::Access { id: 1, offset: 4, len: 4, write: true },
                AppEvent::Free { id: 1 },
            ]
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("x 1 2\n", "unknown verb"),
            ("a 0\n", "missing field"),
            ("a 0 8\na 0 8\n", "reused"),
            ("a 9 8\nf 9\na 9 8\n", "object id 9 reused"),
            ("f 7\n", "dead object"),
            ("a 70 8\nf 70\nf 70\n", "free of dead object 70"),
            ("a 70 8\nf 70\nt 70 0 4 r\n", "touch of dead object 70"),
            ("a 3 4\na 70 8\nt 70 4 8 w\n", "outside 8-byte object 70"),
            ("a 0 8\nt 0 4 8 w\n", "outside"),
            ("a 0 8\nt 0 0 4 q\n", "bad access kind"),
            ("a 0 8 1 junk\n", "trailing"),
            ("a 0 8\nt 0 0 0 r\n", "zero-length"),
        ];
        for (text, needle) in cases {
            let e = parse_trace(text.as_bytes()).unwrap_err();
            assert!(e.message.contains(needle), "{text:?} -> {e}");
            assert!(e.line > 0);
        }
    }

    #[test]
    fn round_trips_through_text() {
        let original: Vec<AppEvent> = Program::Make.spec().events(Scale(0.02)).collect();
        let mut buf = Vec::new();
        write_trace(&original, &mut buf).unwrap();
        let back = parse_trace(&buf[..]).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn synthetic_streams_are_valid_imports() {
        // The generator's invariants are exactly the importer's checks.
        for p in [Program::Gawk, Program::Ptc] {
            let events: Vec<AppEvent> = p.spec().events(Scale(0.002)).collect();
            let mut buf = Vec::new();
            write_trace(&events, &mut buf).unwrap();
            parse_trace(&buf[..]).unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }
}
