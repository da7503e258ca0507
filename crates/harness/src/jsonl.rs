//! The append-only JSONL log under both the results [`crate::Store`]
//! and the [`crate::LeaseLog`].
//!
//! A [`JsonlLog`] keeps what it has parsed — the decoded records, the
//! count of corrupt lines, and the byte offset just past the last
//! complete (newline-terminated) line — so each load reads and parses
//! only the bytes appended since the previous one. The rules:
//!
//! * **Append-only.** Bytes before the offset are never re-read; the
//!   files are only ever appended to (or deleted).
//! * **Complete lines only are consumed.** A line a writer is still
//!   appending, or one a crash tore, has no newline yet. It stays
//!   unconsumed, so a later append glued onto it is judged as one line,
//!   once complete. Until then it counts as one corrupt line in the
//!   returned view — unless it decodes (a crash took only the newline),
//!   in which case the view holds its record, as a full parse would.
//! * **Shrink means reload.** A file shorter than the offset (or gone)
//!   was truncated or replaced; the log drops its state and parses it
//!   from byte zero.
//!
//! Clones of one handle share the parsed state and so parse each record
//! once between them; separate handles (a second `Store::open`, other
//! processes, peers in a `--join` sweep) each read the same tail and see
//! every append.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use rop_stats::Json;

use crate::store::StoreIo;

/// What a [`JsonlLog`] has consumed so far.
struct Parsed<R> {
    /// Records decoded from complete lines, in file order. Shared with
    /// every snapshot handed out; a load appends in place when no
    /// snapshot is still held.
    records: Arc<Vec<R>>,
    /// Complete lines that failed to decode.
    corrupt: usize,
    /// Byte offset just past the last complete line.
    offset: u64,
    /// The last record came from the unterminated tail: it is not
    /// consumed, so the next load drops it and reads the tail again.
    tail_record: bool,
}

impl<R> Default for Parsed<R> {
    fn default() -> Self {
        Parsed {
            records: Arc::new(Vec::new()),
            corrupt: 0,
            offset: 0,
            tail_record: false,
        }
    }
}

/// One append-only JSONL file, read incrementally (see the module docs).
#[derive(Clone)]
pub(crate) struct JsonlLog<R> {
    path: PathBuf,
    io: Arc<dyn StoreIo>,
    decode: fn(&Json) -> Result<R, String>,
    parsed: Arc<Mutex<Parsed<R>>>,
}

impl<R: Clone> JsonlLog<R> {
    /// A log at `path` whose lines decode through `decode`.
    pub(crate) fn new(
        path: PathBuf,
        io: Arc<dyn StoreIo>,
        decode: fn(&Json) -> Result<R, String>,
    ) -> Self {
        JsonlLog {
            path,
            io,
            decode,
            parsed: Arc::new(Mutex::new(Parsed::default())),
        }
    }

    /// The backing file path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Every record in the file, and the number of corrupt lines (an
    /// unterminated tail included). A missing file is an empty log.
    pub(crate) fn load(&self) -> Result<(Arc<Vec<R>>, usize), String> {
        // State changes only by a whole reset, by dropping the tail
        // record, or by one update of records, count and offset
        // together, so a lock poisoned by a panic in between still
        // guards consistent state.
        let mut parsed = self.parsed.lock().unwrap_or_else(PoisonError::into_inner);
        let Some((start, text)) = self.io.read_from(&self.path, parsed.offset)? else {
            *parsed = Parsed::default();
            return Ok((parsed.records.clone(), 0));
        };
        if start != parsed.offset {
            *parsed = Parsed::default();
        } else if parsed.tail_record {
            Arc::make_mut(&mut parsed.records).pop();
            parsed.tail_record = false;
        }
        let complete = text.rfind('\n').map_or(0, |i| i + 1);
        let mut fresh = Vec::new();
        let mut corrupt = 0;
        for line in text[..complete].lines() {
            if line.trim().is_empty() {
                continue;
            }
            match self.decode_line(line) {
                Ok(rec) => fresh.push(rec),
                Err(_) => corrupt += 1,
            }
        }
        let tail = &text[complete..];
        let mut torn = 0;
        let mut tail_record = false;
        if !tail.trim().is_empty() {
            match self.decode_line(tail) {
                Ok(rec) => {
                    fresh.push(rec);
                    tail_record = true;
                }
                Err(_) => torn = 1,
            }
        }
        if !fresh.is_empty() {
            Arc::make_mut(&mut parsed.records).extend(fresh);
        }
        parsed.corrupt += corrupt;
        parsed.offset = start + complete as u64;
        parsed.tail_record = tail_record;
        Ok((parsed.records.clone(), parsed.corrupt + torn))
    }

    fn decode_line(&self, line: &str) -> Result<R, String> {
        Json::parse(line).and_then(|j| (self.decode)(&j))
    }

    /// Appends `rec` as one line (newline included), fsync'd.
    pub(crate) fn append(&self, rec: &Json) -> Result<(), String> {
        let mut line = rec.render();
        line.push('\n');
        self.io.append_line(&self.path, &line)
    }
}
