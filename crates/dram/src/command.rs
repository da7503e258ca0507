//! DRAM commands as issued by the memory controller.

use crate::Cycle;

/// A DRAM command addressed to this channel.
///
/// `rank`/`bank`/`row`/`column` are indices into the configured
/// [`crate::Geometry`]; `column` addresses one cache line within the open
/// row (the model transfers whole cache lines, i.e. one BL8 burst).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Open `row` in `bank` of `rank` (row activation: drives the row into
    /// the bank's row buffer / sense amplifiers).
    Activate {
        rank: usize,
        bank: usize,
        row: usize,
    },
    /// Close the open row in `bank` of `rank`.
    Precharge { rank: usize, bank: usize },
    /// Read one cache line from the open row.
    Read {
        rank: usize,
        bank: usize,
        column: usize,
    },
    /// Write one cache line into the open row.
    Write {
        rank: usize,
        bank: usize,
        column: usize,
    },
    /// All-bank auto-refresh of `rank`; locks the rank for `tRFC`.
    Refresh { rank: usize },
    /// Per-bank refresh (REFpb): refreshes one bank for `tRFCpb` while
    /// the rank's other banks keep operating (§VII future-work mode).
    RefreshBank { rank: usize, bank: usize },
}

/// Discriminant-only view of a [`Command`], for stats and matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    Activate,
    Precharge,
    Read,
    Write,
    Refresh,
    RefreshBank,
}

impl Command {
    /// The rank this command addresses.
    pub fn rank(&self) -> usize {
        match *self {
            Command::Activate { rank, .. }
            | Command::Precharge { rank, .. }
            | Command::Read { rank, .. }
            | Command::Write { rank, .. }
            | Command::Refresh { rank }
            | Command::RefreshBank { rank, .. } => rank,
        }
    }

    /// The bank this command addresses, if it is bank-scoped.
    pub fn bank(&self) -> Option<usize> {
        match *self {
            Command::Activate { bank, .. }
            | Command::Precharge { bank, .. }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. }
            | Command::RefreshBank { bank, .. } => Some(bank),
            Command::Refresh { .. } => None,
        }
    }

    /// Discriminant of this command.
    pub fn kind(&self) -> CommandKind {
        match self {
            Command::Activate { .. } => CommandKind::Activate,
            Command::Precharge { .. } => CommandKind::Precharge,
            Command::Read { .. } => CommandKind::Read,
            Command::Write { .. } => CommandKind::Write,
            Command::Refresh { .. } => CommandKind::Refresh,
            Command::RefreshBank { .. } => CommandKind::RefreshBank,
        }
    }
}

/// Result of issuing a command: when its effect completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandCompletion {
    /// Cycle at which the command was issued.
    pub issued_at: Cycle,
    /// For READ: cycle at which the last data beat arrives at the
    /// controller. For WRITE: last data beat driven. For ACT/PRE/REF: the
    /// cycle at which the affected resource becomes usable again.
    pub done_at: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let c = Command::Read {
            rank: 2,
            bank: 5,
            column: 17,
        };
        assert_eq!(c.rank(), 2);
        assert_eq!(c.bank(), Some(5));
        assert_eq!(c.kind(), CommandKind::Read);

        let r = Command::Refresh { rank: 1 };
        assert_eq!(r.rank(), 1);
        assert_eq!(r.bank(), None);
        assert_eq!(r.kind(), CommandKind::Refresh);
    }
}
