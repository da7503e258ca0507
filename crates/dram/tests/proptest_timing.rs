//! Property tests: the DDR4 device must uphold its timing contracts for
//! *any* command sequence a controller might attempt.

use proptest::prelude::*;

use rop_dram::{Command, DramConfig, DramDevice};

#[derive(Debug, Clone, Copy)]
enum Op {
    Activate {
        rank: usize,
        bank: usize,
        row: usize,
    },
    Precharge {
        rank: usize,
        bank: usize,
    },
    Read {
        rank: usize,
        bank: usize,
        column: usize,
    },
    Write {
        rank: usize,
        bank: usize,
        column: usize,
    },
    Refresh {
        rank: usize,
    },
    Wait {
        cycles: u16,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 0usize..8, 0usize..64).prop_map(|(rank, bank, row)| Op::Activate {
            rank,
            bank,
            row
        }),
        (0usize..2, 0usize..8).prop_map(|(rank, bank)| Op::Precharge { rank, bank }),
        (0usize..2, 0usize..8, 0usize..128).prop_map(|(rank, bank, column)| Op::Read {
            rank,
            bank,
            column
        }),
        (0usize..2, 0usize..8, 0usize..128).prop_map(|(rank, bank, column)| Op::Write {
            rank,
            bank,
            column
        }),
        (0usize..2).prop_map(|rank| Op::Refresh { rank }),
        (1u16..400).prop_map(|cycles| Op::Wait { cycles }),
    ]
}

fn to_command(op: Op) -> Option<Command> {
    Some(match op {
        Op::Activate { rank, bank, row } => Command::Activate { rank, bank, row },
        Op::Precharge { rank, bank } => Command::Precharge { rank, bank },
        Op::Read { rank, bank, column } => Command::Read { rank, bank, column },
        Op::Write { rank, bank, column } => Command::Write { rank, bank, column },
        Op::Refresh { rank } => Command::Refresh { rank },
        Op::Wait { .. } => return None,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Issue-at-earliest is always accepted: whatever `earliest_issue`
    /// promises, `try_issue` honours, and the promised cycle never lies
    /// in the past.
    #[test]
    fn earliest_issue_is_honoured(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut dev = DramDevice::new(DramConfig::baseline(2));
        let mut now = 0u64;
        let mut acts: Vec<(u64, usize)> = Vec::new(); // (cycle, rank)
        let t_faw = dev.config().timing.t_faw;
        for op in ops {
            if let Op::Wait { cycles } = op {
                now += cycles as u64;
                continue;
            }
            let cmd = to_command(op).expect("non-wait op");
            match dev.earliest_issue(&cmd, now) {
                Ok(at) => {
                    prop_assert!(at >= now);
                    let out = dev.try_issue(&cmd, at);
                    prop_assert!(out.is_ok(), "promised {at} rejected: {:?}", out.err());
                    now = at;
                    if matches!(cmd, Command::Activate { .. }) {
                        acts.push((at, cmd.rank()));
                    }
                    if let Some(data_at) = out.expect("checked ok").data_at {
                        prop_assert!(data_at > at, "data must follow issue");
                    }
                }
                Err(_) => {
                    // Structurally illegal now (e.g. READ on closed bank):
                    // issuing must also fail.
                    prop_assert!(dev.try_issue(&cmd, now).is_err());
                }
            }
        }
        // Four-activate window: no rank ever had 5 ACTs within tFAW.
        for rank in 0..2 {
            let times: Vec<u64> = acts.iter().filter(|&&(_, r)| r == rank).map(|&(t, _)| t).collect();
            for w in times.windows(5) {
                prop_assert!(
                    w[4] - w[0] >= t_faw,
                    "5 ACTs within tFAW on rank {rank}: {w:?}"
                );
            }
        }
    }

    /// The column floor is a channel-wide lower bound: after any command
    /// sequence, no READ or WRITE to any open bank of either rank can
    /// issue before the floor of its kind.
    #[test]
    fn column_floor_bounds_every_column_command(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut dev = DramDevice::new(DramConfig::baseline(2));
        let mut now = 0u64;
        for op in ops {
            if let Op::Wait { cycles } = op {
                now += cycles as u64;
                continue;
            }
            let cmd = to_command(op).expect("non-wait op");
            if let Ok(at) = dev.earliest_issue(&cmd, now) {
                dev.issue(&cmd, at);
                now = at;
            }
            for (rank, bank) in (0..2).flat_map(|r| (0..8).map(move |b| (r, b))) {
                let read = Command::Read { rank, bank, column: 0 };
                let write = Command::Write { rank, bank, column: 0 };
                for (cmd, floor) in [(read, dev.column_floor(false)), (write, dev.column_floor(true))] {
                    if let Ok(at) = dev.earliest_issue(&cmd, now) {
                        prop_assert!(floor <= at, "floor {floor} above {at} for {cmd:?} at {now}");
                    }
                }
            }
        }
    }

    /// A rank under refresh accepts no ACT before the refresh completes,
    /// and the lock lasts exactly tRFC.
    #[test]
    fn refresh_lock_is_exact(start in 0u64..100_000) {
        let mut dev = DramDevice::new(DramConfig::baseline(1));
        let out = dev.issue(&Command::Refresh { rank: 0 }, start);
        let t_rfc = dev.config().timing.t_rfc();
        prop_assert_eq!(out.completes_at, start + t_rfc);
        let act = Command::Activate { rank: 0, bank: 0, row: 1 };
        let earliest = dev.earliest_issue(&act, start + 1).expect("act legal later");
        prop_assert_eq!(earliest, start + t_rfc);
        prop_assert!(dev.is_rank_refreshing(0, start + t_rfc - 1));
        prop_assert!(!dev.is_rank_refreshing(0, start + t_rfc));
    }

    /// Command counts never decrease and match what was issued.
    #[test]
    fn counts_track_issues(rows in proptest::collection::vec(0usize..32, 1..30)) {
        let mut dev = DramDevice::new(DramConfig::baseline(1));
        let mut now = 0u64;
        let mut acts = 0u64;
        for (bank_seed, row) in rows.iter().enumerate() {
            let bank = bank_seed % 8;
            let act = Command::Activate { rank: 0, bank, row: *row };
            if let Ok(at) = dev.earliest_issue(&act, now) {
                if dev.try_issue(&act, at).is_ok() {
                    acts += 1;
                    now = at;
                    let pre = Command::Precharge { rank: 0, bank };
                    let at = dev.earliest_issue(&pre, now).expect("open bank");
                    dev.issue(&pre, at);
                    now = at;
                }
            }
        }
        prop_assert_eq!(dev.counts().activates, acts);
        prop_assert_eq!(dev.counts().precharges, acts);
    }
}
