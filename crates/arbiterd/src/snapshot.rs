//! Write-ahead arbiter-state snapshots with atomic replacement.
//!
//! The durability contract: the daemon persists its state *before*
//! releasing the grants computed from it, so a `kill -9` at any instant
//! leaves on disk either the pre-tick or the post-tick state — never a
//! torn hybrid — and a restarted daemon resumes with Σ grants ≤ budget
//! intact and grants bit-identical to what clients last saw (or were
//! about to see). Atomicity comes from the classic
//! write-temp → fsync → rename dance; torn or tampered files are caught
//! by an FNV-1a checksum over the payload and rejected as "no snapshot"
//! rather than trusted.
//!
//! Watts are stored as hex-encoded `f64` bits, not decimal — restore
//! must be *bitwise*, and a decimal round-trip would quietly break the
//! chaos acceptance criterion.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

/// A daemon state capture: everything needed to resume arbitration.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Service tick counter at capture time.
    pub tick: u64,
    /// Budget, W.
    pub budget_w: f64,
    /// Per-node grants, W.
    pub grants_w: Vec<f64>,
    /// Per-node lease expiry tick (`None` = no live lease).
    pub leases: Vec<Option<u64>>,
    /// Partially-accumulated outer-window telemetry: the raw field sums
    /// `[compute_s, comm_s, slack_s, rate, power_w]` and the report
    /// count. A sharded deployment drains this window to the coordinator
    /// on the outer period; persisting it mid-window keeps a restarted
    /// shard's upward aggregation bit-identical to an uncrashed one.
    /// `None` in pre-window snapshot files (read back as an empty
    /// window).
    pub window: Option<([f64; 5], u64)>,
}

const MAGIC: &str = "arbiterd-snapshot v1";

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl Snapshot {
    /// Render the on-disk form (text lines + trailing checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = String::new();
        body.push_str(MAGIC);
        body.push('\n');
        body.push_str(&format!("tick {}\n", self.tick));
        body.push_str(&format!("budget {:016x}\n", self.budget_w.to_bits()));
        body.push_str("grants");
        for g in &self.grants_w {
            body.push_str(&format!(" {:016x}", g.to_bits()));
        }
        body.push('\n');
        body.push_str("leases");
        for l in &self.leases {
            match l {
                Some(t) => body.push_str(&format!(" {t}")),
                None => body.push_str(" -"),
            }
        }
        body.push('\n');
        if let Some((sums, count)) = &self.window {
            body.push_str("window");
            for s in sums {
                body.push_str(&format!(" {:016x}", s.to_bits()));
            }
            body.push_str(&format!(" {count}\n"));
        }
        let sum = fnv1a(body.as_bytes());
        body.push_str(&format!("checksum {sum:016x}\n"));
        body.into_bytes()
    }

    /// Parse the on-disk form. `None` on any structural or checksum
    /// mismatch — a broken snapshot is treated as absent, never trusted.
    pub fn from_bytes(bytes: &[u8]) -> Option<Snapshot> {
        let text = std::str::from_utf8(bytes).ok()?;
        let (body, sum_line) = text.rsplit_once("checksum ")?;
        let stored = u64::from_str_radix(sum_line.trim(), 16).ok()?;
        if fnv1a(body.as_bytes()) != stored {
            return None;
        }
        let mut lines = body.lines();
        if lines.next()? != MAGIC {
            return None;
        }
        let tick = lines.next()?.strip_prefix("tick ")?.parse().ok()?;
        let budget_w =
            f64::from_bits(u64::from_str_radix(lines.next()?.strip_prefix("budget ")?, 16).ok()?);
        let grants_w = lines
            .next()?
            .strip_prefix("grants")?
            .split_whitespace()
            .map(|t| u64::from_str_radix(t, 16).ok().map(f64::from_bits))
            .collect::<Option<Vec<_>>>()?;
        let leases = lines
            .next()?
            .strip_prefix("leases")?
            .split_whitespace()
            .map(|t| {
                if t == "-" {
                    Some(None)
                } else {
                    t.parse().ok().map(Some)
                }
            })
            .collect::<Option<Vec<_>>>()?;
        if leases.len() != grants_w.len() {
            return None;
        }
        // The window line is optional: snapshots written before sharding
        // landed simply lack it, and restore as an empty window.
        let window = match lines.next() {
            None => None,
            Some(line) => {
                let mut toks = line.strip_prefix("window")?.split_whitespace();
                let mut sums = [0.0f64; 5];
                for s in &mut sums {
                    *s = f64::from_bits(u64::from_str_radix(toks.next()?, 16).ok()?);
                }
                let count = toks.next()?.parse().ok()?;
                if toks.next().is_some() {
                    return None;
                }
                Some((sums, count))
            }
        };
        Some(Snapshot {
            tick,
            budget_w,
            grants_w,
            leases,
            window,
        })
    }

    /// Persist atomically: write `<path>.tmp`, fsync, rename over
    /// `path`. On any error the previous snapshot (if one exists) is
    /// left untouched.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        // Appended, not `with_extension`: that would map every shard's
        // `x.snap.s<i>` onto one shared `x.snap.tmp`.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    }

    /// Load from `path`; `None` when missing or unusable.
    pub fn load(path: &Path) -> Option<Snapshot> {
        Snapshot::from_bytes(&fs::read(path).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            tick: 42,
            budget_w: 400.0,
            // Values with awkward bit patterns, to catch any decimal
            // round-trip sneaking in.
            grants_w: vec![f64::from_bits(0x4056_8A3D_70A3_D70A), 95.125, 40.0],
            leases: vec![Some(50), None, Some(61)],
            window: Some((
                [1.5, 0.25, f64::from_bits(0x3FD5_5555_5555_5555), 2.0, 190.5],
                6,
            )),
        }
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let s = sample();
        let back = Snapshot::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
        for (a, b) in back.grants_w.iter().zip(&s.grants_w) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corruption_is_detected_not_trusted() {
        let mut bytes = sample().to_bytes();
        // Flip one payload byte: the checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert_eq!(Snapshot::from_bytes(&bytes), None);
        // Truncation too.
        let bytes = sample().to_bytes();
        assert_eq!(Snapshot::from_bytes(&bytes[..bytes.len() - 3]), None);
        // And garbage.
        assert_eq!(Snapshot::from_bytes(b"not a snapshot"), None);
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("arbiterd-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        let s = sample();
        s.save(&path).unwrap();
        assert_eq!(Snapshot::load(&path), Some(s.clone()));
        // Overwrite is atomic-replace, not append.
        let s2 = Snapshot { tick: 43, ..s };
        s2.save(&path).unwrap();
        assert_eq!(Snapshot::load(&path), Some(s2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sibling_shard_files_stage_through_their_own_temp_files() {
        let dir = std::env::temp_dir().join(format!("arbiterd-snap-sib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let writers: Vec<_> = (0..2u64)
            .map(|i| {
                let path = dir.join(format!("x.snap.s{i}"));
                std::thread::spawn(move || {
                    let s = Snapshot {
                        tick: i,
                        ..sample()
                    };
                    let failed = (0..200).filter(|_| s.save(&path).is_err()).count();
                    (failed, Snapshot::load(&path) == Some(s))
                })
            })
            .collect();
        for (i, w) in writers.into_iter().enumerate() {
            let (failed, own) = w.join().unwrap();
            assert_eq!(failed, 0, "shard {i}: every save must succeed");
            assert!(own, "shard {i}'s file must hold its own snapshot");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_no_snapshot() {
        assert_eq!(Snapshot::load(Path::new("/nonexistent/nope.snap")), None);
    }

    #[test]
    fn pre_window_snapshots_still_parse() {
        // A file written before the window line existed is exactly what
        // `window: None` serializes to; it must restore as an empty
        // window, not be rejected.
        let old = Snapshot {
            window: None,
            ..sample()
        };
        let back = Snapshot::from_bytes(&old.to_bytes()).unwrap();
        assert_eq!(back.window, None);
        assert_eq!(back, old);
    }
}
