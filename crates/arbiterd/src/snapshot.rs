//! Write-ahead arbiter-state snapshots in two alternating slot files.
//!
//! The durability contract: the daemon persists its state *before*
//! releasing the grants computed from it, so a `kill -9` at any instant
//! leaves on disk either the pre-tick or the post-tick state — never a
//! torn hybrid — and a restarted daemon resumes with Σ grants ≤ budget
//! intact and grants bit-identical to what clients last saw (or were
//! about to see).
//!
//! A snapshot path names two slots, `<path>` (slot 0) and `<path>.1`
//! (slot 1), which [`SnapshotSlots`] opens once and keeps open. Each
//! write overwrites, in place and then fsynced, the slot that does *not*
//! hold the newest state, so a write torn by a crash leaves the previous
//! tick intact in the other slot. [`Snapshot::load`] adopts the newest
//! checksum-valid slot by tick; torn or tampered slots are caught by an
//! FNV-1a checksum over the payload and rejected as "no snapshot" rather
//! than trusted. A cold-started writer (one that adopted nothing)
//! durably empties slot 1 before its first write to slot 0, so a
//! higher-tick slot left by an earlier run can never outrank the new
//! run's state.
//!
//! Watts are stored as hex-encoded `f64` bits, not decimal — restore
//! must be *bitwise*, and a decimal round-trip would quietly break the
//! chaos acceptance criterion.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

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

/// Bytes [`SnapshotSlots::newest`] reads to find a slot's tick: more than
/// the magic line and the longest tick line (20 digits) take.
const HEAD_LEN: u64 = 64;

/// The tick in a snapshot's first two lines, the magic line and the
/// tick line.
fn header_tick(lines: &mut std::str::Lines<'_>) -> Option<u64> {
    if lines.next()? != MAGIC {
        return None;
    }
    lines.next()?.strip_prefix("tick ")?.parse().ok()
}

/// The tick a slot file's header claims, read from its first
/// [`HEAD_LEN`] bytes without checking the rest: `None` when they hold
/// no complete header, which no valid file lacks.
fn peek_tick(path: &Path) -> Option<u64> {
    let mut head = Vec::with_capacity(HEAD_LEN as usize);
    File::open(path)
        .ok()?
        .take(HEAD_LEN)
        .read_to_end(&mut head)
        .ok()?;
    // The header ends at the second newline.
    let end = head
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(1)?
        .0;
    header_tick(&mut std::str::from_utf8(&head[..end]).ok()?.lines())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A [`Snapshot`]'s fields, borrowed: what the service encodes from its
/// live grant and lease tables without copying them first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SnapshotRef<'a> {
    pub tick: u64,
    pub budget_w: f64,
    pub grants_w: &'a [f64],
    pub leases: &'a [Option<u64>],
    pub window: Option<([f64; 5], u64)>,
}

/// `v` as 16 lowercase hex digits, most significant first (`{:016x}`).
fn put_hex(out: &mut Vec<u8>, v: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut b = [0u8; 16];
    for (i, d) in b.iter_mut().enumerate() {
        *d = DIGITS[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    out.extend_from_slice(&b);
}

/// `v` in decimal, without padding (`{}`).
fn put_dec(out: &mut Vec<u8>, mut v: u64) {
    let mut b = [0u8; 20];
    let mut at = b.len();
    loop {
        at -= 1;
        b[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&b[at..]);
}

impl SnapshotRef<'_> {
    /// Render the on-disk form (text lines + trailing checksum) into one
    /// buffer sized for the longest lines these fields can produce.
    pub fn to_bytes(self) -> Vec<u8> {
        // A grant is " " + 16 hex digits, a lease at most " " + 20
        // decimal digits; the other lines together stay under 256 bytes.
        let cap = 256 + 17 * self.grants_w.len() + 21 * self.leases.len();
        let mut out = Vec::with_capacity(cap);
        out.extend_from_slice(MAGIC.as_bytes());
        out.extend_from_slice(b"\ntick ");
        put_dec(&mut out, self.tick);
        out.extend_from_slice(b"\nbudget ");
        put_hex(&mut out, self.budget_w.to_bits());
        out.extend_from_slice(b"\ngrants");
        for g in self.grants_w {
            out.push(b' ');
            put_hex(&mut out, g.to_bits());
        }
        out.extend_from_slice(b"\nleases");
        for l in self.leases {
            match l {
                Some(t) => {
                    out.push(b' ');
                    put_dec(&mut out, *t);
                }
                None => out.extend_from_slice(b" -"),
            }
        }
        out.push(b'\n');
        if let Some((sums, count)) = &self.window {
            out.extend_from_slice(b"window");
            for s in sums {
                out.push(b' ');
                put_hex(&mut out, s.to_bits());
            }
            out.push(b' ');
            put_dec(&mut out, *count);
            out.push(b'\n');
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(b"checksum ");
        put_hex(&mut out, sum);
        out.push(b'\n');
        out
    }
}

impl Snapshot {
    fn borrowed(&self) -> SnapshotRef<'_> {
        SnapshotRef {
            tick: self.tick,
            budget_w: self.budget_w,
            grants_w: &self.grants_w,
            leases: &self.leases,
            window: self.window,
        }
    }

    /// Render the on-disk form (text lines + trailing checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.borrowed().to_bytes()
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
        let tick = header_tick(&mut lines)?;
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

    /// Load the newest checksum-valid slot under `path` (see
    /// [`SnapshotSlots`]); `None` when neither slot is usable.
    pub fn load(path: &Path) -> Option<Snapshot> {
        SnapshotSlots::new(path).newest().map(|(_, snap)| snap)
    }
}

/// The two slot files behind a snapshot path: `<path>` and `<path>.1`.
/// Appended, not `with_extension`: that would map every shard's
/// `x.snap.s<i>` onto one shared `x.snap.1`.
pub(crate) fn slot_paths(path: &Path) -> [PathBuf; 2] {
    let mut second = path.as_os_str().to_owned();
    second.push(".1");
    [path.to_path_buf(), second.into()]
}

/// The snapshot writer: two slot files under one path, overwritten in
/// place in turn (see the module docs). The files are opened on the
/// first write and kept open.
#[derive(Debug)]
pub struct SnapshotSlots {
    paths: [PathBuf; 2],
    files: Option<[File; 2]>,
    /// The slot the next write overwrites: the one not holding the
    /// newest state.
    next: usize,
    /// Nothing was adopted, so slot 1 may hold an earlier run's state
    /// that must be emptied before the first write.
    cold: bool,
}

impl SnapshotSlots {
    /// A cold-started writer for `path`: its first write goes to slot 0,
    /// after emptying slot 1. Touches no file until then.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            paths: slot_paths(&path.into()),
            files: None,
            next: 0,
            cold: true,
        }
    }

    /// The newest checksum-valid slot by tick (slot 0 on a tie) and its
    /// index; adopting it is the caller's decision, recorded with
    /// [`SnapshotSlots::adopt`].
    ///
    /// Only the slot whose header claims the higher tick is read whole
    /// and checked; the other is read only when that check fails.
    pub(crate) fn newest(&self) -> Option<(usize, Snapshot)> {
        let ticks = [0, 1].map(|slot| peek_tick(&self.paths[slot]));
        let first = usize::from(ticks[1] > ticks[0]);
        [first, 1 - first].into_iter().find_map(|slot| {
            ticks[slot]?;
            let snap = Snapshot::from_bytes(&fs::read(&self.paths[slot]).ok()?)?;
            Some((slot, snap))
        })
    }

    /// The state in `slot` was adopted: continue in the other slot, and
    /// keep both as they are.
    pub(crate) fn adopt(&mut self, slot: usize) {
        self.next = 1 - slot;
        self.cold = false;
    }

    /// Persist `snap` write-ahead; see [`SnapshotSlots`].
    pub fn write(&mut self, snap: &Snapshot) -> io::Result<()> {
        self.write_ref(snap.borrowed())
    }

    /// Overwrite the slot not holding the newest state: seek to 0,
    /// write, trim to length, fsync. On any error that slot may be torn,
    /// so the next write retries it and the other slot keeps the newest
    /// state.
    pub(crate) fn write_ref(&mut self, snap: SnapshotRef<'_>) -> io::Result<()> {
        let bytes = snap.to_bytes();
        let slot = self.next;
        let file = &mut self.open()?[slot];
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&bytes)?;
        file.set_len(bytes.len() as u64)?;
        file.sync_all()?;
        self.next = 1 - slot;
        Ok(())
    }

    fn open(&mut self) -> io::Result<&mut [File; 2]> {
        if self.files.is_none() {
            let open = |p: &PathBuf| {
                OpenOptions::new()
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(p)
            };
            let files = [open(&self.paths[0])?, open(&self.paths[1])?];
            if self.cold {
                // Slot 0 is about to be overwritten; a stale slot 1 left
                // by an earlier run would outrank it after a crash.
                files[1].set_len(0)?;
                files[1].sync_all()?;
            }
            // Either slot may have just been created: make its name as
            // durable as its contents.
            let dir = match self.paths[0].parent() {
                Some(dir) if !dir.as_os_str().is_empty() => dir,
                _ => Path::new("."),
            };
            File::open(dir)?.sync_all()?;
            self.cold = false;
            self.files = Some(files);
        }
        Ok(self.files.as_mut().expect("opened above"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `format!`-based encoder the direct one must match byte for
    /// byte: the file format as first written.
    fn to_bytes_formatted(s: &Snapshot) -> Vec<u8> {
        let mut body = String::new();
        body.push_str(MAGIC);
        body.push('\n');
        body.push_str(&format!("tick {}\n", s.tick));
        body.push_str(&format!("budget {:016x}\n", s.budget_w.to_bits()));
        body.push_str("grants");
        for g in &s.grants_w {
            body.push_str(&format!(" {:016x}", g.to_bits()));
        }
        body.push('\n');
        body.push_str("leases");
        for l in &s.leases {
            match l {
                Some(t) => body.push_str(&format!(" {t}")),
                None => body.push_str(" -"),
            }
        }
        body.push('\n');
        if let Some((sums, count)) = &s.window {
            body.push_str("window");
            for v in sums {
                body.push_str(&format!(" {:016x}", v.to_bits()));
            }
            body.push_str(&format!(" {count}\n"));
        }
        let sum = fnv1a(body.as_bytes());
        body.push_str(&format!("checksum {sum:016x}\n"));
        body.into_bytes()
    }

    /// `f64` bit patterns weighted toward the awkward ones: NaNs, both
    /// infinities, subnormals, both zeros and leading-zero nibbles.
    fn f64_bits() -> impl Strategy<Value = u64> {
        prop_oneof![
            1 => Just(f64::NAN.to_bits()),
            1 => Just(f64::INFINITY.to_bits()),
            1 => Just(f64::NEG_INFINITY.to_bits()),
            1 => Just(0u64),
            1 => Just((-0.0f64).to_bits()),
            2 => 1u64..(1 << 52),
            1 => Just(u64::MAX),
            6 => any::<u64>(),
        ]
    }

    /// Counters weighted toward the extremes and every decimal width.
    fn counter() -> impl Strategy<Value = u64> {
        prop_oneof![
            1 => Just(0u64),
            1 => Just(u64::MAX),
            2 => 0u64..10,
            2 => 0u64..100_000,
            2 => any::<u64>().prop_map(|v| v >> (v % 64)),
        ]
    }

    fn snapshot() -> impl Strategy<Value = Snapshot> {
        (
            (counter(), f64_bits(), any::<bool>(), counter()),
            prop::collection::vec((f64_bits(), any::<bool>(), counter()), 0..40),
            prop::collection::vec(f64_bits(), 5),
        )
            .prop_map(|((tick, budget, windowed, count), cells, sums)| Snapshot {
                tick,
                budget_w: f64::from_bits(budget),
                grants_w: cells.iter().map(|c| f64::from_bits(c.0)).collect(),
                leases: cells.iter().map(|c| c.1.then_some(c.2)).collect(),
                window: windowed.then(|| {
                    let mut s = [0.0; 5];
                    for (d, &b) in s.iter_mut().zip(&sums) {
                        *d = f64::from_bits(b);
                    }
                    (s, count)
                }),
            })
    }

    fn same_bits(a: &Snapshot, b: &Snapshot) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        a.tick == b.tick
            && a.budget_w.to_bits() == b.budget_w.to_bits()
            && bits(&a.grants_w) == bits(&b.grants_w)
            && a.leases == b.leases
            && match (&a.window, &b.window) {
                (None, None) => true,
                (Some((sa, ca)), Some((sb, cb))) => bits(sa) == bits(sb) && ca == cb,
                _ => false,
            }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The encoder writes exactly the formatted file, checksum line
        /// included, and every such file restores bit for bit.
        #[test]
        fn encoder_matches_the_formatted_file_byte_for_byte(snap in snapshot()) {
            let bytes = snap.to_bytes();
            prop_assert_eq!(
                String::from_utf8_lossy(&bytes),
                String::from_utf8_lossy(&to_bytes_formatted(&snap))
            );
            let back = Snapshot::from_bytes(&bytes).expect("a written file parses");
            prop_assert!(same_bits(&back, &snap), "{back:?} != {snap:?}");
        }
    }

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

    /// A scratch directory per test, removed with both slots in it.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("arbiterd-snap-{tag}-{}", std::process::id()));
            fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.0).ok();
        }
    }

    /// The tick each slot holds, `None` for a missing or invalid slot.
    fn slot_ticks(path: &Path) -> [Option<u64>; 2] {
        slot_paths(path).map(|p| Snapshot::from_bytes(&fs::read(p).ok()?).map(|s| s.tick))
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let dir = Scratch::new("rt");
        let path = dir.0.join("state.snap");
        let mut slots = SnapshotSlots::new(&path);
        let s = sample();
        slots.write(&s).unwrap();
        assert_eq!(Snapshot::load(&path), Some(s.clone()));
        // The next write lands in the other slot; load takes the newer.
        let s2 = Snapshot { tick: 43, ..s };
        slots.write(&s2).unwrap();
        assert_eq!(Snapshot::load(&path), Some(s2));
        assert_eq!(slot_ticks(&path), [Some(42), Some(43)]);
    }

    #[test]
    fn successive_writes_alternate_slots() {
        let dir = Scratch::new("alt");
        let path = dir.0.join("state.snap");
        let mut slots = SnapshotSlots::new(&path);
        let mut seen = Vec::new();
        for tick in 1..=4 {
            slots.write(&Snapshot { tick, ..sample() }).unwrap();
            seen.push(slot_ticks(&path));
        }
        assert_eq!(
            seen,
            [
                [Some(1), None],
                [Some(1), Some(2)],
                [Some(3), Some(2)],
                [Some(3), Some(4)],
            ]
        );
    }

    #[test]
    fn load_reads_slot_one_when_only_it_is_valid() {
        let dir = Scratch::new("one");
        let path = dir.0.join("state.snap");
        let [first, second] = slot_paths(&path);
        fs::write(&second, sample().to_bytes()).unwrap();
        assert_eq!(Snapshot::load(&path), Some(sample()), "slot 0 missing");
        fs::write(&first, b"not a snapshot").unwrap();
        assert_eq!(Snapshot::load(&path), Some(sample()), "slot 0 garbage");
        let bytes = Snapshot {
            tick: 99,
            ..sample()
        }
        .to_bytes();
        fs::write(&first, &bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(Snapshot::load(&path), Some(sample()), "slot 0 torn");
    }

    #[test]
    fn a_torn_newer_slot_falls_back_to_the_older_one() {
        let dir = Scratch::new("torn");
        let path = dir.0.join("state.snap");
        let [first, second] = slot_paths(&path);
        let older = sample();
        let newer = Snapshot {
            tick: 43,
            ..sample()
        }
        .to_bytes();
        fs::write(&first, older.to_bytes()).unwrap();
        let mut flipped = newer.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        // Torn past its header (tick 43 still readable), inside the tick
        // line, and after it, with the checksum line cut short.
        let tick_line = MAGIC.len() + "\ntick 4".len();
        for torn in [&flipped[..], &newer[..tick_line], &newer[..newer.len() - 5]] {
            fs::write(&second, torn).unwrap();
            assert_eq!(SnapshotSlots::new(&path).newest(), Some((0, older.clone())));
        }
        // Intact, the newer slot wins; at an equal tick slot 0 does.
        fs::write(&second, &newer).unwrap();
        assert_eq!(
            SnapshotSlots::new(&path).newest().map(|(i, s)| (i, s.tick)),
            Some((1, 43))
        );
        let tie = Snapshot {
            budget_w: 500.0,
            ..older.clone()
        };
        fs::write(&second, tie.to_bytes()).unwrap();
        assert_eq!(SnapshotSlots::new(&path).newest(), Some((0, older)));
    }

    #[test]
    fn sibling_shard_files_stage_through_their_own_temp_files() {
        // Every shard's `x.snap.s<i>` has slots of its own (`x.snap.s<i>`
        // and `x.snap.s<i>.1`), so concurrent shard writers never share
        // a file.
        let dir = Scratch::new("sib");
        let writers: Vec<_> = (0..2u64)
            .map(|i| {
                let path = dir.0.join(format!("x.snap.s{i}"));
                std::thread::spawn(move || {
                    let s = Snapshot {
                        tick: i,
                        ..sample()
                    };
                    let mut slots = SnapshotSlots::new(&path);
                    let failed = (0..200).filter(|_| slots.write(&s).is_err()).count();
                    (failed, Snapshot::load(&path) == Some(s))
                })
            })
            .collect();
        for (i, w) in writers.into_iter().enumerate() {
            let (failed, own) = w.join().unwrap();
            assert_eq!(failed, 0, "shard {i}: every save must succeed");
            assert!(own, "shard {i}'s file must hold its own snapshot");
        }
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
