//! Galloping search over a monotone predicate.
//!
//! The node asks the same kind of question every RAPL period and the
//! answer rarely moves far: where the energy history crosses the start of
//! the averaging window, and which P-state, duty cycle and uncore level
//! still fit their budgets. [`partition_from`] answers it starting from
//! the previous answer, so an unchanged answer costs two probes and one
//! that moved by `d` costs O(log d), never a scan of the whole range.

/// The partition point of `pred` over `0..len`: the first index at which
/// it is false, or `len` when it holds everywhere. `pred` must hold on a
/// prefix of `0..len` and nowhere after it, exactly what
/// [`slice::partition_point`] requires.
///
/// The search gallops out from `hint` (any value; the answer is the same)
/// in doubling steps until it brackets the answer, then bisects the
/// bracket. A `hint` equal to the answer, or one below it, costs at most
/// two probes.
pub(crate) fn partition_from(
    len: usize,
    hint: usize,
    mut pred: impl FnMut(usize) -> bool,
) -> usize {
    // `pred` holds below `lo` and fails at `hi` and above.
    let (mut lo, mut hi) = (0, len);
    let hint = hint.min(len);
    let mut step = 1;
    if hint < len && pred(hint) {
        lo = hint + 1;
        while lo < hi {
            let probe = (lo + step - 1).min(hi - 1);
            if !pred(probe) {
                hi = probe;
                break;
            }
            lo = probe + 1;
            step *= 2;
        }
    } else {
        hi = hint;
        while lo < hi {
            let probe = hi.saturating_sub(step);
            if pred(probe) {
                lo = probe + 1;
                break;
            }
            hi = probe;
            step *= 2;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_partition_point_from_every_hint() {
        for len in 0..40usize {
            for answer in 0..=len {
                for hint in 0..=len + 2 {
                    let got = partition_from(len, hint, |i| i < answer);
                    assert_eq!(got, answer, "len {len} hint {hint}");
                }
            }
        }
    }

    #[test]
    fn a_hint_at_or_just_below_the_answer_costs_at_most_two_probes() {
        for len in 1..40usize {
            for answer in 0..=len {
                for hint in [answer.saturating_sub(1), answer] {
                    let mut probes = 0;
                    partition_from(len, hint, |i| {
                        probes += 1;
                        i < answer
                    });
                    assert!(
                        probes <= 2,
                        "len {len} answer {answer} hint {hint}: {probes}"
                    );
                }
            }
        }
    }

    #[test]
    fn probes_grow_with_the_log_of_the_distance() {
        let len = 1 << 16;
        for (hint, answer) in [(0, len), (len, 0), (100, 40_000), (60_000, 7)] {
            let mut probes = 0;
            partition_from(len, hint, |i| {
                probes += 1;
                i < answer
            });
            assert!(
                probes <= 2 * 17 + 1,
                "hint {hint} answer {answer}: {probes}"
            );
        }
    }
}
