//! CPU time of this process, all its threads together.
//!
//! End-to-end timings are taken on this clock rather than the wall
//! clock: on a shared host the wall time of the same work moves with
//! whatever else holds the cores, while the CPU time the process itself
//! consumed does not. Time a hypervisor steals from the guest is left out
//! too, where the kernel accounts for it.

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` in Linux's `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// CPU seconds this process has consumed so far.
pub fn process_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call to fill.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f`, returning its result and the CPU seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = process_s();
    let r = f();
    (r, process_s() - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_and_not_sleep() {
        let ((), slept) = timed(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        assert!(slept < 0.025, "sleeping cost {slept} CPU s");
        let (sum, spun) = timed(|| {
            let t = std::time::Instant::now();
            let mut x = 0u64;
            while t.elapsed().as_secs_f64() < 0.05 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            x
        });
        assert!(sum > 0);
        assert!(spun > 0.005, "spinning 50 ms cost only {spun} CPU s");
    }

    #[test]
    fn includes_other_threads() {
        let ((), cpu) = timed(|| {
            std::thread::spawn(|| {
                let t = std::time::Instant::now();
                while t.elapsed().as_secs_f64() < 0.05 {
                    std::hint::black_box(0);
                }
            })
            .join()
            .unwrap()
        });
        assert!(cpu > 0.005, "a 50 ms worker thread cost only {cpu} CPU s");
    }
}
