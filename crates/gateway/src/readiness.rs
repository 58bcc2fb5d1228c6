//! Blocking readiness for the event loop: [`wait`] parks the calling
//! thread in `poll(2)` until one of a set of descriptors is ready, and
//! a [`Waker`] lets any other thread end that wait.
//!
//! This is the only module in the workspace allowed `unsafe`: one
//! foreign call, to the `poll` of the libc that `std` already links (no
//! new dependency). Everything else — the waker's socket pair, its
//! nonblocking reads and writes — is safe `std`.
//!
//! The set is level-triggered and passed whole on every call: the event
//! loop visits every connection per pass anyway (`max_conns` is 64), so
//! there is no registration state to keep in sync with it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

pub use sys::{wait, PollFd};

/// What a [`PollFd`] waits for. Errors and hang-ups are reported for
/// every descriptor in the set whatever its interest, which is why a
/// descriptor with nothing to wait for must be left *out* of the set.
pub type Interest = i16;
/// Data to read (or a pending connection, or end of stream).
pub const READABLE: Interest = 0x001;
/// Room to write.
pub const WRITABLE: Interest = 0x004;

/// How long a wait that cannot block on readiness parks instead.
const FALLBACK_PARK: Duration = Duration::from_micros(500);

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use super::{Duration, Interest, FALLBACK_PARK, READABLE};
    use std::io::{ErrorKind, Read, Write};
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::raw::c_int;
    use std::os::unix::net::UnixStream;

    /// One entry of the wait set: `struct pollfd`.
    #[repr(C)]
    #[derive(Debug)]
    pub struct PollFd {
        fd: RawFd,
        events: Interest,
        revents: i16,
    }

    impl PollFd {
        /// Waits for `interest` on `source`, which the caller keeps open
        /// for as long as the entry is passed to [`wait`].
        pub fn new(source: &(impl AsRawFd + ?Sized), interest: Interest) -> Self {
            Self {
                fd: source.as_raw_fd(),
                events: interest,
                revents: 0,
            }
        }

        /// Whether the last [`wait`] reported anything for this entry —
        /// its interest, an error, or a hang-up.
        pub fn ready(&self) -> bool {
            self.revents != 0
        }
    }

    /// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs
    /// and macOS.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until an entry of `fds` is ready or `timeout` passes
    /// (`None` = no timeout), and returns how many entries are ready:
    /// 0 for a timeout, and for an interrupted call, which reads as a
    /// spurious wake. The timeout is rounded *up* to a millisecond, so a
    /// caller waiting out a deadline never spins through its last
    /// fraction.
    pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> usize {
        let millis = timeout.map_or(-1, |t| {
            c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
        });
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // structs laid out as `struct pollfd` (int, short, short), so the
        // pointer is valid for reads and writes of `fds.len()` entries
        // for the whole call; the kernel writes only `revents`, for which
        // every bit pattern is a valid `i16`, and `poll` keeps no pointer
        // after it returns. A stale or closed descriptor is not a
        // memory-safety matter: the kernel reports it in `revents`.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, millis) };
        match usize::try_from(ready) {
            Ok(count) => count,
            Err(_) if std::io::Error::last_os_error().kind() == ErrorKind::Interrupted => 0,
            // EINVAL (more entries than RLIMIT_NOFILE) or ENOMEM: nothing
            // was waited for. Park briefly so that the caller's retry is
            // a slow loop, never a spin.
            Err(_) => {
                std::thread::park_timeout(FALLBACK_PARK);
                0
            }
        }
    }

    /// The waker's byte channel: a nonblocking socket pair.
    pub struct Pipe {
        tx: UnixStream,
        rx: UnixStream,
    }

    impl Pipe {
        pub fn new() -> std::io::Result<Self> {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(Self { tx, rx })
        }

        pub fn pollfd(&self) -> PollFd {
            PollFd::new(&self.rx, READABLE)
        }

        pub fn signal(&self) {
            // Anything but success or an interruption is a full buffer,
            // which holds a byte already: the waiter wakes either way.
            while matches!((&self.tx).write(&[1]), Err(e) if e.kind() == ErrorKind::Interrupted) {}
        }

        pub fn clear(&self) {
            let mut bytes = [0u8; 8];
            loop {
                match (&self.rx).read(&mut bytes) {
                    Ok(n) if n == bytes.len() => continue,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // A short read or `WouldBlock`: the socket is empty.
                    _ => break,
                }
            }
        }
    }
}

#[cfg(not(unix))]
compile_error!("cgnp-gateway's event loop blocks in poll(2) and needs a unix target");

/// Ends a [`wait`] from another thread.
///
/// A nonblocking socket pair plus an `armed` flag. [`Waker::wake`] sets
/// the flag and writes one byte only if the flag was clear, so any
/// number of wakes between two drains cost one byte; the waiting side
/// puts [`Waker::pollfd`] in its set and, when that entry is ready,
/// calls [`Waker::drain`] **before** it looks at whatever the wakers
/// published (for the gateway: before it takes the outbox lock or reads
/// the drain state).
///
/// No wake is lost. `drain` empties the socket first and clears the flag
/// second, with a read-modify-write; every `wake` is a read-modify-write
/// of the same flag, so each one falls on one side of the clear:
///
/// * *before it* — the clear then reads a value written by that wake or
///   by a wake after it, all of them `swap`s, so it synchronises with
///   that wake: what the waker published before calling `wake` is
///   visible to the pass that follows `drain`. Its byte, if `drain`'s
///   read came too early for it, stays in the socket and costs one
///   spurious pass.
/// * *after it* — the wake finds the flag clear and writes a byte of its
///   own, which the next `wait` sees.
///
/// Clearing first and reading second would not do: a byte written in
/// between would be swallowed with the flag left set, and every later
/// wake would stay silent. The socket never holds more than two bytes
/// (one per clear-to-set transition, and `drain` takes them all), so a
/// wake never finds the buffer full.
pub struct Waker {
    armed: AtomicBool,
    pipe: sys::Pipe,
}

impl Waker {
    pub fn new() -> std::io::Result<Self> {
        Ok(Self {
            armed: AtomicBool::new(false),
            pipe: sys::Pipe::new()?,
        })
    }

    /// Makes the current or the next [`wait`] on [`Waker::pollfd`]
    /// return. Returns whether a byte was written — false when an
    /// earlier wake is still undrained.
    pub fn wake(&self) -> bool {
        let first = !self.armed.swap(true, Ordering::SeqCst);
        if first {
            self.pipe.signal();
        }
        first
    }

    /// The entry that makes a [`wait`] end on a wake.
    pub fn pollfd(&self) -> PollFd {
        self.pipe.pollfd()
    }

    /// Consumes the pending wake. Call it after a [`wait`] reported
    /// [`Waker::pollfd`] ready, and before reading what wakers publish.
    pub fn drain(&self) {
        self.pipe.clear();
        self.armed.swap(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;

    #[test]
    fn wakes_before_a_wait_coalesce_into_one_byte() {
        let waker = Waker::new().unwrap();
        let written = (0..5).filter(|_| waker.wake()).count();
        assert_eq!(written, 1, "one byte for any number of undrained wakes");
        let mut set = [waker.pollfd()];
        // No timeout: a lost wake would hang here, not pass slowly.
        assert_eq!(wait(&mut set, None), 1);
        assert!(set[0].ready());
        waker.drain();
        let mut set = [waker.pollfd()];
        let t0 = Instant::now();
        assert_eq!(wait(&mut set, Some(Duration::from_millis(20))), 0);
        assert!(!set[0].ready());
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "a drained waker must not end the wait: {:?}",
            t0.elapsed()
        );
        assert!(waker.wake(), "a wake after the drain writes again");
    }

    #[test]
    fn sub_millisecond_timeouts_round_up_not_down_to_a_spin() {
        let waker = Waker::new().unwrap();
        let t0 = Instant::now();
        assert_eq!(
            wait(&mut [waker.pollfd()], Some(Duration::from_micros(1))),
            0
        );
        assert!(t0.elapsed() >= Duration::from_micros(900));
    }

    /// Two publishers each publish a number, wake, and wait until the
    /// consumer has seen it — so each one's wake keeps landing while the
    /// consumer is draining the other's. A lost wake leaves the consumer
    /// parked with a publisher waiting on it, and its wait times out.
    /// (Clearing the flag before emptying the socket fails this in most
    /// runs.)
    #[test]
    fn a_wake_racing_the_drain_is_never_lost() {
        const ROUNDS: u64 = 10_000;
        let waker = Waker::new().unwrap();
        let published = [AtomicU64::new(0), AtomicU64::new(0)];
        let seen = [AtomicU64::new(0), AtomicU64::new(0)];
        let lost = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for (published, seen) in published.iter().zip(&seen) {
                let (waker, lost) = (&waker, &lost);
                scope.spawn(move || {
                    for round in 1..=ROUNDS {
                        // Spread the wakes over the consumer's whole
                        // cycle, not just the instant after its release.
                        for _ in 0..round * 7919 % 1024 {
                            std::hint::spin_loop();
                        }
                        published.store(round, Ordering::SeqCst);
                        waker.wake();
                        while seen.load(Ordering::SeqCst) < round {
                            if lost.load(Ordering::SeqCst) {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
            while seen.iter().any(|s| s.load(Ordering::SeqCst) < ROUNDS) {
                if wait(&mut [waker.pollfd()], Some(Duration::from_secs(5))) == 0 {
                    lost.store(true, Ordering::SeqCst);
                    break;
                }
                waker.drain();
                for (published, seen) in published.iter().zip(&seen) {
                    seen.store(published.load(Ordering::SeqCst), Ordering::SeqCst);
                }
            }
        });
        assert!(
            !lost.load(Ordering::SeqCst),
            "parked with a wake outstanding: seen {seen:?} of {published:?}"
        );
    }
}
