//! Dependency-free readiness primitives: epoll + eventfd over raw
//! syscalls.
//!
//! The service crate links no FFI (DESIGN.md §7: `std::net` +
//! `std::thread` only), so the event loop cannot use `libc`.
//! This module issues the four syscalls the readiness loop needs —
//! `epoll_create1`, `epoll_ctl`, `epoll_wait` (`epoll_pwait` on
//! aarch64), `eventfd2` — plus `read`/`write`/`close` on the waker fd,
//! directly through inline `asm!`, on `x86_64` and `aarch64` Linux.
//! On any other target the stub [`Poller`] and [`Waker`] constructors
//! fail with `io::ErrorKind::Unsupported`, so `Server::bind` does too;
//! no stub pretends to provide readiness it cannot.
//!
//! Everything here is level-triggered: the loop re-arms interest via
//! [`Poller::modify`] when it starts or stops caring about
//! writability, and a wake is re-delivered until the condition is
//! consumed — the simplest semantics to keep correct.
//!
//! This is an audited unsafe island (see `lib.rs`): `unsafe` appears
//! only in the two arch-specific `syscall4` trampolines and the calls
//! into them, each of which passes kernel-owned buffers that live for
//! the duration of the call.

#![cfg_attr(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))), allow(dead_code))]

use std::io;

/// One readiness event, decoded from the kernel's `epoll_event`.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token registered with [`Poller::add`].
    pub token: u64,
    /// Read-readiness (or a pending accept on a listener).
    pub readable: bool,
    /// Write-readiness.
    pub writable: bool,
    /// Peer hangup or socket error: the connection is dead either way,
    /// and the loop should reap it after draining what remains.
    pub closed: bool,
}

const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
const EPOLLERR: u32 = 0x8;
const EPOLLHUP: u32 = 0x10;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;

/// `EPOLL_CLOEXEC` / `EFD_CLOEXEC` (== `O_CLOEXEC`).
const CLOEXEC: usize = 0x80000;
const EFD_NONBLOCK: usize = 0x800;

const EINTR: i32 = 4;
const EAGAIN: i32 = 11;

/// The kernel's `struct epoll_event`. Packed on x86_64 (the one ABI
/// where the kernel expects the 12-byte layout), naturally aligned
/// elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const EPOLL_WAIT: usize = 232;
    pub const EPOLL_CTL: usize = 233;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    /// aarch64 has no plain `epoll_wait`; `epoll_pwait` with a null
    /// sigmask is identical.
    pub const EPOLL_PWAIT: usize = 22;
    pub const CLOSE: usize = 57;
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
}

/// Raw 4-argument syscall. Returns the kernel's raw result: negative
/// errno on failure.
///
/// SAFETY (caller): the arguments must be valid for the specific
/// syscall — any pointer passed must be live and sized as the kernel
/// expects for the duration of the call.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall4(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
    let ret: isize;
    // SAFETY: `syscall` with the x86_64 Linux ABI — args in
    // rdi/rsi/rdx/r10, number in rax, result in rax, rcx/r11
    // clobbered by the instruction itself.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// Raw 6-argument syscall (aarch64 needs the two extra slots for
/// `epoll_pwait`'s sigmask pair).
///
/// SAFETY (caller): as [`syscall4`].
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall6(
    nr: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    // SAFETY: `svc 0` with the aarch64 Linux ABI — args in x0..x5,
    // number in x8, result in x0.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall4(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
    // SAFETY: forwarded verbatim; unused slots are ignored by the
    // kernel for every syscall this module issues.
    unsafe { syscall6(nr, a1, a2, a3, a4, 0, 0) }
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(i32::try_from(-ret).unwrap_or(i32::MAX)))
    } else {
        Ok(usize::try_from(ret).unwrap_or(0))
    }
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod imp {
    use super::*;

    fn interest_bits(readable: bool, writable: bool) -> u32 {
        let mut bits = EPOLLRDHUP;
        if readable {
            bits |= EPOLLIN;
        }
        if writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    /// A level-triggered epoll instance.
    #[derive(Debug)]
    pub struct Poller {
        epfd: i32,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes a flag word, no pointers.
            let ret = unsafe { syscall4(nr::EPOLL_CREATE1, CLOEXEC, 0, 0, 0) };
            let epfd = i32::try_from(check(ret)?).unwrap_or(-1);
            Ok(Self { epfd })
        }

        fn ctl(&self, op: usize, fd: i32, ev: Option<EpollEvent>) -> io::Result<()> {
            let ev_ptr = ev
                .as_ref()
                .map_or(std::ptr::null(), std::ptr::from_ref)
                as usize;
            // SAFETY: `ev` (when present) lives on this stack frame for
            // the whole call; EPOLL_CTL_DEL passes null, which the
            // kernel accepts since 2.6.9.
            let ret = unsafe {
                syscall4(
                    nr::EPOLL_CTL,
                    self.epfd as usize,
                    op,
                    fd as usize,
                    ev_ptr,
                )
            };
            check(ret).map(|_| ())
        }

        /// Registers `fd` under `token` with the given interest.
        pub fn add(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            let ev = EpollEvent { events: interest_bits(readable, writable), data: token };
            self.ctl(EPOLL_CTL_ADD, fd, Some(ev))
        }

        /// Re-arms `fd`'s interest set (level-triggered).
        pub fn modify(
            &self,
            fd: i32,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let ev = EpollEvent { events: interest_bits(readable, writable), data: token };
            self.ctl(EPOLL_CTL_MOD, fd, Some(ev))
        }

        /// Deregisters `fd`.
        pub fn remove(&self, fd: i32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        /// Waits up to `timeout_ms` (−1 = forever) and appends decoded
        /// events to `out`. `EINTR` is reported as zero events, not an
        /// error. Returns the number of events delivered.
        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            const MAX_EVENTS: usize = 256;
            let mut buf = [EpollEvent::default(); MAX_EVENTS];
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `buf` outlives the call and holds MAX_EVENTS
            // entries, exactly what the third argument promises.
            let ret = unsafe {
                syscall4(
                    nr::EPOLL_WAIT,
                    self.epfd as usize,
                    buf.as_mut_ptr() as usize,
                    MAX_EVENTS,
                    timeout_ms as usize,
                )
            };
            #[cfg(target_arch = "aarch64")]
            // SAFETY: as above; the null sigmask (arg 5) makes
            // epoll_pwait behave exactly like epoll_wait, and the
            // kernel ignores sigsetsize for a null mask.
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.epfd as usize,
                    buf.as_mut_ptr() as usize,
                    MAX_EVENTS,
                    timeout_ms as usize,
                    0,
                    8,
                )
            };
            let n = match check(ret) {
                Ok(n) => n.min(MAX_EVENTS),
                Err(e) if e.raw_os_error() == Some(EINTR) => 0,
                Err(e) => return Err(e),
            };
            for ev in buf.iter().take(n) {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: closing an owned fd; errors are unreportable in
            // drop and the fd is ours by construction.
            let _ = unsafe { syscall4(nr::CLOSE, self.epfd as usize, 0, 0, 0) };
        }
    }

    /// A nonblocking eventfd used to nudge a parked `epoll_wait` from
    /// another thread (executor completions, shutdown).
    #[derive(Debug)]
    pub struct Waker {
        fd: i32,
    }

    impl Waker {
        pub fn new() -> io::Result<Self> {
            // SAFETY: eventfd2 takes an initial count and flags, no
            // pointers.
            let ret = unsafe { syscall4(nr::EVENTFD2, 0, CLOEXEC | EFD_NONBLOCK, 0, 0) };
            let fd = i32::try_from(check(ret)?).unwrap_or(-1);
            Ok(Self { fd })
        }

        /// The fd to register with the poller (read interest).
        pub fn fd(&self) -> i32 {
            self.fd
        }

        /// Posts one wake. Safe from any thread; a full counter
        /// (`EAGAIN`) already means the loop has a pending wake.
        pub fn wake(&self) {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a stack u64 that outlives
            // the call.
            let _ = unsafe {
                syscall4(
                    nr::WRITE,
                    self.fd as usize,
                    std::ptr::from_ref(&one) as usize,
                    8,
                    0,
                )
            };
        }

        /// Consumes all pending wakes (the eventfd counter resets).
        pub fn drain(&self) {
            let mut buf: u64 = 0;
            // SAFETY: reads 8 bytes into a stack u64 that outlives the
            // call; the fd is nonblocking so an empty counter returns
            // EAGAIN rather than parking.
            let ret = unsafe {
                syscall4(
                    nr::READ,
                    self.fd as usize,
                    std::ptr::from_mut(&mut buf) as usize,
                    8,
                    0,
                )
            };
            debug_assert!(ret == 8 || ret == -(EAGAIN as isize));
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            // SAFETY: closing an owned fd (see Poller::drop).
            let _ = unsafe { syscall4(nr::CLOSE, self.fd as usize, 0, 0, 0) };
        }
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod imp {
    use super::*;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "the readiness backend needs x86_64 or aarch64 Linux",
        )
    }

    /// Stub poller for targets without the raw-syscall backend: every
    /// constructor fails with `Unsupported`, and so does `Server::bind`.
    #[derive(Debug)]
    pub struct Poller {}

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Err(unsupported())
        }

        pub fn add(&self, _fd: i32, _token: u64, _r: bool, _w: bool) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn modify(&self, _fd: i32, _token: u64, _r: bool, _w: bool) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn remove(&self, _fd: i32) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn wait(&self, _out: &mut Vec<Event>, _timeout_ms: i32) -> io::Result<usize> {
            Err(unsupported())
        }
    }

    #[derive(Debug)]
    pub struct Waker {}

    impl Waker {
        pub fn new() -> io::Result<Self> {
            Err(unsupported())
        }

        pub fn fd(&self) -> i32 {
            -1
        }

        pub fn wake(&self) {}

        pub fn drain(&self) {}
    }
}

pub use imp::{Poller, Waker};

#[cfg(all(test, target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn poller_reports_eventfd_readability() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.fd(), 42, true, false).unwrap();

        // nothing pending: a zero-timeout wait delivers nothing
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

        waker.wake();
        waker.wake(); // coalesces into the same readiness
        assert_eq!(poller.wait(&mut events, 1000).unwrap(), 1);
        let ev = events.first().copied().unwrap();
        assert_eq!(ev.token, 42);
        assert!(ev.readable && !ev.closed);

        // drain resets the counter; readiness disappears
        waker.drain();
        events.clear();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

        // interest can be re-armed off and back on
        poller.modify(waker.fd(), 42, false, false).unwrap();
        waker.wake();
        events.clear();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "no read interest armed");
        poller.modify(waker.fd(), 42, true, false).unwrap();
        assert_eq!(poller.wait(&mut events, 1000).unwrap(), 1);
        poller.remove(waker.fd()).unwrap();
    }
}
