//! Minimal epoll/eventfd bindings — one copy, for a lane's sleep and
//! for the socket backend's reactor alike.
//!
//! The vendor tree carries no `libc` or `mio`, so both talk to the
//! kernel through these hand-written declarations: `epoll_create1`,
//! `epoll_ctl`, `epoll_pwait2` (Linux ≥ 5.11; its timeout is in ns, so a
//! sub-millisecond deadline is slept exactly), `eventfd`, and the
//! eventfd's `write`. A lane's parker (`park.rs`) is an
//! [`Epoll`] set holding an [`EventFd`]; `chant-comm` adds its own set
//! to it, so a lane sleeps on its wake-ups and its sockets at once.
//!
//! [`EpollEvent`] has the kernel's layout, so a crate above reads events
//! through this type, never a copy of its own. All of these calls are
//! thread-safe: any thread may arm interest or signal while another
//! sleeps in `epoll_pwait2`.

#![cfg(target_os = "linux")]

use std::io;
use std::os::raw::{c_int, c_long, c_void};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

/// Readable (or, for an epoll fd in another set, "has ready events").
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// The peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered: report a readiness change once, not while it lasts.
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const ENOSYS: i32 = 38;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel ABI
/// predates the padding rules); the natural C layout elsewhere.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready (or, when registering, wanted) `EPOLL*` bits.
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

/// The kernel's `struct timespec` on a 64-bit target.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
}

/// Own a freshly created fd, or report why there is none.
fn owned(ret: c_int) -> io::Result<OwnedFd> {
    if ret < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `ret` is a new fd the kernel just handed us, owned by no one else.
    Ok(unsafe { OwnedFd::from_raw_fd(ret) })
}

/// An owned epoll instance (closed on drop).
pub struct Epoll(OwnedFd);

impl Epoll {
    /// A new, empty epoll set (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers; the result is checked by `owned`.
        owned(unsafe { epoll_create1(EPOLL_CLOEXEC) }).map(Epoll)
    }

    /// The set's own fd: readable while any registered fd is ready, so
    /// the set can itself be registered in another set.
    pub fn fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` is a live `epoll_event`, read by the kernel only during the call.
        match unsafe { epoll_ctl(self.fd(), op, fd, &mut ev) } {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        }
    }

    /// Register `fd` for `events` (level-triggered), tagged with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the interest set of an already-registered fd.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregister `fd`. Harmless if already gone (closing an fd removes
    /// it from every epoll set).
    pub fn delete(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Wait for readiness, at most `timeout` (`None` = no limit, zero =
    /// poll). Returns the filled prefix of `events`; EINTR reads as "no
    /// events".
    ///
    /// # Panics
    /// On a kernel without `epoll_pwait2` (Linux < 5.11).
    pub fn wait<'a>(
        &self,
        events: &'a mut [EpollEvent],
        timeout: Option<Duration>,
    ) -> &'a [EpollEvent] {
        let ts = timeout.map(|t| Timespec {
            tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: t.subsec_nanos() as c_long,
        });
        let ts = ts.as_ref().map_or(std::ptr::null(), |t| t as *const Timespec);
        let (buf, len) = (events.as_mut_ptr(), events.len() as c_int);
        // SAFETY: `buf` has room for `len` events; `ts` is null or a live timespec.
        let n = unsafe { epoll_pwait2(self.fd(), buf, len, ts, std::ptr::null()) };
        if n < 0 {
            let err = io::Error::last_os_error();
            assert_ne!(err.raw_os_error(), Some(ENOSYS), "epoll_pwait2 needs Linux 5.11 or later");
            return &events[..0];
        }
        &events[..n as usize]
    }
}

/// An owned nonblocking eventfd (closed on drop): a wake-up that stays
/// pending, whenever the sleeper gets to `epoll_pwait2`. Registered
/// edge-triggered, each signal is one event and nothing needs draining.
pub struct EventFd(OwnedFd);

impl EventFd {
    /// A new, unsignalled eventfd (nonblocking, close-on-exec).
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: no pointers; the result is checked by `owned`.
        owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }).map(EventFd)
    }

    /// The fd to register for `EPOLLIN`.
    pub fn fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }

    /// Make a sleeping `epoll_pwait2` on this fd return. Cheap and safe
    /// to call from any thread.
    pub fn signal(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: `one` is 8 live bytes, the size an eventfd write takes.
        let _ = unsafe { write(self.fd(), one.as_ptr(), one.len()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    const POLL: Option<Duration> = Some(Duration::ZERO);
    const SECOND: Option<Duration> = Some(Duration::from_secs(1));

    #[test]
    fn eventfd_signal_is_one_edge_triggered_event() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.fd(), EPOLLIN | EPOLLET, 7).unwrap();
        let mut buf = [EpollEvent::default(); 4];
        assert!(ep.wait(&mut buf, POLL).is_empty(), "quiet eventfd is quiet");
        ev.signal();
        ev.signal(); // coalesces
        let got = ep.wait(&mut buf, SECOND);
        assert_eq!(got.len(), 1);
        assert_eq!({ got[0].data }, 7);
        assert!(ep.wait(&mut buf, POLL).is_empty(), "reported once, undrained");
        ev.signal();
        assert_eq!(ep.wait(&mut buf, SECOND).len(), 1, "the next signal is the next event");
    }

    #[test]
    fn socket_readiness_is_observed_through_a_nested_set() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let inner = Epoll::new().unwrap();
        inner.add(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 3).unwrap();
        let outer = Epoll::new().unwrap();
        outer.add(inner.fd(), EPOLLIN, 9).unwrap();
        let mut buf = [EpollEvent::default(); 4];
        assert!(outer.wait(&mut buf, POLL).is_empty(), "no data yet");
        client.write_all(b"ping").unwrap();
        let got = outer.wait(&mut buf, SECOND);
        assert_eq!((got.len(), { got[0].data }), (1, 9), "the outer set sees the inner one");
        let got = inner.wait(&mut buf, POLL);
        assert_eq!(got.len(), 1);
        assert_eq!({ got[0].data }, 3);
        assert_ne!({ got[0].events } & EPOLLIN, 0);
        inner.delete(server.as_raw_fd());
        client.write_all(b"more").unwrap();
        let quiet = Some(Duration::from_millis(50));
        assert!(outer.wait(&mut buf, quiet).is_empty(), "deregistered fd is mute");
    }
}
