//! Minimal epoll/eventfd bindings for the socket backend.
//!
//! The vendor tree carries no `libc` or `mio`, so the reactor talks to
//! the kernel through these hand-written `extern "C"` declarations —
//! exactly the five entry points it needs (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`, plus `read`/`write`/`close`
//! for the wakeup fd). Everything socket-shaped still goes through
//! `std::net`; only readiness notification is raw.
//!
//! Safety: the wrappers own their fds ([`Epoll`], [`EventFd`] close on
//! drop), every buffer pointer passed to the kernel is a live, properly
//! sized Rust allocation, and `epoll_event` uses the kernel's x86-64
//! packed layout. All three epoll calls and eventfd reads/writes are
//! documented thread-safe, which the reactor relies on: sender threads
//! arm `EPOLLOUT` and signal the wakeup fd while the poller sits in
//! `epoll_wait`.

#![cfg(target_os = "linux")]

use std::io;
use std::os::unix::io::RawFd;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel ABI
/// predates the padding rules); the natural C layout elsewhere.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` for `events`, tagged with `token`.
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
        let mut ev = EpollEvent { events: 0, data: 0 };
        let _ = unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Wait for readiness. `timeout_ms` of 0 polls, -1 blocks. Returns
    /// the filled prefix of `events`. EINTR reads as "no events".
    pub fn wait<'a>(&self, events: &'a mut [EpollEvent], timeout_ms: i32) -> &'a [EpollEvent] {
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        let n = if n < 0 { 0 } else { n as usize };
        &events[..n]
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        let _ = unsafe { close(self.fd) };
    }
}

/// An owned nonblocking eventfd used as the reactor's wakeup channel.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Make a parked `epoll_wait` on this fd return. Cheap and safe to
    /// call from any thread; coalesces with pending signals.
    pub fn signal(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = unsafe { write(self.fd, one.as_ptr(), one.len()) };
    }

    /// Consume all pending signals so the level-triggered registration
    /// goes quiet again.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        let _ = unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn eventfd_signal_wakes_epoll_and_drains_quiet() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.fd(), EPOLLIN, 7).unwrap();
        let mut buf = [EpollEvent { events: 0, data: 0 }; 4];
        assert!(ep.wait(&mut buf, 0).is_empty(), "quiet eventfd is quiet");
        ev.signal();
        ev.signal(); // coalesces
        let got = ep.wait(&mut buf, 1000);
        assert_eq!(got.len(), 1);
        assert_eq!({ got[0].data }, 7);
        ev.drain();
        assert!(ep.wait(&mut buf, 0).is_empty(), "drained eventfd is quiet");
    }

    #[test]
    fn socket_readiness_is_observed() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 3).unwrap();
        let mut buf = [EpollEvent { events: 0, data: 0 }; 4];
        assert!(ep.wait(&mut buf, 0).is_empty(), "no data yet");
        client.write_all(b"ping").unwrap();
        let got = ep.wait(&mut buf, 1000);
        assert_eq!(got.len(), 1);
        assert_eq!({ got[0].data }, 3);
        assert_ne!({ got[0].events } & EPOLLIN, 0);
        ep.delete(server.as_raw_fd());
        client.write_all(b"more").unwrap();
        assert!(ep.wait(&mut buf, 50).is_empty(), "deregistered fd is mute");
    }
}
